(* MW-ABD is the quorum register under the multi-writer discipline *)
type t = Quorum.t
type msg = Quorum.msg
type persist = Quorum.persist

let create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched ~name
    ~n ~init () =
  Quorum.create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched
    ~name ~n ~discipline:Quorum.Multi_writer ~init ()

let net = Quorum.net
let majority = Quorum.majority
let write = Quorum.write
let read = Quorum.read
let crash_node = Quorum.crash_node
let recover_node = Quorum.recover_node
let server_pid = Quorum.server_pid
