(* ABD is the quorum register under the single-writer discipline *)
type t = Quorum.t
type msg = Quorum.msg
type persist = Quorum.persist

let create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched ~name
    ~n ~writer ~init () =
  Quorum.create ?retry_after ?quorum ?persist ?unsafe_recovery ?compact ~sched
    ~name ~n ~discipline:(Quorum.Single_writer writer) ~init ()

let net = Quorum.net
let name = Quorum.name
let n = Quorum.n
let majority = Quorum.majority

let writer t =
  match Quorum.discipline t with
  | Quorum.Single_writer w -> w
  | Quorum.Multi_writer -> assert false (* Abd.t is only built by create *)

let write t v = Quorum.write t ~proc:(writer t) v
let read = Quorum.read
let crash_node = Quorum.crash_node
let recover_node = Quorum.recover_node
let server_pid = Quorum.server_pid
