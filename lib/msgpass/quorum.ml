module V = History.Value
module Op = History.Op
module Trace = Simkit.Trace
module Sched = Simkit.Sched
module Stable = Simkit.Stable

type discipline = Single_writer of int | Multi_writer

(* timestamps ⟨sq, pid⟩, compared lexicographically; under a single
   writer every pid is the writer's, so only [sq] ever decides *)
let newer ~sq ~pid ~than_sq ~than_pid =
  sq > than_sq || (sq = than_sq && pid > than_pid)

(* Replies carry the responding replica's node index: quorum counting is
   per distinct node, which makes the protocol idempotent under
   retransmission and message duplication (a doubled ack can never count
   twice towards a majority).  A client request id names its client
   ([client_of]), which is where the reply goes. *)
type msg =
  | Ts_req of { rid : int }
  | Ts_reply of { rid : int; node : int; sq : int }
  | Write_req of { wid : int; sq : int; pid : int; v : int }
  | Write_ack of { wid : int; node : int }
  | Read_req of { rid : int }
  | Read_reply of { rid : int; node : int; sq : int; pid : int; v : int }
  | Wb_req of { rid : int; sq : int; pid : int; v : int }
  | Wb_ack of { rid : int; node : int }
  (* state-transfer recovery handshake: a recovering server asks the
     live replicas for their timestamped value before it serves again *)
  | Rec_req of { rid : int; node : int }
  | Rec_reply of { rid : int; node : int; sq : int; pid : int; v : int }

type replica = { mutable sq : int; mutable pid : int; mutable v : int }

type persist = [ `Every | `Never ]

type t = {
  sched : Sched.t;
  name_ : string;
  n_ : int;
  disc : discipline;
  ts_key : string; (* the persist event's timestamp argument *)
  init_ : int;
  retry_ : int; (* client retransmission timeout, in own-fiber yields *)
  quorum_ : int; (* replies per round; majority unless overridden *)
  persist_ : persist;
  unsafe_recovery_ : bool;
  net : msg Net.t;
  replicas : replica array;
  stable : (int * int * int) Stable.t; (* per-node durable (sq, pid, v) log *)
  lost_at_crash : int array; (* records lost by each node's last crash *)
  mutable wseq : int; (* the single writer's sequence number *)
  mutable seq : int; (* fresh request ids *)
  mutable recseq : int; (* fresh state-transfer round ids *)
  (* metric handles, resolved once at creation (hot-path discipline) *)
  quorum_need_h : Obs.Metrics.Hist.t;
  stale_c : Obs.Metrics.Counter.t;
  retransmits_c : Obs.Metrics.Counter.t;
  writes_c : Obs.Metrics.Counter.t;
  reads_c : Obs.Metrics.Counter.t;
  recoveries_c : Obs.Metrics.Counter.t;
  state_transfer_c : Obs.Metrics.Counter.t;
  amnesia_c : Obs.Metrics.Counter.t;
}

let server_pid ~node = 100 + node

(* client pids are < 100 and fit the low byte *)
let client_of rid = rid land 0xff

let fresh_rid t ~client =
  t.seq <- t.seq + 1;
  (t.seq lsl 8) lor client

(* the pid half of a node's initial timestamp: one shared pid under a
   single writer, so the initial value is never re-stored by a
   write-back; the node itself otherwise *)
let origin disc node =
  match disc with Single_writer w -> w | Multi_writer -> node

(* flight-recorder events for operation phases (category "reg"): an
   [invoke] roots the op's causal tree, each quorum [round] chains to it,
   [retransmit]s chain to their round, and the [respond] closes the op.
   All guarded on [Tracer.armed] so untraced runs pay one branch. *)
let trc t = Sched.tracer t.sched

let emit_op t ~pid ~parent name args =
  let tr = trc t in
  if Obs.Tracer.armed tr then
    Obs.Tracer.emit tr ~track:pid ~parent
      ~args:(("obj", Obs.Json.Str t.name_) :: args)
      ~sim:(Sched.steps t.sched) ~cat:"reg" name
  else -1

let emit_persist t ~parent ~node sq =
  ignore
    (emit_op t ~pid:(server_pid ~node) ~parent "persist"
       [ ("node", Obs.Json.Int node); (t.ts_key, Obs.Json.Int sq) ])

(* a replica accepted an update: apply it in memory and write it ahead to
   stable storage.  Under [`Every] the append is immediately durable (and
   traced as a [persist] sync point); under [`Never] it stays in the
   volatile tail, which a crash discards — that is the amnesia the unsafe
   recovery path exposes. *)
let store t ~node rep ~sq ~pid ~v =
  rep.sq <- sq;
  rep.pid <- pid;
  rep.v <- v;
  Stable.append t.stable ~node (sq, pid, v);
  if t.persist_ = `Every then emit_persist t ~parent:(-1) ~node sq

let server t node () =
  let me = server_pid ~node in
  let rep = t.replicas.(node) in
  let accept ~sq ~pid ~v =
    (* idempotent: re-applying an old/duplicate request is a no-op, but
       it is always re-acknowledged (the earlier ack may have been
       dropped) *)
    if newer ~sq ~pid ~than_sq:rep.sq ~than_pid:rep.pid then
      store t ~node rep ~sq ~pid ~v
  in
  while true do
    match Net.recv t.net ~pid:me with
    | Ts_req { rid } ->
        Net.send t.net ~src:me ~dst:(client_of rid)
          (Ts_reply { rid; node; sq = rep.sq })
    | Write_req { wid; sq; pid; v } ->
        accept ~sq ~pid ~v;
        Net.send t.net ~src:me ~dst:(client_of wid) (Write_ack { wid; node })
    | Read_req { rid } ->
        Net.send t.net ~src:me ~dst:(client_of rid)
          (Read_reply { rid; node; sq = rep.sq; pid = rep.pid; v = rep.v })
    | Wb_req { rid; sq; pid; v } ->
        accept ~sq ~pid ~v;
        Net.send t.net ~src:me ~dst:(client_of rid) (Wb_ack { rid; node })
    | Rec_req { rid; node = who } ->
        (* a recovering replica asks for state: answer with our copy *)
        Net.send t.net ~src:me
          ~dst:(server_pid ~node:who)
          (Rec_reply { rid; node; sq = rep.sq; pid = rep.pid; v = rep.v })
    | Rec_reply _ ->
        (* a state-transfer reply landing after the handshake finished
           (late or duplicated): stale, ignore *)
        Obs.Metrics.incr_h t.stale_c
    | Ts_reply _ | Write_ack _ | Read_reply _ | Wb_ack _ ->
        (* client-bound message misrouted to a server: impossible by
           construction (faults drop/duplicate/delay, never re-address) *)
        assert false
  done

let create ?(retry_after = 25) ?quorum ?(persist = `Every)
    ?(unsafe_recovery = false) ?(compact = false) ~sched ~name ~n ~discipline
    ~init () =
  let inst, ts_key =
    match discipline with
    | Single_writer _ -> ("abd", "ts")
    | Multi_writer -> ("mwabd", "sq")
  in
  let bad msg =
    invalid_arg (String.capitalize_ascii inst ^ ".create: " ^ msg)
  in
  if n < 2 then bad "n must be >= 2";
  if n >= 100 then bad "n must be < 100";
  (match discipline with
  | Single_writer w when w < 0 || w >= n -> bad "writer out of range"
  | _ -> ());
  let quorum_ = match quorum with Some q -> q | None -> (n / 2) + 1 in
  if quorum_ < 1 || quorum_ > n then bad "quorum out of range";
  let m = Sched.metrics sched in
  let metric name = "reg." ^ inst ^ "." ^ name in
  let stable =
    Stable.create ~metrics:m ~auto_compact:compact
      ~policy:
        (match persist with `Every -> Stable.Every | `Never -> Stable.Explicit)
      ~n ()
  in
  let t =
    {
      sched;
      name_ = name;
      n_ = n;
      disc = discipline;
      ts_key;
      init_ = init;
      retry_ = retry_after;
      quorum_;
      persist_ = persist;
      unsafe_recovery_ = unsafe_recovery;
      net = Net.create ~sched ~n:200;
      replicas =
        Array.init n (fun node ->
            { sq = 0; pid = origin discipline node; v = init });
      stable;
      lost_at_crash = Array.make n 0;
      wseq = 0;
      seq = 0;
      recseq = 0;
      quorum_need_h = Obs.Metrics.hist_h m (metric "quorum.need");
      stale_c = Obs.Metrics.counter_h m (metric "stale");
      retransmits_c = Obs.Metrics.counter_h m (metric "retransmits");
      writes_c = Obs.Metrics.counter_h m (metric "writes");
      reads_c = Obs.Metrics.counter_h m (metric "reads");
      recoveries_c = Obs.Metrics.counter_h m (metric "recoveries");
      state_transfer_c = Obs.Metrics.counter_h m (metric "state_transfer");
      amnesia_c = Obs.Metrics.counter_h m (metric "amnesia");
    }
  in
  for node = 0 to n - 1 do
    (* every node's initial register copy is durable (a freshly formatted
       disk), whatever the persist policy *)
    Stable.append t.stable ~node (0, origin discipline node, init);
    Stable.persist t.stable ~node;
    Sched.spawn sched ~pid:(server_pid ~node) (server t node)
  done;
  t

let net t = t.net
let name t = t.name_
let n t = t.n_
let discipline t = t.disc
let majority t = (t.n_ / 2) + 1

let send_to t ~src ~node payload =
  Net.send t.net ~src ~dst:(server_pid ~node) payload

(* collect a quorum for [pid]'s round [parent], retransmitting [payload]
   to the replicas not yet heard from on a step-count timeout; resends
   chain to [parent] in the flight recorder *)
let collect t ~pid ~parent ~need ~seen ~payload ~classify =
  Net.collect_quorum t.net ~pid ~need ~seen ~classify
    ~stale:(fun () -> Obs.Metrics.incr_h t.stale_c)
    ~retry_after:t.retry_
    ~resend:(fun ~missing ->
      Obs.Metrics.incr_h t.retransmits_c;
      ignore
        (emit_op t ~pid ~parent "retransmit"
           [ ("missing", Obs.Json.Int (List.length missing)) ]);
      Obs.Tracer.set_ctx (trc t) parent;
      List.iter (fun node -> send_to t ~src:pid ~node payload) missing)

(* one round trip: broadcast [payload], await matching replies from a
   quorum of distinct replicas.  [pseq] is the invoke event this round
   belongs to (-1 untraced). *)
let quorum_round t ~pid ~pseq ~payload ~classify =
  (* every round records the quorum size it waits for: the chaos
     quorum-intersection monitor checks min(need) >= majority *)
  Obs.Metrics.observe_h t.quorum_need_h (float_of_int t.quorum_);
  let rseq =
    emit_op t ~pid ~parent:pseq "round" [ ("need", Obs.Json.Int t.quorum_) ]
  in
  (* sends below chain to the round via the ambient context *)
  Obs.Tracer.set_ctx (trc t) rseq;
  for node = 0 to t.n_ - 1 do
    send_to t ~src:pid ~node payload
  done;
  collect t ~pid ~parent:rseq ~need:t.quorum_ ~seen:(Array.make t.n_ false)
    ~payload ~classify;
  (* collect consumed deliveries and left the context on the last one;
     restore the op as ambient cause for whatever follows the round *)
  Obs.Tracer.set_ctx (trc t) pseq

let invoke t ~proc kind args =
  let op_id = Trace.invoke (Sched.trace t.sched) ~proc ~obj:t.name_ ~kind in
  let pseq =
    emit_op t ~pid:proc ~parent:(-1) "invoke"
      (("op", Obs.Json.Int op_id) :: args)
  in
  (op_id, pseq)

let respond t ~proc ~op_id ~pseq ~result args =
  ignore
    (emit_op t ~pid:proc ~parent:pseq "respond"
       (("op", Obs.Json.Int op_id) :: args));
  Obs.Tracer.set_ctx (trc t) (-1);
  Trace.respond (Sched.trace t.sched) ~op_id ~result

let write t ~proc v =
  Obs.Metrics.incr_h t.writes_c;
  let op_id, pseq =
    invoke t ~proc (Op.Write (V.Int v))
      [ ("kind", Obs.Json.Str "write"); ("v", Obs.Json.Int v) ]
  in
  let sq, pid =
    match t.disc with
    | Single_writer w ->
        t.wseq <- t.wseq + 1;
        (t.wseq, w)
    | Multi_writer ->
        (* phase 1: query a quorum for sequence numbers.  Updating
           [max_sq] from a duplicate reply of an already-counted node is
           safe: a larger bound only pushes our Lamport timestamp higher. *)
        let rid = fresh_rid t ~client:proc in
        let max_sq = ref 0 in
        quorum_round t ~pid:proc ~pseq ~payload:(Ts_req { rid })
          ~classify:(function
            | Ts_reply { rid = rid'; node; sq } when rid' = rid ->
                if sq > !max_sq then max_sq := sq;
                Some node
            | _ -> None);
        (!max_sq + 1, proc)
  in
  (* push (v, ⟨sq, pid⟩) to a quorum *)
  let wid = fresh_rid t ~client:proc in
  quorum_round t ~pid:proc ~pseq
    ~payload:(Write_req { wid; sq; pid; v })
    ~classify:(function
      | Write_ack { wid = wid'; node } when wid' = wid -> Some node
      | _ -> None);
  respond t ~proc ~op_id ~pseq ~result:None []

let read t ~reader =
  Obs.Metrics.incr_h t.reads_c;
  let op_id, pseq =
    invoke t ~proc:reader Op.Read [ ("kind", Obs.Json.Str "read") ]
  in
  (* phase 1: a quorum of replies; keep the largest timestamp.  Updating
     [best] from a duplicate (or refreshed) reply of an already-counted
     node is safe: a larger timestamp only strengthens the write-back. *)
  let rid = fresh_rid t ~client:reader in
  let best_sq = ref (-1) and best_pid = ref (-1) and best_v = ref 0 in
  quorum_round t ~pid:reader ~pseq ~payload:(Read_req { rid })
    ~classify:(function
      | Read_reply { rid = rid'; node; sq; pid; v } when rid' = rid ->
          if newer ~sq ~pid ~than_sq:!best_sq ~than_pid:!best_pid then begin
            best_sq := sq;
            best_pid := pid;
            best_v := v
          end;
          Some node
      | _ -> None);
  (* phase 2: write back to a quorum *)
  let wbid = fresh_rid t ~client:reader in
  quorum_round t ~pid:reader ~pseq
    ~payload:
      (Wb_req { rid = wbid; sq = !best_sq; pid = !best_pid; v = !best_v })
    ~classify:(function
      | Wb_ack { rid = rid'; node } when rid' = wbid -> Some node
      | _ -> None);
  respond t ~proc:reader ~op_id ~pseq
    ~result:(Some (V.Int !best_v))
    [ ("v", Obs.Json.Int !best_v) ];
  !best_v

let crash_node t ~node =
  (* the un-persisted stable-storage suffix dies with the node; remember
     how much was lost so the recovery path can tell restart from amnesia *)
  if not (Sched.crashed t.sched ~pid:(server_pid ~node)) then
    t.lost_at_crash.(node) <- Stable.crash t.stable ~node;
  Sched.crash t.sched ~pid:(server_pid ~node);
  (match Sched.status t.sched ~pid:node with
  | exception Invalid_argument _ -> () (* client fiber never spawned *)
  | _ -> Sched.crash t.sched ~pid:node);
  (* the network learns the destination died: in-flight mail is dropped
     now, later deliveries are dead-lettered instead of queueing forever *)
  Net.mark_dead t.net ~pid:(server_pid ~node);
  Net.drop_to t.net ~dst:(server_pid ~node)

(* the first code a restarted server runs: reload the durable register
   copy, then — unless recovery is unsafely skipped — run the
   state-transfer handshake before rejoining the protocol. *)
let recovering_server t node () =
  let me = server_pid ~node in
  let rep = t.replicas.(node) in
  (* volatile state died with the old incarnation: what survives is the
     durable prefix of the write-ahead log *)
  let sq, pid, v =
    match Stable.last_durable t.stable ~node with
    | Some r -> r
    | None -> (0, origin t.disc node, t.init_)
  in
  rep.sq <- sq;
  rep.pid <- pid;
  rep.v <- v;
  if t.unsafe_recovery_ then begin
    (* serve straight from the (possibly stale) durable copy.  If the
       crash lost acknowledged updates this replica rejoins quorums with
       rolled-back state — the seeded bug the recovery-sanity monitor
       flags. *)
    if t.lost_at_crash.(node) > 0 then Obs.Metrics.incr_h t.amnesia_c;
    ignore
      (emit_op t ~pid:me ~parent:(-1) "recover_unsafe"
         [
           ("node", Obs.Json.Int node);
           ("lost", Obs.Json.Int t.lost_at_crash.(node));
         ])
  end
  else begin
    Obs.Metrics.incr_h t.state_transfer_c;
    Obs.Metrics.observe_h t.quorum_need_h (float_of_int (majority t));
    t.recseq <- t.recseq + 1;
    let rid = t.recseq in
    let pseq =
      emit_op t ~pid:me ~parent:(-1) "state_transfer"
        [ ("node", Obs.Json.Int node) ]
    in
    Obs.Tracer.set_ctx (trc t) pseq;
    let payload = Rec_req { rid; node } in
    for peer = 0 to t.n_ - 1 do
      if peer <> node then send_to t ~src:me ~node:peer payload
    done;
    (* read back from a majority of the OTHER replicas: self-inclusion
       would let an amnesiac copy vouch for itself, while a majority of
       the others intersects every write quorum at a node that did not
       just lose state.  [seen.(node)] is pre-marked so resends skip
       self; [need] counts that mark, hence majority + 1. *)
    let seen = Array.make t.n_ false in
    seen.(node) <- true;
    let best_sq = ref rep.sq and best_pid = ref rep.pid in
    let best_v = ref rep.v in
    collect t ~pid:me ~parent:pseq ~need:(majority t + 1) ~seen ~payload
      ~classify:(function
        | Rec_reply { rid = rid'; node = peer; sq; pid; v } when rid' = rid ->
            if newer ~sq ~pid ~than_sq:!best_sq ~than_pid:!best_pid then begin
              best_sq := sq;
              best_pid := pid;
              best_v := v
            end;
            Some peer
        | _ -> None);
    (* adopt and immediately persist the transferred state: recovery
       always ends at a sync point, whatever the persist policy *)
    if newer ~sq:!best_sq ~pid:!best_pid ~than_sq:rep.sq ~than_pid:rep.pid
    then begin
      rep.sq <- !best_sq;
      rep.pid <- !best_pid;
      rep.v <- !best_v;
      Stable.append t.stable ~node (!best_sq, !best_pid, !best_v)
    end;
    Stable.persist t.stable ~node;
    emit_persist t ~parent:pseq ~node rep.sq;
    Obs.Tracer.set_ctx (trc t) (-1)
  end;
  server t node ()

let recover_node t ~node =
  let spid = server_pid ~node in
  Net.revive t.net ~pid:spid;
  ignore (Sched.restart t.sched ~pid:spid (recovering_server t node));
  Obs.Metrics.incr_h t.recoveries_c
