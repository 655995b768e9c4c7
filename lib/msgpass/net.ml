(* A message, in flight or delivered.  [deferrals] counts how often
   faults already deferred it (the reorder-window budget of
   Simkit.Faults).  [ev] is the flight-recorder sequence number of the
   send event (-1 when tracing is off): deliver events cite it as their
   causal parent, which is the message id that gives the exported trace
   its happens-before edges.  [inc] is the sender's incarnation number at
   send time (Sched.incarnation): it rides with the message into the
   mailbox so a quorum collector can tell a pre-crash ghost from a reply
   by the sender's current incarnation.  [dseq] is the deliver event's
   sequence number, set when the item reaches a mailbox (-1 untraced): a
   receive restores the causal context to "caused by this message".  The
   same record travels from the flight ring to the mailbox ring, so a
   delivery allocates nothing beyond it. *)
type 'a item = {
  src : int;
  dst : int;
  payload : 'a;
  mutable deferrals : int;
  ev : int;
  inc : int;
  mutable dseq : int;
}

(* A growable ring buffer, oldest first: the in-flight store and every
   mailbox.  push/pop/length are O(1) and [remove i] shifts only the
   shorter side, preserving the exact index semantics
   deliver_nth/deliver_one rely on (index i = i-th oldest, removal keeps
   the relative order of the rest).  Items are stored directly (no
   option box per push) and the capacity is 0 or a power of two, so an
   index is one mask.  A vacated slot is not cleared — there is no
   filler of type ['a] to clear it with — so it keeps its last item until
   a later push overwrites it: a ring pins at most its capacity in
   stale items. *)
module Dq = struct
  type 'a t = {
    mutable buf : 'a array; (* capacity 0 or a power of two *)
    mutable head : int; (* slot of the oldest element *)
    mutable len : int;
  }

  let create () = { buf = [||]; head = 0; len = 0 }
  let length t = t.len
  let[@inline] slot t i = (t.head + i) land (Array.length t.buf - 1)

  (* [x] is about to be pushed: it fills the fresh slots *)
  let grow t x =
    let cap = Array.length t.buf in
    let buf' = Array.make (if cap = 0 then 16 else 2 * cap) x in
    for i = 0 to t.len - 1 do
      buf'.(i) <- t.buf.(slot t i)
    done;
    t.buf <- buf';
    t.head <- 0

  let push_back t x =
    if t.len = Array.length t.buf then grow t x;
    t.buf.(slot t t.len) <- x;
    t.len <- t.len + 1

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Net: index out of bounds";
    t.buf.(slot t i)

  let pop_front t =
    let x = get t 0 in
    t.head <- slot t 1;
    t.len <- t.len - 1;
    x

  let remove t i =
    let x = get t i in
    if i < t.len - 1 - i then begin
      (* shift the prefix towards the tail, advance head *)
      for k = i downto 1 do
        t.buf.(slot t k) <- t.buf.(slot t (k - 1))
      done;
      t.head <- slot t 1
    end
    else
      for k = i to t.len - 2 do
        t.buf.(slot t k) <- t.buf.(slot t (k + 1))
      done;
    t.len <- t.len - 1;
    x

  let iter t f =
    for i = 0 to t.len - 1 do
      f (get t i)
    done

  let clear t =
    t.head <- 0;
    t.len <- 0

  (* keep elements satisfying [p], preserving order, in place; returns
     the removed count *)
  let keep_if t p =
    let kept = ref 0 in
    for i = 0 to t.len - 1 do
      let x = get t i in
      if p x then begin
        t.buf.(slot t !kept) <- x;
        incr kept
      end
    done;
    let removed = t.len - !kept in
    t.len <- !kept;
    removed
end

type 'a t = {
  sched : Simkit.Sched.t;
  n : int;
  flight : 'a item Dq.t; (* oldest first *)
  (* pid-indexed, grown on demand; each ring holds delivered items in
     delivery order *)
  mutable boxes : 'a item Dq.t array;
  mutable dead : int list; (* destinations whose mail is dead-lettered *)
  mutable faults : Simkit.Faults.t option;
  (* per-destination batching (see set_batching): a delivery attempt for
     destination d additionally coalesces up to [batch_max - 1] more
     in-flight messages to d found in the oldest [batch_window] flight
     positions.  Disabled (window 0 / max 1) by default. *)
  mutable batch_window : int;
  mutable batch_max : int;
  (* scratch for one attempt's coalesced flight indices, ascending;
     length [batch_max - 1] *)
  mutable batch_idx : int array;
  trc : Obs.Tracer.t;
  (* metric handles, resolved once at creation (hot-path discipline) *)
  sends_c : Obs.Metrics.Counter.t;
  attempts_c : Obs.Metrics.Counter.t;
  coalesced_c : Obs.Metrics.Counter.t;
  delivered_c : Obs.Metrics.Counter.t;
  dead_letters_c : Obs.Metrics.Counter.t;
  dropped_c : Obs.Metrics.Counter.t;
  f_dropped_c : Obs.Metrics.Counter.t;
  f_duplicated_c : Obs.Metrics.Counter.t;
  f_delayed_c : Obs.Metrics.Counter.t;
  in_flight_g : Obs.Metrics.Gauge.t;
  partition_g : Obs.Metrics.Gauge.t;
}

let create ~sched ~n =
  if n < 1 then invalid_arg "Net.create: n must be >= 1";
  let reg = Simkit.Sched.metrics sched in
  {
    sched;
    n;
    flight = Dq.create ();
    boxes = Array.init n (fun _ -> Dq.create ());
    dead = [];
    faults = None;
    batch_window = 0;
    batch_max = 1;
    batch_idx = [||];
    trc = Simkit.Sched.tracer sched;
    sends_c = Obs.Metrics.counter_h reg "net.sends";
    attempts_c = Obs.Metrics.counter_h reg "net.delivery_attempts";
    coalesced_c = Obs.Metrics.counter_h reg "net.batch.coalesced";
    delivered_c = Obs.Metrics.counter_h reg "net.delivered";
    dead_letters_c = Obs.Metrics.counter_h reg "net.dead_letters";
    dropped_c = Obs.Metrics.counter_h reg "net.dropped";
    f_dropped_c = Obs.Metrics.counter_h reg "net.faults.dropped";
    f_duplicated_c = Obs.Metrics.counter_h reg "net.faults.duplicated";
    f_delayed_c = Obs.Metrics.counter_h reg "net.faults.delayed";
    in_flight_g = Obs.Metrics.gauge_h reg "net.in_flight";
    partition_g = Obs.Metrics.gauge_h reg "net.faults.partition_active";
  }

let mailbox t pid =
  if pid < 0 then invalid_arg "Net: negative pid";
  let have = Array.length t.boxes in
  if pid >= have then
    t.boxes <-
      Array.init
        (Stdlib.max (pid + 1) (2 * have))
        (fun p -> if p < have then t.boxes.(p) else Dq.create ());
  t.boxes.(pid)

let metrics t = Simkit.Sched.metrics t.sched

let set_faults t f =
  if Simkit.Faults.affects_delivery (Simkit.Faults.plan f) then
    t.faults <- Some f

let faults t = t.faults

let set_batching t ~window ~max =
  if window < 0 then invalid_arg "Net.set_batching: window must be >= 0";
  if max < 1 then invalid_arg "Net.set_batching: max must be >= 1";
  t.batch_window <- window;
  t.batch_max <- max;
  t.batch_idx <- Array.make (max - 1) 0

let batching_active t = t.batch_window > 0 && t.batch_max > 1

let mark_dead t ~pid =
  if not (List.mem pid t.dead) then begin
    t.dead <- pid :: t.dead;
    (* mail already delivered to the dead process will never be read *)
    let q = mailbox t pid in
    if Dq.length q > 0 then begin
      Obs.Metrics.incr_h ~by:(Dq.length q) t.dead_letters_c;
      Dq.clear q
    end
  end

let is_dead t ~pid = List.mem pid t.dead

let revive t ~pid =
  if List.mem pid t.dead then begin
    t.dead <- List.filter (fun p -> p <> pid) t.dead;
    (* a recovering node boots with an empty mailbox: everything addressed
       to the old incarnation was dead-lettered while it was down *)
    Dq.clear (mailbox t pid)
  end

let note_in_flight t = Obs.Metrics.set_gauge_int_h t.in_flight_g (Dq.length t.flight)

let send t ~src ~dst payload =
  Obs.Metrics.incr_h t.sends_c;
  let ev =
    if Obs.Tracer.armed t.trc then
      Obs.Tracer.emit t.trc ~track:src
        ~args:[ ("dst", Obs.Json.Int dst) ]
        ~sim:(Simkit.Sched.steps t.sched) ~cat:"net" "send"
    else -1
  in
  Dq.push_back t.flight
    {
      src;
      dst;
      payload;
      deferrals = 0;
      ev;
      inc = Simkit.Sched.incarnation t.sched ~pid:src;
      dseq = -1;
    };
  note_in_flight t

let broadcast t ~src payload =
  for dst = 0 to t.n - 1 do
    send t ~src ~dst payload
  done

(* pop the oldest item of a non-empty mailbox: what the receiving process
   does next is caused by this message *)
let take t q =
  let it = Dq.pop_front q in
  if it.dseq >= 0 then Obs.Tracer.set_ctx t.trc it.dseq;
  it

let try_recv t ~pid =
  let q = mailbox t pid in
  if Dq.length q = 0 then None else Some (take t q).payload

let recv t ~pid =
  let q = mailbox t pid in
  while Dq.length q = 0 do
    Simkit.Fiber.yield ()
  done;
  (take t q).payload

let in_flight t = Dq.length t.flight

let mailbox_size t ~pid =
  if pid >= 0 && pid < Array.length t.boxes then Dq.length t.boxes.(pid)
  else 0

(* Every fate of a delivery attempt (deliver, dead_letter, drop) is
   recorded against the send event [it.ev] — the happens-before edge the
   exporters draw.  Returns the event's seq, -1 when tracing is off. *)
let fate t it name =
  if Obs.Tracer.armed t.trc then
    Obs.Tracer.emit t.trc ~track:it.dst ~parent:it.ev
      ~args:[ ("src", Obs.Json.Int it.src) ]
      ~sim:(Simkit.Sched.steps t.sched) ~cat:"net" name
  else -1

let enqueue t it =
  Obs.Metrics.incr_h t.delivered_c;
  it.dseq <- fate t it "deliver";
  Dq.push_back (mailbox t it.dst) it

let dead_letter t it =
  Obs.Metrics.incr_h t.dead_letters_c;
  ignore (fate t it "dead_letter")

(* The single point where an in-flight message reaches a mailbox: dead
   destinations and the fault policy are applied here, so every delivery
   path (deliver_nth/_one/_now/_from, batched or not) behaves
   identically.  A deferral, duplication or partition hold pushes the
   item (back) onto the flight tail.  Top-level helpers only: this runs
   once per delivered message and builds no closures. *)
let deliver_item t it =
  if is_dead t ~pid:it.dst then dead_letter t it
  else begin
    match t.faults with
    | None -> enqueue t it
    | Some f ->
        let step = Simkit.Sched.steps t.sched in
        Obs.Metrics.set_gauge_h t.partition_g
          (if Simkit.Faults.partition_active f ~step then 1. else 0.);
        if Simkit.Faults.partitioned f ~step ~src:it.src ~dst:it.dst then begin
          (* held until the partition heals; does not consume a draw or
             the message's deferral budget *)
          Obs.Metrics.incr_h t.f_delayed_c;
          Dq.push_back t.flight it
        end
        else begin
          match Simkit.Faults.draw f ~deferrals:it.deferrals with
          | Simkit.Faults.Drop ->
              Obs.Metrics.incr_h t.f_dropped_c;
              ignore (fate t it "drop")
          | Simkit.Faults.Defer ->
              it.deferrals <- it.deferrals + 1;
              Obs.Metrics.incr_h t.f_delayed_c;
              Dq.push_back t.flight it
          | Simkit.Faults.Duplicate ->
              Obs.Metrics.incr_h t.f_duplicated_c;
              (* the copy stays in flight; the original goes to the
                 mailbox (enqueue stamps its deliver event) *)
              let copy = { it with dseq = -1 } in
              enqueue t it;
              Dq.push_back t.flight copy
          | Simkit.Faults.Deliver -> enqueue t it
        end
  end

(* Fill [t.batch_idx] with the flight indices, ascending, of up to
   [batch_max - 1] messages to [dst] among the oldest [batch_window]
   positions; returns how many it found. *)
let scan_batch t ~dst =
  let limit = Stdlib.min (Dq.length t.flight) t.batch_window in
  let found = ref 0 and j = ref 0 in
  while !found < t.batch_max - 1 && !j < limit do
    if (Dq.get t.flight !j).dst = dst then begin
      t.batch_idx.(!found) <- !j;
      incr found
    end;
    incr j
  done;
  !found

(* One delivery attempt: deliver the i-th oldest in-flight message and —
   when batching is on — coalesce same-destination messages found among
   the oldest [batch_window] flight positions into the same attempt, up
   to [batch_max] messages total, processed oldest-first.  Every
   coalesced message still runs the full per-message fate logic (dead
   destination, partition hold, its own fault draw), so batching changes
   how many messages one attempt moves, never the per-message fault
   discipline.  The batch is chosen before any fate runs, so a deferral
   or duplication re-push is never re-scanned within the attempt that
   produced it.  The coalesced items leave the flight ring after their
   fates, youngest first: a fate only pushes onto the tail, beyond every
   scanned index, so the indices stay valid and the ring ends in the
   same order as if the batch had been unhooked first. *)
let deliver_nth t i =
  if i < 0 || i >= Dq.length t.flight then invalid_arg "Net.deliver_nth";
  Obs.Metrics.incr_h t.attempts_c;
  let it = Dq.remove t.flight i in
  let found = if batching_active t then scan_batch t ~dst:it.dst else 0 in
  deliver_item t it;
  for k = 0 to found - 1 do
    Obs.Metrics.incr_h t.coalesced_c;
    deliver_item t (Dq.get t.flight t.batch_idx.(k))
  done;
  for k = found - 1 downto 0 do
    ignore (Dq.remove t.flight t.batch_idx.(k))
  done;
  note_in_flight t

let deliver_one t ~rng =
  match Dq.length t.flight with
  | 0 -> false
  | n ->
      deliver_nth t (Simkit.Rng.int rng n);
      true

(* the oldest in-flight index to [dst] (and from [src] unless
   [any_src]), -1 if none *)
let rec find_oldest t ~any_src ~src ~dst i =
  if i >= Dq.length t.flight then -1
  else
    let it = Dq.get t.flight i in
    if it.dst = dst && (any_src || it.src = src) then i
    else find_oldest t ~any_src ~src ~dst (i + 1)

let deliver_oldest t ~any_src ~src ~dst =
  match find_oldest t ~any_src ~src ~dst 0 with
  | -1 -> false
  | i ->
      deliver_nth t i;
      true

let deliver_now t ~dst = deliver_oldest t ~any_src:true ~src:0 ~dst
let deliver_from t ~src ~dst = deliver_oldest t ~any_src:false ~src ~dst

let deliver_all t =
  (* end-of-experiment flush: bypasses the fault policy (a drain must
     terminate whatever the plan), but still respects dead destinations *)
  Dq.iter t.flight (fun it ->
      if is_dead t ~pid:it.dst then dead_letter t it else enqueue t it);
  Dq.clear t.flight;
  note_in_flight t

let drop_to t ~dst =
  if Obs.Tracer.armed t.trc then
    Dq.iter t.flight (fun it -> if it.dst = dst then ignore (fate t it "drop"));
  let removed = Dq.keep_if t.flight (fun it -> it.dst <> dst) in
  Obs.Metrics.incr_h ~by:removed t.dropped_c;
  note_in_flight t

let auto_deliver_policy t ~rng inner s =
  if in_flight t > 0 && Simkit.Rng.bool rng then ignore (deliver_one t ~rng);
  inner s

(* ----- quorum collection (the hardened client loop) ------------------------- *)

let collect_quorum t ~pid ~need ~seen ~classify ~stale ~retry_after ~resend =
  let count = ref 0 in
  Array.iter (fun b -> if b then incr count) seen;
  let idle = ref 0 in
  let q = mailbox t pid in
  while !count < need do
    if Dq.length q > 0 then begin
      let it = take t q in
      idle := 0;
      (* the incarnation rule: a reply stamped with an older incarnation
         of its sender was produced before that sender crashed — its
         state may predate what the recovered incarnation re-promised,
         so it can never count toward a post-recovery quorum *)
      if it.inc <> Simkit.Sched.incarnation t.sched ~pid:it.src then stale ()
      else
        match classify it.payload with
        | Some node when node >= 0 && node < Array.length seen ->
            if not seen.(node) then begin
              seen.(node) <- true;
              incr count
            end
            (* duplicate reply from a counted node: idempotent, ignore *)
        | Some _ | None -> stale ()
    end
    else begin
      Simkit.Fiber.yield ();
      incr idle;
      if retry_after > 0 && !idle >= retry_after then begin
        idle := 0;
        let missing = ref [] in
        for node = Array.length seen - 1 downto 0 do
          if not seen.(node) then missing := node :: !missing
        done;
        resend ~missing:!missing
      end
    end
  done

(* ----- diagnostics / watchdog ------------------------------------------------ *)

let describe t =
  let b = Buffer.create 128 in
  Printf.bprintf b "net: %d in flight" (Dq.length t.flight);
  if Dq.length t.flight > 0 then begin
    Buffer.add_string b " [";
    let first = ref true in
    Dq.iter t.flight (fun it ->
        if not !first then Buffer.add_string b ", ";
        first := false;
        Printf.bprintf b "%d->%d%s" it.src it.dst
          (if it.deferrals > 0 then Printf.sprintf "(x%d)" it.deferrals
           else ""));
    Buffer.add_string b "]"
  end;
  let boxes = ref [] in
  for pid = Array.length t.boxes - 1 downto 0 do
    let k = Dq.length t.boxes.(pid) in
    if k > 0 then boxes := (pid, k) :: !boxes
  done;
  let boxes = !boxes in
  Buffer.add_string b "\nmailboxes:";
  if boxes = [] then Buffer.add_string b " (all empty)"
  else
    List.iter (fun (pid, n) -> Printf.bprintf b " p%d:%d" pid n) boxes;
  if t.dead <> [] then begin
    Buffer.add_string b "\ndead:";
    List.iter (Printf.bprintf b " p%d") (List.sort Int.compare t.dead)
  end;
  Buffer.contents b

let progress_counters =
  [
    "net.delivered";
    "net.sends";
    "net.dead_letters";
    "net.faults.dropped";
    "net.faults.delayed";
    "net.faults.duplicated";
    "trace.responds";
    (* crash–recovery work is progress too: a recovery storm (restarts
       plus state-transfer rounds) must not read as a livelock *)
    "sched.restarts";
    "reg.abd.state_transfer";
    "reg.mwabd.state_transfer";
  ]

let watchdog ?(window = 5_000) t =
  let reg = metrics t in
  {
    Simkit.Sched.window;
    progress =
      (fun () ->
        List.fold_left
          (fun acc name -> acc + Obs.Metrics.counter reg name)
          0 progress_counters);
    describe = (fun () -> describe t);
  }
