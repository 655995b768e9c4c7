(* Tests for the deterministic fault-injection layer: Simkit.Faults plans
   and draws, Net's fault policy and dead-letter handling, the scheduler
   watchdog, and end-to-end determinism + termination of the retransmitting
   ABD registers under faults. *)

module Sched = Core.Sched
module Net = Core.Net
module Faults = Core.Faults
module Runs = Core.Abd_runs

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let plan ?(drop = 0.) ?(dup = 0.) ?(delay = 0.) ?(delay_bound = 0)
    ?(crash_at = []) ?(recover_at = []) ?(partitions = []) () =
  {
    Faults.drop;
    duplicate = dup;
    delay;
    delay_bound;
    crash_at;
    recover_at;
    partitions;
  }

(* ----- plans and draws ------------------------------------------------------ *)

let faults_tests =
  [
    tc "validate rejects malformed plans" (fun () ->
        let bad p = try Faults.validate p; false with Invalid_argument _ -> true in
        check_bool "prob > 1" true (bad (plan ~drop:1.5 ()));
        check_bool "negative prob" true (bad (plan ~dup:(-0.1) ()));
        check_bool "sum > 1" true (bad (plan ~drop:0.5 ~dup:0.6 ()));
        check_bool "delay without bound" true (bad (plan ~delay:0.2 ()));
        check_bool "negative crash step" true
          (bad (plan ~crash_at:[ (-1, 3) ] ()));
        check_bool "benign ok" true (not (bad Faults.none));
        check_bool "mixed ok" true
          (not (bad (plan ~drop:0.2 ~dup:0.1 ~delay:0.1 ~delay_bound:4 ()))));
    tc "validate rejects bad partition intervals" (fun () ->
        let bad p = try Faults.validate p; false with Invalid_argument _ -> true in
        check_bool "negative start" true
          (bad (plan ~partitions:[ (-5, 10, [ 1 ]) ] ()));
        check_bool "inverted (non-positive length)" true
          (bad (plan ~partitions:[ (10, 0, [ 1 ]) ] ()));
        check_bool "empty isolated set" true
          (bad (plan ~partitions:[ (10, 5, []) ] ()));
        check_bool "overlapping intervals" true
          (bad (plan ~partitions:[ (0, 100, [ 1 ]); (50, 100, [ 2 ]) ] ()));
        check_bool "touching intervals ok" true
          (not (bad (plan ~partitions:[ (0, 50, [ 1 ]); (50, 50, [ 2 ]) ] ())));
        check_bool "unsorted but disjoint ok" true
          (not (bad (plan ~partitions:[ (100, 10, [ 2 ]); (0, 10, [ 1 ]) ] ()))));
    tc "plans round-trip through JSON and reject malformed input" (fun () ->
        let p =
          plan ~drop:0.1 ~dup:0.05 ~delay:0.2 ~delay_bound:4
            ~crash_at:[ (150, 3); (300, 4) ]
            ~partitions:[ (10, 40, [ 0; 2 ]) ]
            ()
        in
        (match Faults.plan_of_json (Faults.plan_json p) with
        | Ok p' -> check_bool "round-trip" true (p = p')
        | Error e -> Alcotest.fail e);
        (match Faults.plan_of_json (Faults.plan_json Faults.none) with
        | Ok p' -> check_bool "benign round-trip" true (p' = Faults.none)
        | Error e -> Alcotest.fail e);
        (* the parser re-validates: a hand-edited corpus entry cannot
           smuggle in an illegal plan *)
        let evil = Faults.plan_json (plan ()) in
        let evil =
          match evil with
          | Obs.Json.Obj fields ->
              Obs.Json.Obj
                (List.map
                   (function
                     | "drop", _ -> ("drop", Obs.Json.Float 2.5)
                     | kv -> kv)
                   fields)
          | _ -> assert false
        in
        check_bool "illegal probability rejected" true
          (Result.is_error (Faults.plan_of_json evil)));
    tc "shrink_plan descends one axis at a time" (fun () ->
        let p =
          plan ~drop:0.1 ~delay:0.05 ~delay_bound:4
            ~crash_at:[ (150, 3); (300, 4) ]
            ~partitions:[ (10, 40, [ 0 ]) ]
            ()
        in
        let cands = Faults.shrink_plan p in
        List.iter Faults.validate cands;
        check_bool "drop steps down the ladder" true
          (List.exists (fun q -> q.Faults.drop = 0.05 && q.Faults.delay = 0.05) cands);
        check_bool "crash entries dropped one at a time" true
          (List.exists (fun q -> q.Faults.crash_at = [ (300, 4) ]) cands
          && List.exists (fun q -> q.Faults.crash_at = [ (150, 3) ]) cands);
        check_bool "partition dropped" true
          (List.exists (fun q -> q.Faults.partitions = []) cands);
        check_bool "benign has no candidates" true
          (Faults.shrink_plan Faults.none = []));
    tc "none is benign; delivery-affecting is detected" (fun () ->
        check_bool "benign" true (Faults.is_benign Faults.none);
        check_bool "no delivery effect" false
          (Faults.affects_delivery Faults.none);
        check_bool "crash-only is not benign" false
          (Faults.is_benign (plan ~crash_at:[ (10, 3) ] ()));
        check_bool "crash-only does not affect delivery" false
          (Faults.affects_delivery (plan ~crash_at:[ (10, 3) ] ()));
        check_bool "drop affects delivery" true
          (Faults.affects_delivery (plan ~drop:0.1 ())));
    tc "same seed gives the same action stream" (fun () ->
        let p = plan ~drop:0.3 ~dup:0.2 ~delay:0.2 ~delay_bound:3 () in
        let stream () =
          let f = Faults.create ~seed:7L p in
          List.init 200 (fun _ -> Faults.draw f ~deferrals:0)
        in
        check_bool "identical" true (stream () = stream ()));
    tc "extreme probabilities behave as advertised" (fun () ->
        let all p deferrals =
          let f = Faults.create ~seed:3L p in
          List.init 100 (fun _ -> Faults.draw f ~deferrals)
        in
        check_bool "drop=1 always drops" true
          (List.for_all (( = ) Faults.Drop) (all (plan ~drop:1. ()) 0));
        check_bool "dup=1 always duplicates" true
          (List.for_all (( = ) Faults.Duplicate) (all (plan ~dup:1. ()) 0));
        let d = plan ~delay:1. ~delay_bound:2 () in
        check_bool "delay=1 defers under the bound" true
          (List.for_all (( = ) Faults.Defer) (all d 0));
        check_bool "delay=1 delivers at the bound" true
          (List.for_all (( = ) Faults.Deliver) (all d 2)));
    tc "partitions cut exactly one side during the interval" (fun () ->
        let f =
          Faults.create (plan ~partitions:[ (10, 5, [ 1; 2 ]) ] ())
        in
        check_bool "across the cut" true
          (Faults.partitioned f ~step:10 ~src:1 ~dst:3);
        check_bool "both isolated" false
          (Faults.partitioned f ~step:12 ~src:1 ~dst:2);
        check_bool "both outside" false
          (Faults.partitioned f ~step:12 ~src:3 ~dst:4);
        check_bool "before" false (Faults.partitioned f ~step:9 ~src:1 ~dst:3);
        check_bool "after" false (Faults.partitioned f ~step:15 ~src:1 ~dst:3);
        check_bool "active" true (Faults.partition_active f ~step:14);
        check_bool "inactive" false (Faults.partition_active f ~step:15));
    tc "crashes_due releases each node once, by step" (fun () ->
        let f =
          Faults.create (plan ~crash_at:[ (30, 4); (10, 3) ] ())
        in
        check_bool "nothing early" true (Faults.crashes_due f ~step:5 = []);
        check_bool "first due" true (Faults.crashes_due f ~step:10 = [ 3 ]);
        check_bool "not twice" true (Faults.crashes_due f ~step:20 = []);
        check_bool "second due" true (Faults.crashes_due f ~step:99 = [ 4 ]);
        check_bool "drained" true (Faults.crashes_due f ~step:999 = []));
    tc "validate demands crash/recover alternation per node" (fun () ->
        let bad p = try Faults.validate p; false with Invalid_argument _ -> true in
        check_bool "paired ok" true
          (not (bad (plan ~crash_at:[ (10, 3) ] ~recover_at:[ (50, 3) ] ())));
        check_bool "crash-recover-crash ok" true
          (not
             (bad
                (plan
                   ~crash_at:[ (10, 3); (100, 3) ]
                   ~recover_at:[ (50, 3) ]
                   ())));
        check_bool "recovery of a never-crashed node" true
          (bad (plan ~recover_at:[ (50, 3) ] ()));
        check_bool "recovery before its crash" true
          (bad (plan ~crash_at:[ (50, 3) ] ~recover_at:[ (10, 3) ] ()));
        check_bool "recovery at the crash step" true
          (bad (plan ~crash_at:[ (50, 3) ] ~recover_at:[ (50, 3) ] ()));
        check_bool "double recovery" true
          (bad (plan ~crash_at:[ (10, 3) ] ~recover_at:[ (50, 3); (60, 3) ] ()));
        check_bool "double crash without recovery" true
          (bad (plan ~crash_at:[ (10, 3); (20, 3) ] ()));
        check_bool "negative recovery step" true
          (bad (plan ~crash_at:[ (10, 3) ] ~recover_at:[ (-1, 3) ] ())));
    tc "recovery plans round-trip through JSON; old entries default" (fun () ->
        let p =
          plan
            ~crash_at:[ (150, 3); (300, 4) ]
            ~recover_at:[ (400, 3); (500, 4) ]
            ()
        in
        (match Faults.plan_of_json (Faults.plan_json p) with
        | Ok p' -> check_bool "round-trip" true (p = p')
        | Error e -> Alcotest.fail e);
        (* a plan serialized before the crash-recovery model has no
           "recover_at" field: it must parse to an empty schedule *)
        let old =
          match Faults.plan_json (plan ~crash_at:[ (10, 3) ] ()) with
          | Obs.Json.Obj fields ->
              Obs.Json.Obj (List.filter (fun (k, _) -> k <> "recover_at") fields)
          | _ -> assert false
        in
        match Faults.plan_of_json old with
        | Ok p' -> check_bool "defaults to []" true (p'.Faults.recover_at = [])
        | Error e -> Alcotest.fail e);
    tc "shrinking a crash drops its paired recovery" (fun () ->
        let p =
          plan
            ~crash_at:[ (150, 3); (300, 4) ]
            ~recover_at:[ (400, 3); (500, 4) ]
            ()
        in
        let cands = Faults.shrink_plan p in
        List.iter Faults.validate cands;
        check_bool "pair (3) dropped together" true
          (List.exists
             (fun q ->
               q.Faults.crash_at = [ (300, 4) ]
               && q.Faults.recover_at = [ (500, 4) ])
             cands);
        check_bool "pair (4) dropped together" true
          (List.exists
             (fun q ->
               q.Faults.crash_at = [ (150, 3) ]
               && q.Faults.recover_at = [ (400, 3) ])
             cands);
        check_bool "a recovery alone can be dropped" true
          (List.exists
             (fun q ->
               q.Faults.crash_at = p.Faults.crash_at
               && q.Faults.recover_at = [ (500, 4) ])
             cands));
    tc "recoveries_due releases each node once, by step" (fun () ->
        let f =
          Faults.create
            (plan
               ~crash_at:[ (5, 3); (5, 4) ]
               ~recover_at:[ (30, 4); (10, 3) ]
               ())
        in
        check_bool "nothing early" true (Faults.recoveries_due f ~step:7 = []);
        check_bool "first due" true (Faults.recoveries_due f ~step:10 = [ 3 ]);
        check_bool "not twice" true (Faults.recoveries_due f ~step:20 = []);
        check_bool "second due" true (Faults.recoveries_due f ~step:99 = [ 4 ]);
        check_bool "drained" true (Faults.recoveries_due f ~step:999 = []));
  ]

(* ----- the network under faults -------------------------------------------- *)

let net_fault_tests =
  [
    tc "drop=1 loses every delivery attempt; deliver_all bypasses" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.set_faults net (Faults.create (plan ~drop:1. ()));
        Net.send net ~src:0 ~dst:1 7;
        check_bool "attempted" true (Net.deliver_now net ~dst:1);
        check_int "dropped, not delivered" 0 (Net.mailbox_size net ~pid:1);
        check_int "counted" 1 (Obs.Metrics.counter metrics "net.faults.dropped");
        Net.send net ~src:0 ~dst:1 8;
        Net.deliver_all net;
        check_int "drain is fault-free" 1 (Net.mailbox_size net ~pid:1));
    tc "dup=1 delivers and re-enqueues a copy" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.set_faults net (Faults.create (plan ~dup:1. ()));
        Net.send net ~src:0 ~dst:1 9;
        check_bool "attempted" true (Net.deliver_now net ~dst:1);
        check_int "delivered once" 1 (Net.mailbox_size net ~pid:1);
        check_int "copy still in flight" 1 (Net.in_flight net);
        check_int "counted" 1
          (Obs.Metrics.counter metrics "net.faults.duplicated"));
    tc "deferrals are bounded by delay_bound" (fun () ->
        let sched = Sched.create ~metrics:(Obs.Metrics.create ()) () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.set_faults net (Faults.create (plan ~delay:1. ~delay_bound:3 ()));
        Net.send net ~src:0 ~dst:1 5;
        (* 3 deferrals allowed, the 4th attempt must deliver *)
        let attempts = ref 0 in
        while Net.mailbox_size net ~pid:1 = 0 do
          incr attempts;
          ignore (Net.deliver_now net ~dst:1)
        done;
        check_int "bound + 1 attempts" 4 !attempts);
    tc "a crash-only plan is not attached at all" (fun () ->
        let sched = Sched.create ~metrics:(Obs.Metrics.create ()) () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.set_faults net (Faults.create (plan ~crash_at:[ (5, 1) ] ()));
        check_bool "benign fast path" true (Net.faults net = None));
    tc "partitioned messages are held, then flow after healing" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        (* partition {1} away for the first 4 scheduler steps *)
        Net.set_faults net
          (Faults.create (plan ~partitions:[ (0, 4, [ 1 ]) ] ()));
        Sched.spawn sched ~pid:2 (fun () ->
            while true do
              Core.Fiber.yield ()
            done);
        Net.send net ~src:0 ~dst:1 11;
        check_bool "attempt while cut" true (Net.deliver_now net ~dst:1);
        check_int "held" 0 (Net.mailbox_size net ~pid:1);
        check_int "still in flight" 1 (Net.in_flight net);
        for _ = 1 to 4 do
          ignore (Sched.step sched ~pid:2)
        done;
        check_bool "attempt after healing" true (Net.deliver_now net ~dst:1);
        check_int "delivered" 1 (Net.mailbox_size net ~pid:1));
    tc "mark_dead dead-letters queued and future mail" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        Net.send net ~src:0 ~dst:1 1;
        ignore (Net.deliver_now net ~dst:1);
        check_int "queued" 1 (Net.mailbox_size net ~pid:1);
        Net.mark_dead net ~pid:1;
        check_bool "dead" true (Net.is_dead net ~pid:1);
        check_int "queue purged" 0 (Net.mailbox_size net ~pid:1);
        Net.send net ~src:0 ~dst:1 2;
        ignore (Net.deliver_now net ~dst:1);
        check_int "future mail dropped" 0 (Net.mailbox_size net ~pid:1);
        check_int "both counted" 2
          (Obs.Metrics.counter metrics "net.dead_letters");
        (* idempotent *)
        Net.mark_dead net ~pid:1;
        check_int "no double count" 2
          (Obs.Metrics.counter metrics "net.dead_letters"));
    tc "ring buffer preserves FIFO per destination across growth" (fun () ->
        let sched = Sched.create ~metrics:(Obs.Metrics.create ()) () in
        let net : int Net.t = Net.create ~sched ~n:3 in
        (* push enough to force several buffer growths, interleaving dsts *)
        for i = 1 to 100 do
          Net.send net ~src:0 ~dst:(i mod 2) i
        done;
        Net.drop_to net ~dst:0;
        check_int "half left" 50 (Net.in_flight net);
        let got = ref [] in
        while Net.deliver_now net ~dst:1 do
          ()
        done;
        let rec drain () =
          match Net.try_recv net ~pid:1 with
          | Some v ->
              got := v :: !got;
              drain ()
          | None -> ()
        in
        drain ();
        let expect = List.init 50 (fun i -> (2 * (49 - i)) + 1) in
        check_bool "oldest-first order kept" true (!got = expect));
  ]

(* ----- the flight and mailbox rings against a list model --------------------- *)

(* Every message gets a unique id, used as its payload and as its [src]
   (any int is a valid sender), so [Net.describe]'s "src->dst" list is
   the exact flight order and [deliver_from] picks one message by id.
   The model keeps the flight as an oldest-first list and each mailbox as
   a list; delivery, batching, dead-lettering and receives are replayed
   on it by their documented rules.  Destinations include pid 300, above
   every pid the net was created with, so the mailbox table grows. *)
let ring_model seed =
  let sched = Sched.create ~metrics:(Obs.Metrics.create ()) () in
  let net : int Net.t = Net.create ~sched ~n:3 in
  let rng = Core.Rng.create seed in
  let dsts = [| 0; 1; 2; 7; 300 |] in
  let flight = ref [] (* (id, dst), oldest first *) in
  let boxes = Hashtbl.create 8 in
  let box d = Option.value (Hashtbl.find_opt boxes d) ~default:[] in
  let dead = ref [] in
  let window = ref 0 and max_ = ref 1 in
  let next_id = ref 1000 in
  let deliver i =
    let rec split k = function
      | [] -> invalid_arg "model: index"
      | x :: rest when k = 0 -> (x, rest)
      | x :: rest ->
          let y, rest' = split (k - 1) rest in
          (y, x :: rest')
    in
    let ((_, dst) as it), rest = split i !flight in
    (* coalesce: up to max-1 more to [dst] among the oldest [window] *)
    let batch, rest =
      if !window > 0 && !max_ > 1 then begin
        let taken = ref 0 in
        let b, r =
          List.partition
            (fun (k, (_, d)) ->
              if k < !window && d = dst && !taken < !max_ - 1 then begin
                incr taken;
                true
              end
              else false)
            (List.mapi (fun k x -> (k, x)) rest)
        in
        (List.map snd b, List.map snd r)
      end
      else ([], rest)
    in
    flight := rest;
    List.iter
      (fun (id, d) ->
        if not (List.mem d !dead) then Hashtbl.replace boxes d (box d @ [ id ]))
      (it :: batch)
  in
  let oldest p =
    let rec go k = function
      | [] -> None
      | x :: rest -> if p x then Some k else go (k + 1) rest
    in
    go 0 !flight
  in
  let check what =
    let expect =
      let n = List.length !flight in
      Printf.sprintf "net: %d in flight%s" n
        (if n = 0 then ""
         else
           " ["
           ^ String.concat ", "
               (List.map (fun (id, d) -> Printf.sprintf "%d->%d" id d) !flight)
           ^ "]")
    in
    let got = List.hd (String.split_on_char '\n' (Net.describe net)) in
    Alcotest.(check string) (what ^ ": flight order") expect got;
    check_int (what ^ ": in_flight") (List.length !flight) (Net.in_flight net);
    Array.iter
      (fun d ->
        check_int
          (Printf.sprintf "%s: mailbox %d" what d)
          (List.length (box d)) (Net.mailbox_size net ~pid:d))
      dsts
  in
  for step = 1 to 2000 do
    let what = Printf.sprintf "seed %Ld step %d" seed step in
    let n = List.length !flight in
    (* keep well over 16 in flight most of the time: the ring grows and
       its head wraps *)
    (match Core.Rng.int rng 20 with
    | k when k < 8 || n < 20 ->
        let id = !next_id and dst = dsts.(Core.Rng.int rng (Array.length dsts)) in
        incr next_id;
        Net.send net ~src:id ~dst id;
        flight := !flight @ [ (id, dst) ]
    | 8 | 9 | 10 ->
        (* a message from the front or the back half, by id *)
        let half = Core.Rng.int rng 2 in
        let i = (half * (n / 2)) + Core.Rng.int rng (n - (half * (n / 2))) in
        let id, dst = List.nth !flight i in
        check_bool (what ^ ": deliver_from") true
          (Net.deliver_from net ~src:id ~dst);
        deliver i
    | 11 | 12 ->
        let dst = dsts.(Core.Rng.int rng (Array.length dsts)) in
        let i = oldest (fun (_, d) -> d = dst) in
        check_bool (what ^ ": deliver_now") (i <> None) (Net.deliver_now net ~dst);
        Option.iter deliver i
    | 13 | 14 | 15 | 16 ->
        let d = dsts.(Core.Rng.int rng (Array.length dsts)) in
        let expect =
          match box d with
          | [] -> None
          | id :: rest ->
              Hashtbl.replace boxes d rest;
              Some id
        in
        Alcotest.(check (option int)) (what ^ ": try_recv") expect
          (Net.try_recv net ~pid:d)
    | 17 ->
        (* batching 8/8 on, or back off *)
        if !window = 0 then begin
          window := 8;
          max_ := 8
        end
        else begin
          window := 0;
          max_ := 1
        end;
        Net.set_batching net ~window:!window ~max:!max_
    | _ ->
        let d = dsts.(Core.Rng.int rng (Array.length dsts)) in
        if List.mem d !dead then begin
          Net.revive net ~pid:d;
          dead := List.filter (( <> ) d) !dead;
          Hashtbl.replace boxes d []
        end
        else begin
          Net.mark_dead net ~pid:d;
          dead := d :: !dead;
          Hashtbl.replace boxes d []
        end);
    check what
  done;
  (* a pid never addressed has an empty mailbox *)
  Alcotest.(check (option int)) "fresh pid" None (Net.try_recv net ~pid:999);
  check_int "fresh pid size" 0 (Net.mailbox_size net ~pid:999)

let ring_tests =
  [
    tc "flight and mailbox rings match a list model" (fun () ->
        List.iter ring_model [ 1L; 2L; 20261017L ]);
  ]

(* ----- the scheduler watchdog ------------------------------------------------ *)

let watchdog_tests =
  [
    tc "the watchdog fires on a hand-built livelock" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:2 in
        (* two fibers waiting on messages nobody will ever send *)
        Sched.spawn sched ~pid:0 (fun () -> ignore (Net.recv net ~pid:0));
        Sched.spawn sched ~pid:1 (fun () -> ignore (Net.recv net ~pid:1));
        let fired =
          try
            ignore
              (Sched.run sched
                 ~watchdog:(Net.watchdog ~window:50 net)
                 ~policy:Sched.round_robin ~max_steps:100_000);
            None
          with Sched.Stalled diag -> Some diag
        in
        (match fired with
        | None -> Alcotest.fail "watchdog did not fire"
        | Some diag ->
            let msg = Sched.stall_message diag in
            let has needle =
              let nl = String.length needle and dl = String.length msg in
              let rec go i =
                i + nl <= dl && (String.sub msg i nl = needle || go (i + 1))
              in
              go 0
            in
            check_bool "names the window" true (has "no progress for 50 steps");
            check_bool "lists fibers" true (has "p0: runnable");
            check_bool "includes the network state" true (has "mailboxes");
            (* the structured record carries the same facts *)
            check_int "window" 50 diag.Sched.window;
            check_bool "both fibers listed" true
              (List.length diag.Sched.fibers = 2);
            (* and it exports as structured JSON for the obs layer *)
            let j = Sched.stall_json diag in
            check_bool "kind" true
              (Obs.Json.member "kind" j = Some (Obs.Json.Str "stall"));
            check_bool "window field" true
              (Obs.Json.member "window" j = Some (Obs.Json.Int 50));
            check_bool "fibers field" true
              (match Option.bind (Obs.Json.member "fibers" j) Obs.Json.to_list_opt with
              | Some fs -> List.length fs = 2
              | None -> false));
        check_int "metric fired" 1
          (Obs.Metrics.counter metrics "sched.watchdog.fired"));
    tc "the watchdog stays quiet while messages flow" (fun () ->
        let metrics = Obs.Metrics.create () in
        let sched = Sched.create ~metrics () in
        let net : int Net.t = Net.create ~sched ~n:2 in
        (* a ping-pong pair: constant progress, never finishes *)
        let rec bounce me other () =
          match Net.try_recv net ~pid:me with
          | Some v ->
              Net.send net ~src:me ~dst:other (v + 1);
              Core.Fiber.yield ();
              bounce me other ()
          | None ->
              Core.Fiber.yield ();
              bounce me other ()
        in
        Sched.spawn sched ~pid:0 (bounce 0 1);
        Sched.spawn sched ~pid:1 (bounce 1 0);
        Net.send net ~src:0 ~dst:1 0;
        let rng = Core.Rng.create 5L in
        let policy = Net.auto_deliver_policy net ~rng Sched.round_robin in
        let steps =
          Sched.run sched
            ~watchdog:(Net.watchdog ~window:100 net)
            ~policy ~max_steps:5_000
        in
        check_int "ran the full budget without stalling" 5_000 steps;
        check_int "never fired" 0
          (Obs.Metrics.counter metrics "sched.watchdog.fired"));
  ]

(* ----- end-to-end: determinism and termination under faults ------------------ *)

let lossy_plan =
  plan ~drop:0.15 ~dup:0.05 ~delay:0.05 ~delay_bound:4 ()

let e2e_tests =
  [
    tc "same seed + same fault plan = byte-identical run" (fun () ->
        let w = { Runs.default with faults = lossy_plan; seed = 99L } in
        let snap () =
          let run = Runs.execute ~metrics:(Obs.Metrics.create ()) w in
          ( run.Runs.completed,
            run.Runs.steps,
            List.map Obs.Json.to_string
              (Core.Trace.json_entries run.Runs.trace) )
        in
        let c1, s1, t1 = snap () in
        let c2, s2, t2 = snap () in
        check_bool "completed" true (c1 && c2);
        check_int "same steps" s1 s2;
        check_bool "identical trace JSONL" true (t1 = t2));
    tc "different fault seeds diverge (the faults really fire)" (fun () ->
        let metrics = Obs.Metrics.create () in
        let w = { Runs.default with faults = lossy_plan; seed = 99L } in
        ignore (Runs.execute ~metrics w);
        check_bool "dropped something" true
          (Obs.Metrics.counter metrics "net.faults.dropped" > 0));
    tc "ABD terminates under every single-minority crash schedule" (fun () ->
        (* readers are nodes 1-2; every crashable subset of {3,4}, crashed
           at several points of the step clock, under lossy links *)
        List.iter
          (fun crash_at ->
            let w =
              {
                Runs.default with
                faults = { lossy_plan with Faults.crash_at };
                seed = 7L;
              }
            in
            let run = Runs.execute w in
            check_bool "completed" true run.Runs.completed;
            check_bool "no stall" true (run.Runs.stalled = None);
            check_bool "checks pass" true (Runs.check run = Ok ()))
          [
            [ (0, 3) ];
            [ (200, 4) ];
            [ (100, 3); (400, 4) ];
            [ (0, 3); (0, 4) ];
          ]);
    tc "MW-ABD terminates and stays linearizable under faults" (fun () ->
        let run =
          Runs.execute_config
            {
              Runs.Config.default with
              proto = Runs.Config.Mw;
              faults = { lossy_plan with Faults.crash_at = [ (150, 3) ] };
              n = 5;
              writers = [ 0; 1 ];
              writes_each = 2;
              readers = [ 2 ];
              reads_each = 2;
              seed = 11L;
            }
        in
        check_bool "completed" true run.Runs.completed;
        check_bool "linearizable" true
          (Core.Lincheck.check ~init:(Core.Value.Int 0) run.Runs.history));
    tc "ABD survives crash+recover schedules under lossy links" (fun () ->
        let metrics = Obs.Metrics.create () in
        let w =
          {
            Runs.default with
            faults =
              {
                lossy_plan with
                Faults.crash_at = [ (100, 3); (300, 4) ];
                recover_at = [ (250, 3); (450, 4) ];
              };
            seed = 23L;
          }
        in
        let run = Runs.execute ~metrics w in
        check_bool "completed" true run.Runs.completed;
        check_bool "no stall" true (run.Runs.stalled = None);
        check_bool "checks pass" true (Runs.check ~metrics run = Ok ());
        check_int "both nodes restarted" 2
          (Obs.Metrics.counter metrics "sched.restarts");
        check_int "one handshake per restart" 2
          (Obs.Metrics.counter metrics "reg.abd.state_transfer");
        check_int "no amnesia under write-through persistence" 0
          (Obs.Metrics.counter metrics "reg.abd.amnesia"));
    tc "recovery runs are byte-identical across executions" (fun () ->
        let w =
          {
            Runs.default with
            faults =
              {
                lossy_plan with
                Faults.crash_at = [ (100, 3) ];
                recover_at = [ (280, 3) ];
              };
            seed = 31L;
          }
        in
        let snap () =
          let run = Runs.execute ~metrics:(Obs.Metrics.create ()) w in
          ( run.Runs.completed,
            run.Runs.steps,
            List.map Obs.Json.to_string
              (Core.Trace.json_entries run.Runs.trace) )
        in
        check_bool "identical" true (snap () = snap ()));
    tc "crashing a majority via the plan is rejected" (fun () ->
        Alcotest.check_raises "majority"
          (Invalid_argument "Runs.execute: crash set must be a strict minority")
          (fun () ->
            ignore
              (Runs.execute
                 {
                   Runs.default with
                   faults =
                     {
                       Faults.none with
                       Faults.crash_at = [ (0, 2); (0, 3); (0, 4) ];
                     };
                 })));
    tc "stale replies are counted, quorums still distinct" (fun () ->
        (* duplication-heavy plan: every duplicated ack of a counted node
           is ignored for the quorum but the run still completes *)
        let metrics = Obs.Metrics.create () in
        let w =
          {
            Runs.default with
            faults = plan ~dup:0.3 ~delay:0.1 ~delay_bound:3 ();
            seed = 17L;
          }
        in
        let run = Runs.execute ~metrics w in
        check_bool "completed" true run.Runs.completed;
        check_bool "duplicates happened" true
          (Obs.Metrics.counter metrics "net.faults.duplicated" > 0);
        check_bool "checks pass" true (Runs.check ~metrics run = Ok ()));
  ]

let suite =
  [
    ("simkit.faults", faults_tests);
    ("msgpass.net.faults", net_fault_tests);
    ("msgpass.net.ring", ring_tests);
    ("simkit.watchdog", watchdog_tests);
    ("msgpass.faulty_runs", e2e_tests);
  ]
