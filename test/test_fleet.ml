(* The fleet engine: sharding, the generational client pool, delivery
   batching, and the determinism contract (reports byte-identical across
   -j, batching verdict-neutral).  Configs are small — hundreds of ops —
   so the whole suite stays quick; E15 exercises the scale end. *)

let tc name f = Alcotest.test_case name `Quick f
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let faults =
  {
    Core.Faults.none with
    Core.Faults.drop = 0.05;
    duplicate = 0.02;
    delay = 0.05;
    delay_bound = 4;
  }

let small =
  {
    Core.Fleet.default with
    Core.Fleet.shards = 3;
    slots = 3;
    ops = 600;
    session_len = 3;
    keys = 32;
    faults;
    seed = 42L;
    sample = 3;
  }

let report_str r = Core.Json.to_string (Core.Fleet.report_json r)

(* the report minus its config echo: what must coincide when two
   different configs are required to behave identically *)
let behaviour_str r =
  Core.Json.to_string
    (Core.Json.List (List.map Core.Fleet.shard_json r.Core.Fleet.shards_r))

let shard_tests =
  [
    tc "shard_of_key is total and in range" (fun () ->
        for k = 0 to 999 do
          let s = Core.Fleet.shard_of_key ~shards:7 k in
          check_bool "in range" true (s >= 0 && s < 7);
          check_int "stable" s (Core.Fleet.shard_of_key ~shards:7 k)
        done);
    tc "ops_per_shard accounts for every op" (fun () ->
        List.iter
          (fun (shards, ops, keys) ->
            let c =
              { small with Core.Fleet.shards; ops; keys; sample = 0 }
            in
            let per = Core.Fleet.ops_per_shard c in
            check_int "shard count" shards (Array.length per);
            check_int "sums to ops" ops (Array.fold_left ( + ) 0 per))
          [ (1, 100, 16); (3, 600, 32); (8, 1000, 5); (4, 7, 64) ]);
    tc "validate rejects ill-formed configs" (fun () ->
        let rejects c =
          match Core.Fleet.validate c with
          | () -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()
        in
        rejects { small with Core.Fleet.shards = 0 };
        rejects { small with Core.Fleet.n = 1 };
        rejects { small with Core.Fleet.n = 90; slots = 20 };
        rejects { small with Core.Fleet.write_ratio = 1.5 };
        rejects { small with Core.Fleet.session_len = 0 };
        rejects { small with Core.Fleet.sample = -1 };
        (* Sw: node 0 is the writer client and cannot crash *)
        rejects
          {
            small with
            Core.Fleet.faults =
              { faults with Core.Faults.crash_at = [ (50, 0) ] };
          };
        (* a crashed majority is rejected per shard like everywhere else *)
        rejects
          {
            small with
            Core.Fleet.faults =
              { faults with Core.Faults.crash_at = [ (50, 1); (60, 2) ] };
          })
  ]

let determinism_tests =
  [
    tc "reports are byte-identical across -j" (fun () ->
        let r1 = Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ()) small
        and r2 = Core.Fleet.run ~jobs:2 ~metrics:(Core.Metrics.create ()) small
        and r3 =
          Core.Fleet.run ~jobs:3 ~metrics:(Core.Metrics.create ()) small
        in
        Alcotest.(check string) "-j1 = -j2" (report_str r1) (report_str r2);
        Alcotest.(check string) "-j1 = -j3" (report_str r1) (report_str r3));
    tc "merged metrics are jobs-invariant" (fun () ->
        let counters jobs =
          let m = Core.Metrics.create () in
          ignore (Core.Fleet.run ~jobs ~metrics:m small);
          (Core.Metrics.snapshot m).Core.Metrics.counters
        in
        check_bool "counter multiset identical" true (counters 1 = counters 2));
    tc "disabled batching is inert whatever batch_max" (fun () ->
        (* batching is active only when window > 0 AND max > 1: with the
           window at 0 the batch_max knob must not perturb a single
           delivery draw *)
        let off1 =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 0; batch_max = 1 }
        and off8 =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 0; batch_max = 8 }
        and window_only =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 8; batch_max = 1 }
        in
        Alcotest.(check string) "batch_max 1 = 8 when window 0"
          (behaviour_str off1) (behaviour_str off8);
        Alcotest.(check string) "window without max is off too"
          (behaviour_str off1)
          (behaviour_str window_only));
  ]

let engine_tests =
  [
    tc "batching preserves verdicts and amortizes delivery" (fun () ->
        let unbatched =
          Core.Fleet.run ~metrics:(Core.Metrics.create ()) small
        in
        let batched =
          Core.Fleet.run ~metrics:(Core.Metrics.create ())
            { small with Core.Fleet.batch_window = 8; batch_max = 8 }
        in
        check_bool "unbatched completed" true unbatched.Core.Fleet.completed;
        check_bool "batched completed" true batched.Core.Fleet.completed;
        check_int "no unbatched check failures" 0
          unbatched.Core.Fleet.total_fails;
        check_int "no batched check failures" 0 batched.Core.Fleet.total_fails;
        check_int "same ops" unbatched.Core.Fleet.total_ops
          batched.Core.Fleet.total_ops;
        check_int "same sessions" unbatched.Core.Fleet.total_sessions
          batched.Core.Fleet.total_sessions;
        check_bool "fewer delivery attempts" true
          (batched.Core.Fleet.total_attempts
          < unbatched.Core.Fleet.total_attempts);
        check_bool "coalescing happened" true
          (batched.Core.Fleet.total_coalesced > 0);
        check_bool "attempts/op ordering" true
          (Core.Fleet.attempts_per_op batched
          < Core.Fleet.attempts_per_op unbatched));
    tc "generational pool: one-op sessions recycle every slot" (fun () ->
        let c = { small with Core.Fleet.session_len = 1; sample = 0 } in
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r.Core.Fleet.completed;
        (* every op is its own client session… *)
        check_int "sessions = ops" r.Core.Fleet.total_ops
          r.Core.Fleet.total_sessions;
        (* …and all but each slot's first occupant arrived via recycle *)
        let recycles =
          List.fold_left
            (fun a s -> a + s.Core.Fleet.recycles)
            0 r.Core.Fleet.shards_r
        in
        check_int "recycles = sessions - first occupants"
          (r.Core.Fleet.total_sessions
          - (c.Core.Fleet.shards * c.Core.Fleet.slots))
          recycles);
    tc "sampled shards stream-check clean" (fun () ->
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) small in
        check_bool "segments retired" true (r.Core.Fleet.total_segments > 0);
        check_int "no failures" 0 r.Core.Fleet.total_fails;
        List.iter
          (fun s ->
            check_bool "sampled iff below the sample count"
              (s.Core.Fleet.index < small.Core.Fleet.sample)
              s.Core.Fleet.sampled)
          r.Core.Fleet.shards_r);
    tc "mwabd fleet under crash + recovery completes clean" (fun () ->
        let c =
          {
            small with
            Core.Fleet.proto = Core.Fleet.Mw;
            slots = 4;
            ops = 400;
            faults =
              {
                faults with
                Core.Faults.crash_at = [ (300, 2) ];
                recover_at = [ (700, 2) ];
              };
          }
        in
        let r1 = Core.Fleet.run ~jobs:1 ~metrics:(Core.Metrics.create ()) c in
        let r2 = Core.Fleet.run ~jobs:2 ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r1.Core.Fleet.completed;
        check_int "no failures" 0 r1.Core.Fleet.total_fails;
        check_int "all ops ran" 400 r1.Core.Fleet.total_ops;
        Alcotest.(check string) "deterministic" (report_str r1) (report_str r2));
    tc "abd fleet rides out a replica crash + recovery" (fun () ->
        let c =
          {
            small with
            Core.Fleet.faults =
              {
                faults with
                Core.Faults.crash_at = [ (300, 2) ];
                recover_at = [ (700, 2) ];
              };
          }
        in
        let r = Core.Fleet.run ~metrics:(Core.Metrics.create ()) c in
        check_bool "completed" true r.Core.Fleet.completed;
        check_int "no failures" 0 r.Core.Fleet.total_fails;
        check_int "all ops ran" 600 r.Core.Fleet.total_ops);
  ]

(* An allocation ceiling on the fleet's per-op cost: the minor-heap words
   one [Fleet.run ~jobs:1] allocates on the bench's batched shape (2
   shards, 4000 ops, drop 0.05 / dup 0.02, batching 8/8, seed 10).  A
   scheduling decision allocates nothing, and a message allocates only
   its own item and payload: the live set and its [Step] decisions are
   cached arrays, RNG draws are unboxed, the flight store and the
   mailboxes are option-free rings, a fiber binds its yield closure
   once, and due crash/recovery checks and delivery fates build no lists
   or closures (DESIGN.md §12).  This shape allocates ~425 words/op on
   OCaml 5.1.1 (Sw 425, Mw 424); before the message path was made lean
   it took 1512 / 1587, and rebuilding the live list on every decision
   ~6800.  The ceiling of 1000 fails on either of those and leaves room
   for other compiler versions: a ceiling rather than an exact count,
   since the figure depends on the compiler. *)
let alloc_tests =
  let ceiling = 1000. in
  let words_per_op proto =
    let c =
      {
        Core.Fleet.default with
        Core.Fleet.proto;
        shards = 2;
        ops = 4_000;
        session_len = 4;
        keys = 64;
        faults =
          { Core.Faults.none with Core.Faults.drop = 0.05; duplicate = 0.02 };
        seed = 10L;
        sample = 1;
        batch_window = 8;
        batch_max = 8;
      }
    in
    let m = Core.Metrics.create () in
    let before = Gc.minor_words () in
    let r = Core.Fleet.run ~jobs:1 ~metrics:m c in
    let words = Gc.minor_words () -. before in
    check_bool "completed" true r.Core.Fleet.completed;
    words /. float_of_int c.Core.Fleet.ops
  in
  let under name proto =
    tc name (fun () ->
        let w = words_per_op proto in
        if not (w < ceiling) then
          Alcotest.failf "%.0f minor words/op, ceiling %.0f" w ceiling)
  in
  [
    under "abd fleet stays under the words/op ceiling" Core.Fleet.Sw;
    under "mwabd fleet stays under the words/op ceiling" Core.Fleet.Mw;
  ]

(* Exact executions pinned: the digest of a whole report for one small
   config per timestamp discipline, each with drop/dup faults, a replica
   crash + recovery and batching.  A change that means to keep every run
   identical (a refactor, a substrate speed-up) must leave these alone. *)
let golden_tests =
  let pinned name proto digest =
    tc name (fun () ->
        let c =
          {
            small with
            Core.Fleet.proto;
            shards = 2;
            slots = 4;
            ops = 800;
            sample = 2;
            batch_window = 8;
            batch_max = 8;
            faults =
              {
                faults with
                Core.Faults.crash_at = [ (300, 2) ];
                recover_at = [ (700, 2) ];
              };
            seed = 20260807L;
          }
        in
        let m = Core.Metrics.create () in
        let r = Core.Fleet.run ~metrics:m c in
        check_bool "completed" true r.Core.Fleet.completed;
        check_int "both shards recovered" 2
          (Core.Metrics.counter m "sched.restarts");
        Alcotest.(check string) "report digest" digest
          (Digest.to_hex (Digest.string (report_str r))))
  in
  [
    pinned "abd report is pinned" Core.Fleet.Sw "e2f12a7efc094466c01fa1a1f56502a0";
    pinned "mwabd report is pinned" Core.Fleet.Mw "e40c3145cf83327e94ba23859a221c5b";
  ]

let suite =
  [
    ("fleet.golden", golden_tests);
    ("fleet.sharding", shard_tests);
    ("fleet.determinism", determinism_tests);
    ("fleet.engine", engine_tests);
    ("fleet.alloc", alloc_tests);
  ]
