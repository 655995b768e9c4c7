(* Tests for lib/simkit: fibers (effects), scheduler, RNG, traces. *)

module Fiber = Core.Fiber
module Sched = Core.Sched
module Trace = Core.Trace
module Rng = Core.Rng
module Op = Core.Op

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- rng ------------------------------------------------------------------ *)

(* Known answers recorded from the boxed-[int64] SplitMix64 before its
   state moved into unboxed bytes: every seeded run in the repo (golden
   digests, chaos corpus, fleet reports) is a function of this stream,
   so any change to the representation must reproduce it exactly.  Seed
   0's first output is the published SplitMix64 reference value. *)
let rng_known_answers () =
  let check_stream what expect r =
    List.iteri
      (fun i x ->
        let got = Rng.next_int64 r in
        if got <> x then
          Alcotest.failf "%s: output %d is 0x%016LX, expected 0x%016LX" what i
            got x)
      expect
  in
  check_stream "seed 0"
    [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL;
      0xF88BB8A8724C81ECL; 0x1B39896A51A8749BL; 0x53CB9F0C747EA2EAL;
      0x2C829ABE1F4532E1L; 0xC584133AC916AB3CL; 0x3EE5789041C98AC3L;
      0xF3B8488C368CB0A6L; 0x657EECDD3CB13D09L; 0xC2D326E0055BDEF6L;
      0x8621A03FE0BBDB7BL; 0x8E1F7555983AA92FL; 0xB54E0F1600CC4D19L;
      0x84BB3F97971D80ABL ]
    (Rng.create 0L);
  check_stream "seed 1"
    [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL;
      0x71C18690EE42C90BL; 0x71BB54D8D101B5B9L; 0xC34D0BFF90150280L;
      0xE099EC6CD7363CA5L; 0x85E7BB0F12278575L; 0x491718DE357E3DA8L;
      0xCB435C8E74616796L; 0x6775DC7701564F61L; 0x9AFCD44D14CF8BFEL;
      0x7476CF8A4BAA5DC0L; 0x87B341D690D7A28AL; 0x6F9B6DAE6F4C57A8L;
      0x2AC2CE17A5794A3BL ]
    (Rng.create 1L);
  check_stream "seed 0x7E57AB1E"
    [ 0x92805DB45988B148L; 0xFA660CED0F72C084L; 0x58D607E1B7AC165FL;
      0x4857E4C4610D2219L; 0x1779A1BD3B752827L; 0x5B691EE2B617422CL;
      0xE7516DCEF8FF9583L; 0x154D334971195000L; 0xCBB940ED3C534684L;
      0xBD8D8DF701A7AF37L; 0x96B8A4B9E078D3BDL; 0x1ED9E4BB8CA3801DL;
      0x6B7824E48AA06AE1L; 0x5821D6B03694C06DL; 0x49A62DEB5EF199B8L;
      0x4F29A543F199E232L ]
    (Rng.create 0x7E57AB1EL);
  (* the derived draws, in sequence on one stream *)
  let r = Rng.create 0x7E57AB1EL in
  Alcotest.(check (list int)) "int 7" [ 2; 1; 6; 2; 4; 4; 2; 4 ]
    (List.init 8 (fun _ -> Rng.int r 7));
  Alcotest.(check (list (float 0.))) "float"
    [ 0x1.977281da78a68p-1; 0x1.7b1b1bee034f5p-1; 0x1.2d714973c0f1ap-1;
      0x1.ed9e4bb8ca38p-4 ]
    (List.init 4 (fun _ -> Rng.float r));
  Alcotest.(check (list bool)) "bool"
    [ true; true; false; false; true; false; true; false ]
    (List.init 8 (fun _ -> Rng.bool r));
  Alcotest.(check (list int)) "coin" [ 0; 0; 1; 1; 0; 1; 0; 1 ]
    (List.init 8 (fun _ -> Rng.coin r));
  (* split: the child's stream, then the parent's (advanced by one) *)
  let r = Rng.create 1L in
  let child = Rng.split r in
  check_stream "split child"
    [ 0x6EC85F1F8547BC0CL; 0x6CF63AFCC21A470AL; 0x8A27B94CFF7526AAL;
      0xD13756F65520A1ECL ]
    child;
  check_stream "split parent"
    [ 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL; 0x71C18690EE42C90BL;
      0x71BB54D8D101B5B9L ]
    r;
  (* copy: the copy and the original continue with the same outputs *)
  let c = Rng.copy r in
  let rest =
    [ 0xC34D0BFF90150280L; 0xE099EC6CD7363CA5L; 0x85E7BB0F12278575L;
      0x491718DE357E3DA8L ]
  in
  check_stream "copy" rest c;
  check_stream "original after copy" rest r

let rng_tests =
  [
    tc "deterministic for a seed" (fun () ->
        let a = Rng.create 42L and b = Rng.create 42L in
        for _ = 1 to 50 do
          check_bool "same" true (Rng.next_int64 a = Rng.next_int64 b)
        done);
    tc "different seeds diverge" (fun () ->
        let a = Rng.create 1L and b = Rng.create 2L in
        check_bool "diff" true (Rng.next_int64 a <> Rng.next_int64 b));
    tc "int respects bound" (fun () ->
        let r = Rng.create 7L in
        for _ = 1 to 200 do
          let x = Rng.int r 10 in
          check_bool "bound" true (x >= 0 && x < 10)
        done);
    tc "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "bound"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int (Rng.create 1L) 0)));
    tc "coin is fair-ish" (fun () ->
        let r = Rng.create 11L in
        let ones = ref 0 in
        for _ = 1 to 1000 do
          if Rng.coin r = 1 then incr ones
        done;
        check_bool "fair" true (!ones > 400 && !ones < 600));
    tc "split yields independent stream" (fun () ->
        let a = Rng.create 5L in
        let b = Rng.split a in
        check_bool "indep" true (Rng.next_int64 a <> Rng.next_int64 b));
    tc "copy preserves state" (fun () ->
        let a = Rng.create 9L in
        ignore (Rng.next_int64 a);
        let b = Rng.copy a in
        check_bool "same" true (Rng.next_int64 a = Rng.next_int64 b));
    tc "known answers: the SplitMix64 stream is pinned" rng_known_answers;
  ]

(* ----- fibers ------------------------------------------------------------------ *)

let fiber_tests =
  [
    tc "runs to completion without yields" (fun () ->
        let hit = ref false in
        let f = Fiber.spawn ~pid:1 (fun () -> hit := true) in
        check_bool "runnable" true (Fiber.status f = Fiber.Runnable);
        ignore (Fiber.step f);
        check_bool "hit" true !hit;
        check_bool "done" true (Fiber.status f = Fiber.Finished));
    tc "yield suspends exactly there" (fun () ->
        let stage = ref 0 in
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              stage := 1;
              Fiber.yield ();
              stage := 2;
              Fiber.yield ();
              stage := 3)
        in
        ignore (Fiber.step f);
        check_int "stage1" 1 !stage;
        ignore (Fiber.step f);
        check_int "stage2" 2 !stage;
        ignore (Fiber.step f);
        check_int "stage3" 3 !stage;
        check_bool "done" true (Fiber.status f = Fiber.Finished));
    tc "stepping a finished fiber raises" (fun () ->
        let f = Fiber.spawn ~pid:1 (fun () -> ()) in
        ignore (Fiber.step f);
        Alcotest.check_raises "dead"
          (Invalid_argument "Fiber.step: fiber is not runnable") (fun () ->
            ignore (Fiber.step f)));
    tc "exception marks fiber failed" (fun () ->
        let f = Fiber.spawn ~pid:1 (fun () -> failwith "boom") in
        (match Fiber.step f with
        | Fiber.Failed (Failure m) -> Alcotest.(check string) "msg" "boom" m
        | _ -> Alcotest.fail "expected failure");
        check_bool "failed" true
          (match Fiber.status f with Fiber.Failed _ -> true | _ -> false));
    tc "exception after a yield" (fun () ->
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              Fiber.yield ();
              failwith "later")
        in
        ignore (Fiber.step f);
        match Fiber.step f with
        | Fiber.Failed (Failure m) -> Alcotest.(check string) "msg" "later" m
        | _ -> Alcotest.fail "expected failure");
    tc "run_to_completion bounded" (fun () ->
        let f =
          Fiber.spawn ~pid:1 (fun () ->
              while true do
                Fiber.yield ()
              done)
        in
        check_bool "still runnable" true
          (Fiber.run_to_completion f ~max_steps:10 = Fiber.Runnable));
    tc "many fibers interleave independently" (fun () ->
        let log = ref [] in
        let mk tag =
          Fiber.spawn ~pid:0 (fun () ->
              log := (tag ^ "a") :: !log;
              Fiber.yield ();
              log := (tag ^ "b") :: !log)
        in
        let f1 = mk "x" and f2 = mk "y" in
        ignore (Fiber.step f1);
        ignore (Fiber.step f2);
        ignore (Fiber.step f2);
        ignore (Fiber.step f1);
        Alcotest.(check (list string)) "order" [ "xb"; "yb"; "ya"; "xa" ] !log);
  ]

(* ----- scheduler ----------------------------------------------------------------- *)

let sched_tests =
  [
    tc "spawn rejects duplicate pids" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> ());
        Alcotest.check_raises "dup"
          (Invalid_argument "Sched.spawn: duplicate pid 1") (fun () ->
            Sched.spawn s ~pid:1 (fun () -> ())));
    tc "step unknown pid raises" (fun () ->
        let s = Sched.create () in
        Alcotest.check_raises "unknown" (Invalid_argument "Sched: unknown pid 9")
          (fun () -> ignore (Sched.step s ~pid:9)));
    tc "live_pids shrinks as fibers finish" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> ());
        Sched.spawn s ~pid:2 (fun () -> Fiber.yield ());
        Alcotest.(check (list int)) "both" [ 1; 2 ] (Sched.live_pids s);
        ignore (Sched.step s ~pid:1);
        Alcotest.(check (list int)) "one" [ 2 ] (Sched.live_pids s));
    tc "crash removes a process from scheduling" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Sched.crash s ~pid:1;
        check_bool "crashed" true (Sched.crashed s ~pid:1);
        check_bool "not live" true (Sched.live_pids s = []);
        Alcotest.check_raises "step crashed"
          (Invalid_argument "Sched.step: pid 1 has crashed") (fun () ->
            ignore (Sched.step s ~pid:1)));
    tc "round robin is fair" (fun () ->
        let s = Sched.create () in
        let counts = Array.make 3 0 in
        for pid = 0 to 2 do
          Sched.spawn s ~pid (fun () ->
              for _ = 1 to 10 do
                counts.(pid) <- counts.(pid) + 1;
                Fiber.yield ()
              done)
        done;
        ignore (Sched.run s ~policy:Sched.round_robin ~max_steps:15);
        check_bool "balanced" true
          (abs (counts.(0) - counts.(1)) <= 1 && abs (counts.(1) - counts.(2)) <= 1));
    tc "run halts when no fiber is live" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        let steps = Sched.run s ~policy:Sched.round_robin ~max_steps:100 in
        check_int "steps" 2 steps);
    tc "scripted policy follows the script" (fun () ->
        let s = Sched.create () in
        let log = ref [] in
        for pid = 1 to 2 do
          Sched.spawn s ~pid (fun () ->
              log := pid :: !log;
              Fiber.yield ();
              log := pid :: !log)
        done;
        ignore
          (Sched.run s ~policy:(Sched.scripted [ 2; 1; 1; 2 ]) ~max_steps:100);
        Alcotest.(check (list int)) "order" [ 2; 1; 1; 2 ] (List.rev !log));
    tc "restart revives a crashed pid with a bumped incarnation" (fun () ->
        let m = Obs.Metrics.create () in
        let s = Sched.create ~metrics:m () in
        let lives = ref [] in
        Sched.spawn s ~pid:1 (fun () ->
            lives := "first" :: !lives;
            Fiber.yield ());
        check_int "fresh pid" 0 (Sched.incarnation s ~pid:1);
        Sched.crash s ~pid:1;
        let inc = Sched.restart s ~pid:1 (fun () -> lives := "second" :: !lives) in
        check_int "bumped" 1 inc;
        check_int "readable" 1 (Sched.incarnation s ~pid:1);
        check_bool "no longer crashed" true (not (Sched.crashed s ~pid:1));
        ignore (Sched.run s ~policy:Sched.round_robin ~max_steps:100);
        check_bool "the new body ran" true (!lives = [ "second" ]);
        check_int "counted" 1 (Obs.Metrics.counter m "sched.restarts");
        (* crash + restart again: incarnations only ever grow *)
        Sched.crash s ~pid:1;
        check_int "second restart" 2
          (Sched.restart s ~pid:1 (fun () -> ())));
    tc "restart demands a crashed pid" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Alcotest.check_raises "running"
          (Invalid_argument "Sched.restart: pid 1 has not crashed") (fun () ->
            ignore (Sched.restart s ~pid:1 (fun () -> ())));
        Alcotest.check_raises "unknown" (Invalid_argument "Sched: unknown pid 9")
          (fun () -> ignore (Sched.restart s ~pid:9 (fun () -> ()))));
    tc "recycle reuses a finished slot without bumping the incarnation"
      (fun () ->
        let m = Obs.Metrics.create () in
        let s = Sched.create ~metrics:m () in
        let log = ref [] in
        Sched.spawn s ~pid:1 (fun () -> log := "first" :: !log);
        ignore (Sched.step s ~pid:1);
        Sched.recycle s ~pid:1 (fun () -> log := "second" :: !log);
        Alcotest.(check (list int)) "live again" [ 1 ] (Sched.live_pids s);
        check_int "no incarnation bump" 0 (Sched.incarnation s ~pid:1);
        ignore (Sched.step s ~pid:1);
        Alcotest.(check (list string)) "both occupants ran"
          [ "second"; "first" ] !log;
        check_int "counted" 1 (Obs.Metrics.counter m "sched.recycles"));
    tc "recycle demands a finished, never-crashed pid" (fun () ->
        let s = Sched.create () in
        Sched.spawn s ~pid:1 (fun () -> Fiber.yield ());
        Alcotest.check_raises "still runnable"
          (Invalid_argument "Sched.recycle: pid 1 has not finished") (fun () ->
            Sched.recycle s ~pid:1 (fun () -> ()));
        Sched.spawn s ~pid:2 (fun () -> ());
        ignore (Sched.step s ~pid:2);
        Sched.crash s ~pid:2;
        Alcotest.check_raises "crashed"
          (Invalid_argument "Sched.recycle: pid 2 has crashed") (fun () ->
            Sched.recycle s ~pid:2 (fun () -> ())));
    tc "coin recorded in trace" (fun () ->
        let s = Sched.create ~seed:13L () in
        Sched.spawn s ~pid:1 (fun () -> ignore (Sched.coin s ~proc:1));
        ignore (Sched.step s ~pid:1);
        match Trace.coins (Sched.trace s) with
        | [ (_, 1, v) ] -> check_bool "bit" true (v = 0 || v = 1)
        | _ -> Alcotest.fail "expected one coin");
    tc "same seed, same coins" (fun () ->
        let flips seed =
          let s = Sched.create ~seed () in
          List.init 20 (fun _ -> Core.Rng.coin (Sched.rng s))
        in
        Alcotest.(check (list int)) "deterministic" (flips 5L) (flips 5L));
  ]

(* ----- the cached live set against its definition ------------------------------ *)

(* Model-based check of [Sched]'s cached live set: a random sequence of
   spawn / step / crash / restart / recycle over a handful of pids, and
   after every action the cache must equal its definition — [pids]
   filtered by [runnable] — and both policies must pick what [List.nth]
   over that reference list picks.  The fiber bodies cover every way a
   step can change liveness: yielding (stays runnable), finishing at
   once, and raising (ends [Failed]). *)
let live_set_model seed =
  let npids = 6 in
  let rng = Rng.create seed in
  let s = Sched.create ~seed () in
  let body () =
    match Rng.int rng 4 with
    | 0 -> fun () -> ()
    | 1 -> fun () -> failwith "boom"
    | k ->
        fun () ->
          for _ = 1 to k do
            Fiber.yield ()
          done
  in
  let spawned = Array.make npids false in
  (* round_robin's cursor, mirrored: it advances on every non-Halt pick *)
  let rr = ref 0 in
  let check what =
    let reference =
      List.filter (fun pid -> Sched.runnable s ~pid) (Sched.pids s)
    in
    Alcotest.(check (list int)) (what ^ ": live_pids") reference
      (Sched.live_pids s);
    let n = List.length reference in
    let expect_random =
      if n = 0 then Sched.Halt
      else Sched.Step (List.nth reference (Rng.int (Rng.copy rng) n))
    in
    check_bool (what ^ ": random_policy") true
      (Sched.random_policy (Rng.copy rng) s = expect_random);
    let expect_rr =
      if n = 0 then Sched.Halt else Sched.Step (List.nth reference (!rr mod n))
    in
    check_bool (what ^ ": round_robin") true (Sched.round_robin s = expect_rr);
    if n > 0 then incr rr
  in
  for i = 1 to 400 do
    let pid = Rng.int rng npids in
    let what = Printf.sprintf "seed %Ld action %d pid %d" seed i pid in
    (if not spawned.(pid) then begin
       spawned.(pid) <- true;
       Sched.spawn s ~pid (body ())
     end
     else if Sched.crashed s ~pid then begin
       if Rng.bool rng then ignore (Sched.restart s ~pid (body ()))
     end
     else
       match Sched.status s ~pid with
       | Fiber.Runnable ->
           if Rng.int rng 5 = 0 then Sched.crash s ~pid
           else (try ignore (Sched.step s ~pid) with Failure _ -> ())
       | Fiber.Finished ->
           if Rng.bool rng then Sched.recycle s ~pid (body ())
           else Sched.crash s ~pid
       | Fiber.Failed _ -> Sched.crash s ~pid);
    check what
  done

let live_set_tests =
  [
    tc "cached live set matches pids filtered by runnable" (fun () ->
        List.iter live_set_model [ 1L; 2L; 3L; 17L; 20260805L ]);
  ]

(* ----- trace ------------------------------------------------------------------- *)

let trace_tests =
  [
    tc "invoke/respond build a history" (fun () ->
        let tr = Trace.create () in
        let id = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        Trace.respond tr ~op_id:id ~result:(Some (Core.Value.Int 0));
        let h = Trace.history tr in
        check_int "events" 2 (Core.Hist.length h);
        match Core.Hist.ops h with
        | [ o ] ->
            check_bool "complete" true (Op.is_complete o);
            check_bool "result" true (o.Op.result = Some (Core.Value.Int 0))
        | _ -> Alcotest.fail "one op expected");
    tc "op ids are fresh" (fun () ->
        let tr = Trace.create () in
        let a = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        let b = Trace.invoke tr ~proc:2 ~obj:"R" ~kind:Op.Read in
        check_bool "fresh" true (a <> b));
    tc "times strictly increase" (fun () ->
        let tr = Trace.create () in
        ignore (Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read);
        Trace.linearize tr ~op_id:1;
        Trace.coin tr ~proc:1 ~value:0;
        Trace.note tr ~tag:"t" ~text:"x";
        let ts = List.map Trace.entry_time (Trace.entries tr) in
        let rec increasing = function
          | a :: (b :: _ as rest) -> a < b && increasing rest
          | _ -> true
        in
        check_bool "increasing" true (increasing ts));
    tc "lin_time finds the linearization point" (fun () ->
        let tr = Trace.create () in
        let id = Trace.invoke tr ~proc:1 ~obj:"R" ~kind:Op.Read in
        Trace.linearize tr ~op_id:id;
        Trace.respond tr ~op_id:id ~result:None;
        match Trace.lin_time tr ~op_id:id with
        | Some t ->
            let h = Trace.history tr in
            let o = List.hd (Core.Hist.ops h) in
            check_bool "within interval" true
              (o.Op.invoked < t && t < Option.get o.Op.responded)
        | None -> Alcotest.fail "no lin point");
    tc "history ignores annotations" (fun () ->
        let tr = Trace.create () in
        Trace.note tr ~tag:"x" ~text:"y";
        Trace.coin tr ~proc:1 ~value:1;
        check_int "empty" 0 (Core.Hist.length (Trace.history tr)));
  ]

let suite =
  [
    ("simkit.rng", rng_tests);
    ("simkit.fiber", fiber_tests);
    ("simkit.sched", sched_tests);
    ("simkit.live_set", live_set_tests);
    ("simkit.trace", trace_tests);
  ]
