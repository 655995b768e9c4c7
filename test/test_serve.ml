(* Tests for the streaming serve checker: the incremental reachable-set
   checker against the offline decision procedure, the engine against the
   reference oracle on replayed traces, ingest quarantine, budget
   degradation, backpressure shedding, checkpoint/resume plumbing, the
   lenient JSONL parser and the streaming linearizability monitor. *)

module V = Core.Value
module Op = Core.Op
module Event = Core.Event
module Hist = Core.Hist
module L = Core.Lincheck
module Gen = Core.Histgen
module Inc = Core.Increment
module Serve = Core.Serve
module Seg = Serve.Segmenter
module Engine = Serve.Engine
module Verdict = Serve.Verdict
module Reference = Serve.Reference
module Checkpoint = Serve.Checkpoint
module Ingest = Serve.Ingest
module J = Core.Json
module Monitor = Check.Monitor
module Config = Core.Abd_runs.Config

let tc name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- incremental checker vs the offline decision procedure ----- *)

let feed_increment ?cap ?state_budget ~entry hist =
  let inc = Inc.create ?cap ?state_budget ~entry () in
  List.iter
    (fun { Event.time; event } ->
      match event with
      | Event.Invoke { op_id; kind; _ } -> Inc.invoke inc ~id:op_id ~kind ~time
      | Event.Respond { op_id; result } ->
          Inc.respond inc ~id:op_id ~result ~time)
    (Hist.events hist);
  Inc.outcome inc

let spec = { Gen.default_spec with Gen.n_procs = 3; n_ops = 12 }

let increment_tests =
  [
    tc "incremental verdict = offline verdict on 200 seeded histories"
      (fun () ->
        let rand = Random.State.make [| 0xC0FFEE |] in
        let run gen =
          let h = QCheck.Gen.generate1 ~rand gen in
          let offline = L.check ~init:spec.Gen.init h in
          match feed_increment ~entry:[ spec.Gen.init ] h with
          | Inc.Pass _ -> check_bool "offline agrees on pass" true offline
          | Inc.Fail -> check_bool "offline agrees on fail" false offline
          | Inc.Unknown _ ->
              Alcotest.fail "unexpected unknown without a budget"
        in
        for _ = 1 to 100 do
          run (Gen.arbitrary_history spec)
        done;
        for _ = 1 to 100 do
          run (Gen.atomic_history spec)
        done);
    tc "state budget degrades to a structured unknown" (fun () ->
        let rand = Random.State.make [| 0xBEEF |] in
        let h = QCheck.Gen.generate1 ~rand (Gen.atomic_history spec) in
        match feed_increment ~state_budget:1 ~entry:[ spec.Gen.init ] h with
        | Inc.Unknown (Inc.State_budget { budget; _ }) ->
            check_int "budget echoed" 1 budget
        | _ -> Alcotest.fail "expected a state-budget unknown");
    tc "op cap degrades to a structured unknown" (fun () ->
        let rand = Random.State.make [| 0xBEEF |] in
        let h = QCheck.Gen.generate1 ~rand (Gen.atomic_history spec) in
        match feed_increment ~cap:2 ~entry:[ spec.Gen.init ] h with
        | Inc.Unknown (Inc.Op_cap { cap; _ }) -> check_int "cap echoed" 2 cap
        | _ -> Alcotest.fail "expected an op-cap unknown");
  ]

(* ---------- chunked line reader ---------------------------------------- *)

let reader_tests =
  [
    tc "partial tails are buffered across chunks" (fun () ->
        let r = Ingest.Reader.create () in
        Alcotest.(check (list string))
          "first chunk" [ "a" ]
          (Ingest.Reader.feed r "a\nb");
        Alcotest.(check (option string))
          "fragment pending" (Some "b") (Ingest.Reader.pending r);
        Alcotest.(check (list string))
          "fragment completed" [ "bc"; "" ]
          (Ingest.Reader.feed r "c\n\nd");
        Alcotest.(check (option string))
          "unterminated final line" (Some "d")
          (Ingest.Reader.take_rest r);
        Alcotest.(check (option string))
          "rest is consumed" None
          (Ingest.Reader.take_rest r));
  ]

(* ---------- engine vs reference oracle vs offline on replayed traces --- *)

let serve ?config lines =
  let verdicts = ref [] in
  let quarantined = ref [] in
  let engine =
    Engine.create ?config
      ~emit:(fun v -> verdicts := v :: !verdicts)
      ~on_quarantine:(fun ~line reason -> quarantined := (line, reason) :: !quarantined)
      ()
  in
  List.iter (Engine.feed_line engine) lines;
  Engine.finish engine;
  (engine, List.rev !verdicts, List.rev !quarantined)

let trace_lines trace = List.map J.to_string (Core.Trace.json_entries trace)

let workload i =
  let seed = Int64.of_int (4200 + i) in
  if i mod 3 = 0 then (
    let r =
      Core.Abd_runs.execute
        {
          Core.Abd_runs.default with
          Core.Abd_runs.seed;
          crash = [ 4 ];
          faults =
            { Core.Faults.none with Core.Faults.drop = 0.05; duplicate = 0.05 };
        }
    in
    (r.Core.Abd_runs.trace, r.Core.Abd_runs.history))
  else if i mod 3 = 1 then (
    let r =
      Core.Scenario.random_alg2_run ~n:3 ~writes_per_proc:2 ~reads_per_proc:2
        ~seed ()
    in
    (r.Core.Scenario.trace, r.Core.Scenario.history))
  else (
    let r =
      Core.Scenario.random_alg4_run ~n:3 ~writes_per_proc:2 ~reads_per_proc:2
        ~seed ()
    in
    (r.Core.Scenario.trace, r.Core.Scenario.history))

let engine_tests =
  [
    tc "engine = reference oracle = offline on benign and faulty traces"
      (fun () ->
        for i = 1 to 9 do
          let trace, hist = workload i in
          let lines = trace_lines trace in
          let engine, verdicts, _ = serve lines in
          check_int "no quarantine on a clean stream" 0
            (Engine.quarantined engine);
          let offline = L.check ~init:(V.Int 0) hist in
          check_bool "verdict conjunction = offline" offline
            (Engine.fail engine = 0);
          let r = Reference.run lines in
          let cmp =
            Reference.compare_verdicts ~engine:verdicts
              ~reference:r.Reference.verdicts
          in
          check_bool "reference agrees" true (Reference.agreed cmp);
          check_int "no skipped objects" 0 cmp.Reference.skipped
        done);
    tc "summary json carries the counters" (fun () ->
        let trace, _ = workload 1 in
        let engine, verdicts, _ = serve (trace_lines trace) in
        match Engine.summary_json engine with
        | J.Obj fields ->
            check_bool "kind" true
              (List.assoc_opt "kind" fields = Some (J.Str "serve_summary"));
            check_bool "lines counted" true
              (List.assoc_opt "lines" fields = Some (J.Int (Engine.lines engine)));
            check_int "verdict counters consistent"
              (List.length verdicts)
              (Engine.ok engine + Engine.fail engine + Engine.unknown engine)
        | _ -> Alcotest.fail "summary is not an object");
  ]

(* ---------- ingest quarantine on mutated streams ----------------------- *)

let quarantine_tests =
  [
    tc "corrupt lines are counted with 1-based numbers, never fatal"
      (fun () ->
        let trace, _ = workload 1 in
        let lines = trace_lines trace in
        let _, clean_verdicts, _ = serve lines in
        let stale =
          List.find
            (fun l ->
              match J.of_string l with
              | Ok j -> J.member "kind" j = Some (J.Str "invoke")
              | Error _ -> false)
            lines
        in
        (* leading garbage, an unknown schema kind, a replayed stale
           invoke, and a truncated tail *)
        let mutated =
          ("%% not json %%" :: "{\"kind\":\"mystery\",\"t\":0}" :: lines)
          @ [ stale; "{\"t\":9,\"ki" ]
        in
        let engine, verdicts, quarantined = serve mutated in
        check_int "exactly the injected lines quarantined" 4
          (Engine.quarantined engine);
        Alcotest.(check (list int))
          "1-based line numbers" [ 1; 2; List.length lines + 3; List.length lines + 4 ]
          (List.map fst quarantined);
        check_bool "verdicts unchanged by the mutations" true
          (List.length verdicts = List.length clean_verdicts
          && List.for_all2 Verdict.equal verdicts clean_verdicts));
    tc "non-monotone time and orphan ids quarantine, dup ids too" (fun () ->
        let ev ~time e = J.to_string (Ingest.event_json ~time e) in
        let inv ~t ~id v =
          ev ~time:t
            (Ingest.Invoke
               { op_id = id; proc = id; obj = "r"; kind = Op.Write (V.Int v) })
        in
        let rsp ~t ~id = ev ~time:t (Ingest.Respond { op_id = id; result = None }) in
        let lines =
          [
            inv ~t:1 ~id:1 10;
            inv ~t:1 ~id:2 20 (* equal time: quarantined *);
            inv ~t:2 ~id:1 30 (* duplicate op id: quarantined *);
            rsp ~t:3 ~id:9 (* orphan respond: quarantined *);
            rsp ~t:4 ~id:1;
          ]
        in
        let engine, verdicts, _ = serve lines in
        check_int "three quarantined" 3 (Engine.quarantined engine);
        check_int "one segment retired" 1 (List.length verdicts);
        check_int "and it passes" 1 (Engine.ok engine));
  ]

(* ---------- the pull reader vs a tree oracle --------------------------- *)

(* How [Ingest] read a line before it read records off the lexer: parse
   it into an [Obs.Json.t] with [of_string], then look each field up (the
   first occurrence of a key wins).  Kept as the oracle the pull reader
   must match on every line: accept or reject, the event, the message. *)
module Tree_oracle = struct
  let value_of_json j =
    let int k = Option.bind (J.member k j) J.to_int_opt in
    match Option.bind (J.member "type" j) J.to_string_opt with
    | Some "bot" -> Ok V.Bot
    | Some "int" -> (
        match int "v" with
        | Some n -> Ok (V.Int n)
        | None -> Error "int value: missing \"v\"")
    | Some "pair" -> (
        match (int "a", int "b") with
        | Some a, Some b -> Ok (V.Pair (a, b))
        | _ -> Error "pair value: missing \"a\" or \"b\"")
    | Some "vec" -> (
        match (int "v", Option.bind (J.member "ts" j) J.to_list_opt) with
        | Some v, Some entries -> (
            let entry = function
              | J.Int k when k >= 0 -> Some (Core.Vector.Fin k)
              | J.Str "inf" -> Some Core.Vector.Inf
              | _ -> None
            in
            match
              List.fold_right
                (fun e acc ->
                  match (entry e, acc) with
                  | Some e, Some acc -> Some (e :: acc)
                  | _ -> None)
                entries (Some [])
            with
            | Some [] | None -> Error "vec value: bad \"ts\" entries"
            | Some es -> Ok (V.VecStamped (v, Core.Vector.of_list es)))
        | _ -> Error "vec value: missing \"v\" or \"ts\"")
    | Some "lam" -> (
        match (int "v", int "sq", int "pid") with
        | Some v, Some sq, Some pid when sq >= 0 && pid >= 1 ->
            Ok (V.LamStamped (v, Core.Lamport.make ~sq ~pid))
        | Some _, Some _, Some _ -> Error "lam value: sq/pid out of range"
        | _ -> Error "lam value: missing \"v\", \"sq\" or \"pid\"")
    | Some ty -> Error (Printf.sprintf "unknown value type %S" ty)
    | None -> Error "value: missing \"type\""

  let annotation_kinds = [ "lin"; "coin"; "valwrite"; "ts"; "readts"; "note" ]

  let parse_json j =
    let int k = Option.bind (J.member k j) J.to_int_opt in
    let str k = Option.bind (J.member k j) J.to_string_opt in
    match str "kind" with
    | None -> Error "missing \"kind\""
    | Some "invoke" -> (
        match (int "t", int "op", int "proc", str "obj", str "opkind") with
        | Some time, Some op_id, Some proc, Some obj, Some "read" ->
            Ok
              (Ingest.Event
                 { time; ev = Ingest.Invoke { op_id; proc; obj; kind = Op.Read } })
        | Some time, Some op_id, Some proc, Some obj, Some "write" -> (
            match J.member "value" j with
            | None -> Error "invoke: write without \"value\""
            | Some vj -> (
                match value_of_json vj with
                | Ok v ->
                    Ok
                      (Ingest.Event
                         {
                           time;
                           ev = Ingest.Invoke { op_id; proc; obj; kind = Op.Write v };
                         })
                | Error e -> Error ("invoke: " ^ e)))
        | _, _, _, _, Some k ->
            Error (Printf.sprintf "invoke: bad \"opkind\" %S or missing field" k)
        | _ -> Error "invoke: missing \"t\", \"op\", \"proc\", \"obj\" or \"opkind\"")
    | Some "respond" -> (
        match (int "t", int "op", J.member "result" j) with
        | Some time, Some op_id, Some J.Null ->
            Ok (Ingest.Event { time; ev = Ingest.Respond { op_id; result = None } })
        | Some time, Some op_id, Some vj -> (
            match value_of_json vj with
            | Ok v ->
                Ok (Ingest.Event { time; ev = Ingest.Respond { op_id; result = Some v } })
            | Error e -> Error ("respond: " ^ e))
        | _ -> Error "respond: missing \"t\", \"op\" or \"result\"")
    | Some k when List.mem k annotation_kinds -> Ok (Ingest.Annotation k)
    | Some k -> Error (Printf.sprintf "unknown record kind %S" k)

  let parse_line line =
    match J.of_string line with
    | Error e -> Error ("bad JSON: " ^ e)
    | Ok j -> parse_json j
end

(* Well-formed lines of every shape the schema has: replayed ABD, Alg2
   and Alg4 traces (int, vec and lam values, and every annotation kind
   they carry), plus bot/pair values, null results and notes. *)
let schema_lines () =
  let ev ~time e = J.to_string (Ingest.event_json ~time e) in
  let write i v =
    ev ~time:i
      (Ingest.Invoke
         { op_id = i; proc = 1 + (i mod 3); obj = Printf.sprintf "r%d" (i mod 4); kind = Op.Write v })
  in
  let entry e = J.to_string (Core.Trace.entry_json e) in
  List.concat_map (fun i -> trace_lines (fst (workload i))) [ 0; 1; 2; 3; 4; 5 ]
  @ [
      write 1 V.Bot;
      write 2 (V.Int (-7));
      write 3 (V.Pair (1, -2));
      write 4 (V.VecStamped (5, Core.Vector.of_list [ Core.Vector.Fin 0; Inf; Fin 3 ]));
      write 5 (V.LamStamped (9, Core.Lamport.make ~sq:0 ~pid:1));
      ev ~time:6 (Ingest.Respond { op_id = 1; result = None });
      ev ~time:7 (Ingest.Respond { op_id = 2; result = Some (V.Pair (3, 4)) });
      entry (Core.Trace.Note { time = 8; tag = "tag"; text = "caf\xc3\xa9 \"q\"" });
      entry (Core.Trace.Coin { time = 9; proc = 1; value = 0 });
    ]

(* the literal lines the quarantine tests and the CI corruption step use *)
let quarantine_lines =
  [ "%% not json %%"; "{\"kind\":\"mystery\",\"t\":0}"; "{\"t\":9,\"ki"; "{\"t\":9999,\"ki"; ""; " " ]

(* values whose fields are wrong in every way the decision tells apart *)
let bad_values =
  List.map
    (fun s -> match J.of_string s with Ok j -> j | Error e -> failwith e)
    [
      "{\"type\":\"vec\",\"v\":1,\"ts\":[]}";
      "{\"type\":\"vec\",\"v\":1,\"ts\":[-1]}";
      "{\"type\":\"vec\",\"v\":1,\"ts\":[\"inf\",2]}";
      "{\"type\":\"vec\",\"v\":1,\"ts\":[1,\"x\"]}";
      "{\"type\":\"vec\",\"v\":1,\"ts\":[[1],{\"a\":2}]}";
      "{\"type\":\"vec\",\"v\":1,\"ts\":5}";
      "{\"type\":\"vec\",\"ts\":[1],\"ts\":[2]}";
      "{\"type\":\"vec\",\"v\":1.5,\"ts\":[1]}";
      "{\"type\":\"lam\",\"v\":1,\"sq\":-1,\"pid\":1}";
      "{\"type\":\"lam\",\"v\":1,\"sq\":0,\"pid\":0}";
      "{\"type\":\"lam\",\"v\":1,\"sq\":0}";
      "{\"type\":\"lam\",\"v\":\"1\",\"sq\":0,\"pid\":2}";
      "{\"type\":\"pair\",\"a\":1}";
      "{\"type\":\"pair\",\"a\":1,\"b\":2.0}";
      "{\"type\":\"pair\",\"b\":1,\"a\":2,\"a\":3}";
      "{\"type\":\"int\"}";
      "{\"type\":\"int\",\"v\":1,\"v\":\"x\"}";
      "{\"type\":\"int\",\"v\":\"x\",\"v\":1}";
      "{\"type\":\"wat\",\"v\":1}";
      "{\"type\":5,\"type\":\"int\",\"v\":1}";
      "{\"v\":1}";
      "{}";
      "[]";
      "\"int\"";
      "null";
      "{\"type\":\"bot\",\"type\":\"int\"}";
      "{\"type\":\"\\u0069nt\",\"v\":3}";
      "{\"t\\u0079pe\":\"pair\",\"a\":1,\"b\":2}";
    ]

let junk_values =
  J.
    [
      Float 1.5;
      Float 1000.;
      Int (-1);
      Int 0;
      Str "1";
      Str "inf";
      Str "read";
      Str "invoke";
      Null;
      Bool true;
      List [];
      Obj [];
      Obj [ ("y", List [ Int 1; Obj [ ("kind", Str "respond"); ("z", Null) ] ]) ];
    ]

let event_keys = [ "t"; "kind"; "op"; "proc"; "obj"; "opkind"; "value"; "result" ]

let pick st l = List.nth l (Random.State.int st (List.length l))

(* Corrupt a line as producers and broken pipes do: at the byte level
   (flips, truncations, stray whitespace, escaped letters, number forms
   such as 01, 1e3 and 1.5) or, when it still parses, at the field level
   (reordered, duplicated, unknown nested, retyped keys, bad values). *)
let mutate st line =
  let n = String.length line in
  let at () = Random.State.int st (max 1 n) in
  let insert i s = String.sub line 0 i ^ s ^ String.sub line i (n - i) in
  let fields f =
    match J.of_string line with
    | Ok (J.Obj kvs) -> J.to_string (J.Obj (f kvs))
    | _ -> line
  in
  let is_digit i = match line.[i] with '0' .. '9' -> true | _ -> false in
  let positions p = List.filter p (List.init n Fun.id) in
  let insert_at_one ps texts =
    match ps with [] -> line | _ -> insert (pick st ps) (pick st texts)
  in
  match Random.State.int st 12 with
  | 0 when n > 0 ->
      let b = Bytes.of_string line in
      Bytes.set b (at ())
        (if Random.State.int st 4 = 0 then Char.chr (Random.State.int st 256)
         else "{}[]:,\"\\ -+.eE019tfnux".[Random.State.int st 22]);
      Bytes.to_string b
  | 1 -> String.sub line 0 (Random.State.int st (n + 1))
  | 2 -> insert (at ()) (pick st [ " "; "\t"; "\n"; "\r"; " , " ])
  | 3 when n > 0 -> (
      (* a letter as a \u escape: inside a key or a string value it is the
         same text; anywhere else it is a syntax error *)
      let i = at () in
      match line.[i] with
      | 'a' .. 'z' as c ->
          String.sub line 0 i
          ^ Printf.sprintf "\\u%04x" (Char.code c)
          ^ String.sub line (i + 1) (n - i - 1)
      | _ -> line)
  | 4 ->
      (* before a number: 01, -5, 005, 1e35, a huge int *)
      insert_at_one
        (positions (fun i -> i > 0 && is_digit i && String.contains ":,[" line.[i - 1]))
        [ "0"; "-"; "00"; "1e3"; "9999999999999999999" ]
  | 5 ->
      (* after a number: 1.5, 1e3, 1.0, 1E+0, 1. *)
      insert_at_one
        (positions (fun i -> i > 0 && is_digit (i - 1) && not (is_digit i)))
        [ ".5"; "e3"; ".0"; "E+0"; "." ]
  | 6 ->
      fields (fun kvs ->
          List.map snd
            (List.sort compare (List.map (fun kv -> (Random.State.bits st, kv)) kvs)))
  | 7 ->
      fields (fun kvs ->
          match kvs with
          | [] -> kvs
          | _ ->
              let k, _ = pick st kvs in
              let dup = (k, pick st (junk_values @ bad_values)) in
              if Random.State.bool st then dup :: kvs else kvs @ [ dup ])
  | 8 ->
      fields (fun kvs ->
          let i = Random.State.int st (List.length kvs + 1) in
          List.filteri (fun j _ -> j < i) kvs
          @ [ (pick st [ "x"; "extra"; "valuee" ], pick st junk_values) ]
          @ List.filteri (fun j _ -> j >= i) kvs)
  | 9 ->
      fields (fun kvs ->
          let k = pick st event_keys in
          let v = pick st (junk_values @ bad_values) in
          if List.mem_assoc k kvs then
            List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs
          else kvs @ [ (k, v) ])
  | 10 -> fields (List.filter (fun _ -> Random.State.int st 4 <> 0))
  | _ ->
      (* a producer's spacing: ", " and " : " separators *)
      String.concat ", " (String.split_on_char ',' line)
      |> String.split_on_char ':' |> String.concat " : "

let differential_tests =
  [
    tc "pull reader = tree oracle on 120k corrupted and clean lines" (fun () ->
        let st = Random.State.make [| 0x1E7E5 |] in
        let base = schema_lines () in
        let mismatches = ref [] and n = ref 0 in
        let events = ref 0 and annotations = ref 0 and schema = ref 0
        and syntax = ref 0 in
        let check line =
          incr n;
          let got = Ingest.parse_line line and want = Tree_oracle.parse_line line in
          if got <> want then mismatches := line :: !mismatches;
          (match want with
          | Ok (Ingest.Event _) -> incr events
          | Ok (Ingest.Annotation _) -> incr annotations
          | Error e when String.starts_with ~prefix:"bad JSON" e -> incr syntax
          | Error _ -> incr schema);
          (* the shared value decision, on trees, agrees too *)
          match J.of_string line with
          | Ok j ->
              List.iter
                (fun k ->
                  match J.member k j with
                  | Some v when v <> J.Null ->
                      if Ingest.value_of_json v <> Tree_oracle.value_of_json v then
                        mismatches := ("value_of_json: " ^ line) :: !mismatches
                  | _ -> ())
                [ "value"; "result" ]
          | Error _ -> ()
        in
        List.iter check (quarantine_lines @ base);
        let base = Array.of_list base in
        while !n < 120_000 do
          let line = ref base.(Random.State.int st (Array.length base)) in
          for _ = 0 to Random.State.int st 3 do
            line := mutate st !line
          done;
          check !line
        done;
        (match !mismatches with
        | [] -> ()
        | l ->
            Alcotest.failf "%d mismatches, e.g. %s" (List.length l)
              (String.concat "\n" (List.filteri (fun i _ -> i < 5) l)));
        (* the corpus reaches every outcome *)
        List.iter
          (fun (what, k) ->
            if !k * 50 < !n then Alcotest.failf "only %d of %d lines: %s" !k !n what)
          [
            ("events", events);
            ("annotations", annotations);
            ("schema errors", schema);
            ("syntax errors", syntax);
          ]);
  ]

(* A ceiling on what [Ingest.parse_line] allocates per line of a fixed
   generated stream (replayed ABD/Alg2/Alg4 traces): the lexer cursor,
   the record's slots, the object name and the event itself.  This reads
   38 words/line on OCaml 5.1.1; parsing into a [Json.t] and walking it
   took ~490 on the benchmark's serve stream, so the ceiling of 100 fails
   on a tree creeping back in and leaves room for other compiler
   versions. *)
let ingest_alloc_tests =
  [
    tc "parse_line stays under 100 words/line" (fun () ->
        let lines = List.concat_map (fun i -> trace_lines (fst (workload i))) [ 1; 2; 3; 4; 5; 6 ] in
        let lines = Array.of_list lines in
        let before = Gc.minor_words () in
        Array.iter
          (fun l ->
            match Ingest.parse_line l with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          lines;
        let w = (Gc.minor_words () -. before) /. float_of_int (Array.length lines) in
        if not (w < 100.) then
          Alcotest.failf "Ingest.parse_line allocates %.1f words/line (ceiling 100)" w);
  ]

(* ---------- budget degradation and backpressure ------------------------ *)

let with_seg seg = { Engine.default_config with Engine.seg }

let degradation_tests =
  [
    tc "tiny state budget yields explicit state-budget unknowns" (fun () ->
        let trace, _ = workload 1 in
        let lines = trace_lines trace in
        let _, clean, _ = serve lines in
        let _, verdicts, _ =
          serve
            ~config:(with_seg { Seg.default_config with Seg.state_budget = 4 })
            lines
        in
        check_int "every segment still decided" (List.length clean)
          (List.length verdicts);
        check_bool "some state-budget unknown" true
          (List.exists
             (fun v ->
               match v.Verdict.outcome with
               | Verdict.Unknown r -> Inc.reason_cause r = "state-budget"
               | _ -> false)
             verdicts));
    tc "tiny op cap yields explicit op-cap unknowns" (fun () ->
        let trace, _ = workload 1 in
        let _, verdicts, _ =
          serve
            ~config:(with_seg { Seg.default_config with Seg.seg_cap = 2 })
            (trace_lines trace)
        in
        check_bool "some op-cap unknown" true
          (List.exists
             (fun v ->
               match v.Verdict.outcome with
               | Verdict.Unknown r -> Inc.reason_cause r = "op-cap"
               | _ -> false)
             verdicts));
    tc "backpressure sheds the overflowing segment" (fun () ->
        let ev ~time e = J.to_string (Ingest.event_json ~time e) in
        let lines =
          [
            ev ~time:1
              (Ingest.Invoke
                 { op_id = 1; proc = 1; obj = "r"; kind = Op.Write (V.Int 7) });
            ev ~time:2
              (Ingest.Invoke { op_id = 2; proc = 2; obj = "r"; kind = Op.Read });
            ev ~time:3 (Ingest.Respond { op_id = 1; result = None });
            ev ~time:4
              (Ingest.Respond { op_id = 2; result = Some (V.Int 7) });
          ]
        in
        let engine, verdicts, _ =
          serve
            ~config:{ Engine.default_config with Engine.max_pending = 1 }
            lines
        in
        check_bool "events were shed" true (Engine.shed_events engine > 0);
        match verdicts with
        | [ v ] -> (
            match v.Verdict.outcome with
            | Verdict.Unknown (Inc.Shed { max_pending; _ }) ->
                check_int "bound echoed" 1 max_pending
            | _ -> Alcotest.fail "expected a shed unknown")
        | _ -> Alcotest.fail "expected exactly one verdict");
  ]

(* ---------- checkpoint / resume ---------------------------------------- *)

let checkpoint_tests =
  [
    tc "checkpoint json round-trips" (fun () ->
        let trace, _ = workload 2 in
        let engine, _, _ = serve (trace_lines trace) in
        (* a scenario trace ends quiescent, so the fed (pre-finish)
           engine state is recoverable; re-feed to capture it *)
        let engine2 =
          Engine.create ~emit:(fun _ -> ()) ()
        in
        List.iter (Engine.feed_line engine2) (trace_lines trace);
        check_bool "quiescent at end of a completed trace" true
          (Engine.quiescent engine2);
        match Engine.checkpoint engine2 with
        | None -> Alcotest.fail "no checkpoint at a quiescent point"
        | Some ck -> (
            ignore engine;
            match Checkpoint.of_json (Checkpoint.json ck) with
            | Error e -> Alcotest.fail e
            | Ok ck' ->
                check_str "byte-identical rendering"
                  (J.to_string (Checkpoint.json ck))
                  (J.to_string (Checkpoint.json ck'))));
    tc "restore + remaining lines replays the full verdict stream" (fun () ->
        let trace, _ = workload 5 in
        let lines = trace_lines trace in
        let _, full, _ = serve lines in
        (* feed line by line, remembering the last mid-stream checkpoint *)
        let emitted = ref [] in
        let engine =
          Engine.create ~emit:(fun v -> emitted := v :: !emitted) ()
        in
        let best = ref None in
        List.iter
          (fun l ->
            Engine.feed_line engine l;
            match Engine.checkpoint engine with
            | Some ck when Checkpoint.verdicts ck > 0 ->
                best := Some (ck, List.rev !emitted)
            | _ -> ())
          lines;
        match !best with
        | None -> Alcotest.fail "no mid-stream quiescent checkpoint"
        | Some (ck, prefix) ->
            let resumed = ref [] in
            let engine' =
              Engine.restore ~emit:(fun v -> resumed := v :: !resumed) ck
            in
            List.iteri
              (fun i l ->
                if i >= ck.Checkpoint.cursor then Engine.feed_line engine' l)
              lines;
            Engine.finish engine';
            let replay = prefix @ List.rev !resumed in
            check_int "same verdict count" (List.length full)
              (List.length replay);
            check_bool "byte-identical verdicts" true
              (List.for_all2 Verdict.equal full replay));
    tc "truncate_jsonl keeps complete lines and rejects short logs"
      (fun () ->
        let path = Filename.temp_file "serve_test" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n{\"a\":4");
            (match Checkpoint.truncate_jsonl ~path ~keep:2 with
            | Error e -> Alcotest.fail e
            | Ok () ->
                check_str "two complete lines survive" "{\"a\":1}\n{\"a\":2}\n"
                  (In_channel.with_open_bin path In_channel.input_all));
            match Checkpoint.truncate_jsonl ~path ~keep:5 with
            | Error _ -> ()
            | Ok () -> Alcotest.fail "short log must be rejected"));
  ]

(* ---------- lenient JSONL export parsing ------------------------------- *)

let lenient_tests =
  [
    tc "parse_lines_lenient separates good records from bad lines"
      (fun () ->
        let good, bad =
          Obs.Export.parse_lines_lenient
            "{\"a\":1}\ngarbage\n\n{\"b\":2}\n{broken"
        in
        check_int "good records" 2 (List.length good);
        Alcotest.(check (list int))
          "1-based bad line numbers" [ 2; 5 ] (List.map fst bad));
    tc "parse_file_lenient reports bad lines without failing" (fun () ->
        let path = Filename.temp_file "serve_test" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc "{\"a\":1}\nnope\n{\"b\":2}\n");
            match Obs.Export.parse_file_lenient path with
            | Error e -> Alcotest.fail e
            | Ok (good, bad) ->
                check_int "good records" 2 (List.length good);
                Alcotest.(check (list int))
                  "bad line numbers" [ 2 ] (List.map fst bad)));
  ]

(* ---------- streaming linearizability monitor -------------------------- *)

let violation_str = function
  | None -> "none"
  | Some v -> J.to_string (Monitor.violation_json v)

let monitor_tests =
  [
    tc "streaming monitor reports exactly the stock monitor's verdicts"
      (fun () ->
        let configs =
          Config.default
          :: List.map
               (fun seed ->
                 {
                   Config.default with
                   Config.writes_each = 2;
                   reads_each = 2;
                   quorum = Some 2;
                   seed = Int64.of_int seed;
                   faults =
                     {
                       Simkit.Faults.none with
                       Simkit.Faults.drop = 0.05;
                     };
                 })
               [ 1; 2; 3; 4; 5 ]
        in
        List.iter
          (fun cfg ->
            let stock =
              Monitor.run_config ~monitors:[ Monitor.linearizability ] cfg
            in
            let streaming =
              Monitor.run_config
                ~monitors:[ Monitor.linearizability_streaming ]
                cfg
            in
            check_str "same violation (or none)" (violation_str stock)
              (violation_str streaming))
          configs);
    tc "with_streaming_check swaps by name only" (fun () ->
        let swapped = Monitor.with_streaming_check Monitor.standard in
        check_int "same monitor count"
          (List.length Monitor.standard)
          (List.length swapped);
        check_bool "names preserved" true
          (List.for_all2
             (fun a b -> a.Monitor.name = b.Monitor.name)
             Monitor.standard swapped));
  ]

let suite =
  [
    ("serve:increment", increment_tests);
    ("serve:reader", reader_tests);
    ("serve:engine", engine_tests);
    ("serve:quarantine", quarantine_tests);
    ("serve:pull-reader", differential_tests);
    ("serve.ingest_alloc", ingest_alloc_tests);
    ("serve:degradation", degradation_tests);
    ("serve:checkpoint", checkpoint_tests);
    ("serve:lenient-export", lenient_tests);
    ("serve:monitor", monitor_tests);
  ]
