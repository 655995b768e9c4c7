(* The traced runs: per-layer metrics.  Each replay makes the same
   public calls the program's own loop makes — Fleet.run_shard's,
   Engine's, Lincheck's — with a span and a minor-words delta around
   every call into a layer (Meter.Ledger), and reads the counters the
   program already exports through Obs.Metrics.  No library code is
   instrumented.  The per-op counters are printed next to the untraced
   run's, so a replay that no longer matches the real path shows as
   traced.divergent_counters > 0; the tracing overhead is the same
   replay with spans on vs. off. *)

module V = History.Value
module Sched = Simkit.Sched
module Trace = Simkit.Trace
module Rng = Simkit.Rng
module Faults = Simkit.Faults
module Net = Msgpass.Net
module Abd = Msgpass.Abd
module Mwabd = Msgpass.Mwabd
module Segmenter = Serve.Segmenter
module Verdict = Serve.Verdict
module Ingest = Serve.Ingest
module L = Meter.Ledger

(* Every per-layer metric, with its unit.  Each traced run reports all of
   them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("sched.steps_per_op", "steps/op");
    ("sched.policy_ns_per_decision", "ns");
    ("sched.policy_words_per_decision", "words");
    ("sched.step_ns", "ns");
    ("sched.step_words", "words");
    ("sched.loop_ns_per_step", "ns");
    ("sched.loop_words_per_step", "words");
    ("sched.recycles_per_op", "count/op");
    ("net.sends_per_op", "count/op");
    ("net.attempts_per_op", "count/op");
    ("net.delivered_per_attempt", "ratio");
    ("net.faults.dropped_per_op", "count/op");
    ("net.dead_letters_per_op", "count/op");
    ("net.deliver_ns_per_attempt", "ns");
    ("net.deliver_words_per_attempt", "words");
    ("reg.retransmits_per_op", "count/op");
    ("reg.stale_per_op", "count/op");
    ("reg.op_latency_p50_steps", "steps");
    ("reg.op_latency_p99_steps", "steps");
    ("stable.persists_per_op", "count/op");
    ("stable.appends_per_op", "count/op");
    ("trace.drain_ns_per_op", "ns");
    ("trace.events_per_op", "count/op");
    ("segmenter.ns_per_event", "ns");
    ("segmenter.words_per_event", "words");
    ("linchk.inc.states_per_event", "count");
    ("segmenter.ops_per_segment", "count");
    ("segmenter.unchecked_op_share", "share");
    ("segmenter.unknown.op-cap", "count");
    ("segmenter.unknown.state-budget", "count");
    ("segmenter.unknown.entry-overflow", "count");
    ("segmenter.unknown.shed", "count");
    ("ingest.parse_ns_per_line", "ns");
    ("ingest.words_per_line", "words");
    ("engine.dispatch_ns_per_event", "ns");
    ("linchk.states_per_history", "count");
    ("linchk.memo_prunes_per_state", "ratio");
    ("linchk.ns_per_state", "ns");
    ("linchk.prep_ns_per_history", "ns");
    ("treecheck.nodes_per_tree", "count");
    ("treecheck.candidates_per_node", "ratio");
    ("treecheck.ns_per_node", "ns");
    ("pool.speedup_j2", "ratio");
    ("pool.shard_imbalance", "ratio");
    ("gc.minor_collections_per_kitem", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_item", "words");
    ("check.latency_p50_ms", "ms");
    ("check.latency_p99_ms", "ms");
    ("check.latency_samples", "count");
    ("tracing.overhead_share", "share");
    ("traced.divergent_counters", "count");
  ]

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The outcome, with every per-layer metric present (0 where unset). *)
let outcome ~attempted ~failed ~notes values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        invalid_arg ("perfbench: undeclared per-layer metric " ^ name))
    values;
  {
    Untraced.attempted;
    failed;
    notes;
    metrics =
      List.map
        (fun (name, unit_) ->
          Untraced.m name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
        per_layer;
  }

let gc_metrics ~items (g : Meter.gc) =
  [
    ("gc.minor_collections_per_kitem", ratio (fi g.minor_collections) (fi items /. 1000.));
    ("gc.major_collections", fi g.major_collections);
    ("gc.promoted_words_per_item", ratio g.promoted_words (fi items));
  ]

(* Self time per ledger slot, as a share of [wall_ns], the same replay's
   wall time with spans off (self times exclude the span machinery's
   calibrated cost); the remainder is the replay's glue — set-up, loop,
   dispatch — that no span covers. *)
let self_table led ~wall_ns slots =
  let covered = ref 0. in
  let rows =
    List.map
      (fun (label, s) ->
        let self = L.self_ns led s in
        covered := !covered +. self;
        Printf.sprintf "  %-22s self %10.1f ms  %5.1f%%  %9d calls  %8.1f words/call"
          label (self /. 1e6) (100. *. ratio self wall_ns) (L.calls led s)
          (ratio (L.self_words led s) (fi (L.calls led s))))
      slots
  in
  let rest = Float.max 0. (wall_ns -. !covered) in
  ("layer self time (traced; shares of the replay's wall time with spans off):" :: rows)
  @ [
      Printf.sprintf "  %-22s self %10.1f ms  %5.1f%%" "(unattributed)" (rest /. 1e6)
        (100. *. ratio rest wall_ns);
    ]

let verdict_metrics (verdicts : Verdict.t list) =
  let ops = List.fold_left (fun a (v : Verdict.t) -> a + v.ops) 0 verdicts in
  let unchecked =
    List.fold_left
      (fun a (v : Verdict.t) ->
        match v.outcome with Verdict.Unknown _ -> a + v.ops | _ -> a)
      0 verdicts
  in
  let cause c =
    List.length
      (List.filter
         (fun (v : Verdict.t) ->
           match v.outcome with
           | Verdict.Unknown r -> Linchk.Increment.reason_cause r = c
           | _ -> false)
         verdicts)
  in
  [
    ("segmenter.ops_per_segment", ratio (fi ops) (fi (List.length verdicts)));
    ("segmenter.unchecked_op_share", ratio (fi unchecked) (fi ops));
    ("segmenter.unknown.op-cap", fi (cause "op-cap"));
    ("segmenter.unknown.state-budget", fi (cause "state-budget"));
    ("segmenter.unknown.entry-overflow", fi (cause "entry-overflow"));
    ("segmenter.unknown.shed", fi (cause "shed"));
  ]

(* The shape of a checked stream: how many of its busy stretches outgrow
   the op cap, the share of ops they hold, and their mean length beside
   that of the exact segments.  Inputs.serve_histories takes its mix from
   these figures on fleet-mwabd-checked; the serve run prints the same
   line for comparison. *)
let segment_shape (verdicts : Verdict.t list) =
  let op_cap, rest =
    List.partition
      (fun (v : Verdict.t) ->
        match v.outcome with
        | Verdict.Unknown r -> Linchk.Increment.reason_cause r = "op-cap"
        | _ -> false)
      verdicts
  in
  let ops l = fi (List.fold_left (fun a (v : Verdict.t) -> a + v.ops) 0 l) in
  let n l = fi (List.length l) in
  Printf.sprintf
    "segment shape: %d segments, %d op-cap (%.2f%% of segments, %.2f%% of ops, %.1f ops \
     each); the others %.1f ops each"
    (List.length verdicts) (List.length op_cap)
    (100. *. ratio (n op_cap) (n verdicts))
    (100. *. ratio (ops op_cap) (ops verdicts))
    (ratio (ops op_cap) (n op_cap))
    (ratio (ops rest) (n rest))

let latency_metrics samples_ms =
  [
    ("check.latency_p50_ms", Meter.quantile samples_ms 0.5);
    ("check.latency_p99_ms", Meter.quantile samples_ms 0.99);
    ("check.latency_samples", fi (List.length samples_ms));
  ]

(* ----- fleet: Fleet.run_shard, re-driven through public calls ----------------------- *)

type fleet_slots = {
  live : int;  (** Sched.live_pids, the run loop's per-step check *)
  step : int;  (** Sched.step: fiber switch plus the register code it runs *)
  deliver : int;  (** Net.auto_deliver_policy, minus its base policy *)
  base : int;  (** the fleet's base policy: session recycling, fault schedule *)
  policy : int;  (** Sched.random_policy *)
  drain : int;  (** Trace.drain *)
  seg : int;  (** Segmenter.invoke / respond / flush *)
  watchdog : int;  (** Net.watchdog progress polls *)
}

let fleet_slots led =
  let s = L.slot led in
  {
    live = s "sched.live_pids";
    step = s "sched.step";
    deliver = s "net.deliver";
    base = s "fleet.base_policy";
    policy = s "sched.policy";
    drain = s "trace.drain";
    seg = s "segmenter";
    watchdog = s "sched.watchdog";
  }

(* the per-shard seed derivation of Fleet (golden-ratio stride) *)
let golden = 0x9E3779B97F4A7C15L
let shard_seed ~seed i = Int64.add seed (Int64.mul (Int64.of_int (i + 1)) golden)
let fault_seed s = Int64.logxor s 0xFA17FA17L

type shard_out = {
  completed : bool;
  verdicts : Verdict.t list;
  retire_ms : float list;
}

let run_shard led sl ~metrics (c : Fleet.config) ~index ~ops =
  let span s f = L.span led s f in
  let seed = shard_seed ~seed:c.seed index in
  let sched = Sched.create ~seed ~metrics () in
  let name = Printf.sprintf "S%d" index in
  let seg =
    if index >= c.sample then None
    else
      Some
        (Segmenter.create ~metrics ~config:Segmenter.default_config ~obj:name
           ~entry:(Segmenter.entry_exact [ V.Int 0 ])
           ~index:0 ())
  in
  let verdicts = ref [] and retire_ms = ref [] in
  let note = function None -> () | Some v -> verdicts := v :: !verdicts in
  let feed entries =
    match seg with
    | None -> ()
    | Some s ->
        List.iter
          (function
            | Trace.Ev { History.Event.event; time } -> (
                match event with
                | History.Event.Invoke { op_id; kind; _ } ->
                    ignore (span sl.seg (fun () -> Segmenter.invoke s ~id:op_id ~kind ~time))
                | History.Event.Respond { op_id; result } -> (
                    let t0 = Meter.now_ns () in
                    match span sl.seg (fun () -> Segmenter.respond s ~id:op_id ~result ~time) with
                    | Ok (Some v) ->
                        retire_ms := (fi (Meter.now_ns () - t0) /. 1e6) :: !retire_ms;
                        note (Some v)
                    | Ok None | Error _ -> ()))
            | _ -> ())
          entries
  in
  let fpolicy =
    if Faults.is_benign c.faults then None
    else Some (Faults.create ~seed:(fault_seed seed) c.faults)
  in
  let drive net ~crash ~recover ~write ~read =
    Option.iter (Net.set_faults net) fpolicy;
    Net.set_batching net ~window:c.batch_window ~max:c.batch_max;
    let slot_pid = function
      | 0 when c.proto = Fleet.Sw -> 0
      | s -> c.n + if c.proto = Fleet.Sw then s - 1 else s
    in
    let writes =
      let w = int_of_float (Float.round (c.write_ratio *. fi ops)) in
      max 0 (min ops w)
    in
    let w_left = Array.make c.slots 0 and r_left = Array.make c.slots 0 in
    (match c.proto with
    | Fleet.Sw -> w_left.(0) <- writes
    | Fleet.Mw ->
        for i = 0 to writes - 1 do
          let s = i mod c.slots in
          w_left.(s) <- w_left.(s) + 1
        done);
    for i = 0 to ops - writes - 1 do
      let s = c.slots - 1 - (i mod c.slots) in
      r_left.(s) <- r_left.(s) + 1
    done;
    let remaining = Array.init c.slots (fun s -> w_left.(s) + r_left.(s)) in
    let slot_rng =
      Array.init c.slots (fun s ->
          Rng.split (Rng.create (Int64.add seed (Int64.mul (Int64.of_int (s + 1)) golden))))
    in
    let value_domain = 48 in
    let next_value = ref 0 in
    let next_op slot =
      let w = w_left.(slot) > 0 and r = r_left.(slot) > 0 in
      let is_write =
        match c.proto with
        | Fleet.Sw -> w
        | Fleet.Mw -> if w && r then Rng.float slot_rng.(slot) < c.write_ratio else w
      in
      if is_write then begin
        w_left.(slot) <- w_left.(slot) - 1;
        incr next_value;
        write (slot_pid slot) (1 + ((!next_value - 1) mod value_domain))
      end
      else begin
        r_left.(slot) <- r_left.(slot) - 1;
        read (slot_pid slot)
      end
    in
    let finished = Queue.create () in
    let live = ref 0 in
    let session slot k () =
      for _ = 1 to k do
        next_op slot
      done;
      Queue.push slot finished
    in
    let start_session ~via slot =
      let k = min c.session_len remaining.(slot) in
      remaining.(slot) <- remaining.(slot) - k;
      via (slot_pid slot) (session slot k)
    in
    for slot = 0 to c.slots - 1 do
      if remaining.(slot) > 0 then begin
        incr live;
        start_session ~via:(fun pid f -> Sched.spawn sched ~pid f) slot
      end
    done;
    let rng = Rng.create (Int64.logxor seed 0x7E57AB1EL) in
    let rand_pol = Sched.random_policy rng in
    let decisions = ref 0 in
    let base s =
      span sl.base (fun () ->
          incr decisions;
          while not (Queue.is_empty finished) do
            let slot = Queue.pop finished in
            if remaining.(slot) > 0 then
              start_session ~via:(fun pid f -> Sched.recycle sched ~pid f) slot
            else decr live
          done;
          (match fpolicy with
          | Some f ->
              let step = Sched.steps sched in
              List.iter crash (Faults.crashes_due f ~step);
              List.iter recover (Faults.recoveries_due f ~step)
          | None -> ());
          if !decisions mod c.drain_every = 0 then
            feed (span sl.drain (fun () -> Trace.drain (Sched.trace sched)));
          if !live = 0 then Sched.Halt else span sl.policy (fun () -> rand_pol s))
    in
    let policy = Net.auto_deliver_policy net ~rng base in
    let max_steps = (ops * c.n * 800) + (2_000 * List.length c.faults.Faults.recover_at) in
    (* Sched.run's loop, with the watchdog it is given by Fleet *)
    let w = Net.watchdog net in
    let last = ref (w.Sched.progress ()) and since = ref 0 in
    let steps = ref 0 and go = ref true and stalled = ref false in
    while !go && !steps < max_steps do
      if span sl.live (fun () -> Sched.live_pids sched) = [] then go := false
      else
        match span sl.deliver (fun () -> policy sched) with
        | Sched.Halt -> go := false
        | Sched.Step pid ->
            ignore (span sl.step (fun () -> Sched.step sched ~pid));
            incr steps;
            incr since;
            if !since >= w.Sched.window then begin
              let p = span sl.watchdog w.Sched.progress in
              if p = !last then begin
                stalled := true;
                go := false
              end;
              last := p;
              since := 0
            end
    done;
    feed (span sl.drain (fun () -> Trace.drain (Sched.trace sched)));
    note (Option.bind seg (fun s -> span sl.seg (fun () -> Segmenter.flush s)));
    {
      completed = !live = 0 && not !stalled;
      verdicts = List.rev !verdicts;
      retire_ms = !retire_ms;
    }
  in
  match c.proto with
  | Fleet.Sw ->
      let reg = Abd.create ~persist:c.persist ~compact:true ~sched ~name ~n:c.n ~writer:0 ~init:0 () in
      drive (Abd.net reg)
        ~crash:(fun node -> Abd.crash_node reg ~node)
        ~recover:(fun node -> Abd.recover_node reg ~node)
        ~write:(fun _pid v -> Abd.write reg v)
        ~read:(fun pid -> ignore (Abd.read reg ~reader:pid))
  | Fleet.Mw ->
      let reg = Mwabd.create ~persist:c.persist ~compact:true ~sched ~name ~n:c.n ~init:0 () in
      drive (Mwabd.net reg)
        ~crash:(fun node -> Mwabd.crash_node reg ~node)
        ~recover:(fun node -> Mwabd.recover_node reg ~node)
        ~write:(fun pid v -> Mwabd.write reg ~proc:pid v)
        ~read:(fun pid -> ignore (Mwabd.read reg ~reader:pid))

(* every shard in index order on this domain, one registry per shard
   merged in order, as Fleet.run does at -j 1 *)
let traced_fleet led sl ~metrics (c : Fleet.config) =
  let per = Fleet.ops_per_shard c in
  let t0 = Meter.now_ns () in
  let outs =
    List.init c.shards (fun index ->
        let m = Obs.Metrics.create () in
        let o = run_shard led sl ~metrics:m c ~index ~ops:per.(index) in
        Obs.Metrics.merge ~into:metrics m;
        o)
  in
  (outs, fi (Meter.now_ns () - t0))

let fleet_counters m =
  let c = Obs.Metrics.counter m in
  [
    ("ops", c "trace.responds");
    ("steps", c "sched.steps");
    ("sends", c "net.sends");
    ("attempts", c "net.delivery_attempts");
    ("delivered", c "net.delivered");
    ("coalesced", c "net.batch.coalesced");
    ("recycles", c "sched.recycles");
    ("persists", c "stable.persists");
  ]

let fleet ~jobs ~seconds (cfg : Fleet.config) =
  (* the untraced reference run: exact counters and the GC delta *)
  let m = Obs.Metrics.create () in
  let r, _, g = Meter.timed (fun () -> Fleet.run ~jobs ~metrics:m cfg) in
  let ops = fi r.total_ops in
  let c name = fi (Obs.Metrics.counter m name) in
  let per_op name = ratio (c name) ops in
  let both name = ratio (c ("reg.abd." ^ name) +. c ("reg.mwabd." ^ name)) ops in
  let lat = Obs.Metrics.summary m "op.latency.sim" in
  (* pool speedup: -j 2 over -j 1, untraced, alternating, medians *)
  let pairs =
    Untraced.repeat ~seconds ~min_passes:2 (fun _ ->
        let rate j =
          let r, dt, _ = Meter.timed (fun () -> Untraced.fleet_run ~jobs:j cfg) in
          fi r.total_ops /. dt
        in
        let r1 = rate 1 in
        (r1, rate 2))
  in
  let speedup = ratio (Meter.median (List.map snd pairs)) (Meter.median (List.map fst pairs)) in
  (* the traced replay, spans on, then off for the overhead *)
  let led = L.create () in
  L.calibrate led;
  let sl = fleet_slots led in
  let mt = Obs.Metrics.create () in
  let outs, wall_on = traced_fleet led sl ~metrics:mt cfg in
  led.enabled <- false;
  let _, wall_off = traced_fleet led sl ~metrics:(Obs.Metrics.create ()) cfg in
  led.enabled <- true;
  let verdicts = List.concat_map (fun o -> o.verdicts) outs in
  let seg_events = fi (L.calls led sl.seg) in
  let attempts = fi (Obs.Metrics.counter mt "net.delivery_attempts") in
  (* divergence: the traced replay's counters against the real run's *)
  let real = fleet_counters m and traced = fleet_counters mt in
  let diverged =
    List.filter (fun (k, v) -> List.assoc k traced <> v) real |> List.length
  in
  let traced_fails =
    List.length (List.filter (fun (v : Verdict.t) -> v.outcome = Verdict.Fail) verdicts)
  in
  let traced_unknowns =
    List.length
      (List.filter
         (fun (v : Verdict.t) -> match v.outcome with Verdict.Unknown _ -> true | _ -> false)
         verdicts)
  in
  let diverged =
    diverged
    + (if List.length verdicts <> r.total_segments then 1 else 0)
    + (if traced_unknowns <> r.total_unknowns then 1 else 0)
  in
  let failed =
    (if r.completed then 0 else cfg.ops - r.total_ops)
    + r.total_fails
    + (List.length (List.filter (fun o -> not o.completed) outs))
    + traced_fails
  in
  let per = Fleet.ops_per_shard cfg in
  let mean = fi (Array.fold_left ( + ) 0 per) /. fi (Array.length per) in
  let imbalance = ratio (fi (Array.fold_left max 0 per)) mean in
  let retire = List.concat_map (fun o -> o.retire_ms) outs in
  let values =
    [
      ("sched.steps_per_op", per_op "sched.steps");
      ("sched.policy_ns_per_decision", ratio (L.self_ns led sl.policy) (fi (L.calls led sl.policy)));
      ("sched.policy_words_per_decision", ratio (L.self_words led sl.policy) (fi (L.calls led sl.policy)));
      ("sched.step_ns", ratio (L.self_ns led sl.step) (fi (L.calls led sl.step)));
      ("sched.step_words", ratio (L.self_words led sl.step) (fi (L.calls led sl.step)));
      (* Sched.run's per-step live_pids check *)
      ("sched.loop_ns_per_step", ratio (L.self_ns led sl.live) (fi (L.calls led sl.step)));
      ("sched.loop_words_per_step", ratio (L.self_words led sl.live) (fi (L.calls led sl.step)));
      ("sched.recycles_per_op", per_op "sched.recycles");
      ("net.sends_per_op", per_op "net.sends");
      ("net.attempts_per_op", per_op "net.delivery_attempts");
      ("net.delivered_per_attempt", ratio (c "net.delivered") (c "net.delivery_attempts"));
      ("net.faults.dropped_per_op", per_op "net.faults.dropped");
      ("net.dead_letters_per_op", per_op "net.dead_letters");
      ("net.deliver_ns_per_attempt", ratio (L.self_ns led sl.deliver) attempts);
      ("net.deliver_words_per_attempt", ratio (L.self_words led sl.deliver) attempts);
      ("reg.retransmits_per_op", both "retransmits");
      ("reg.stale_per_op", both "stale");
      ("reg.op_latency_p50_steps", Option.fold ~none:0. ~some:(fun s -> s.Obs.Metrics.p50) lat);
      ("reg.op_latency_p99_steps", Option.fold ~none:0. ~some:(fun s -> s.Obs.Metrics.p99) lat);
      ("stable.persists_per_op", per_op "stable.persists");
      ("stable.appends_per_op", per_op "stable.appends");
      ("trace.drain_ns_per_op", ratio (L.self_ns led sl.drain) ops);
      ("trace.events_per_op", ratio (c "trace.invokes" +. c "trace.responds" +. c "trace.lins") ops);
      ("segmenter.ns_per_event", ratio (L.self_ns led sl.seg) seg_events);
      ("segmenter.words_per_event", ratio (L.self_words led sl.seg) seg_events);
      ("linchk.inc.states_per_event", ratio (fi (Obs.Metrics.counter mt "linchk.inc.states")) seg_events);
      ("pool.speedup_j2", speedup);
      ("pool.shard_imbalance", imbalance);
      ("tracing.overhead_share", ratio (wall_on -. wall_off) wall_off);
      ("traced.divergent_counters", fi diverged);
    ]
    @ verdict_metrics verdicts
    @ gc_metrics ~items:r.total_ops g
    @ latency_metrics retire
  in
  let notes =
    [
      Printf.sprintf "fleet: %d ops, %d shards, untraced at -j %d; traced replay drives every shard at -j 1"
        r.total_ops cfg.shards jobs;
      Printf.sprintf "reg.op_latency quantiles over the first %d of %d samples (reservoir)"
        (Option.fold ~none:0 ~some:(fun s -> s.Obs.Metrics.retained) lat)
        (Option.fold ~none:0 ~some:(fun s -> s.Obs.Metrics.count) lat);
      Printf.sprintf "pool: -j 1 %.0f ops/s, -j 2 %.0f ops/s (medians of %d pairs)"
        (Meter.median (List.map fst pairs)) (Meter.median (List.map snd pairs)) (List.length pairs);
      "per-op counters, untraced Fleet.run vs traced replay:";
    ]
    @ List.map
        (fun (k, v) ->
          let t = List.assoc k traced in
          Printf.sprintf "  %-10s %10.4f  %10.4f%s" k (ratio (fi v) ops) (ratio (fi t) ops)
            (if t <> v then "  DIVERGES" else ""))
        real
    @ [
        Printf.sprintf "  %-10s %10d  %10d" "segments" r.total_segments (List.length verdicts);
        Printf.sprintf "  %-10s %10d  %10d" "unknowns" r.total_unknowns traced_unknowns;
        segment_shape verdicts;
        Printf.sprintf "tracing overhead: spans on %.1f ms, off %.1f ms" (wall_on /. 1e6)
          (wall_off /. 1e6);
      ]
    @ self_table led ~wall_ns:wall_off
        [
          ("sched.step", sl.step);
          ("sched.policy", sl.policy);
          ("sched.live_pids", sl.live);
          ("sched.watchdog", sl.watchdog);
          ("net.deliver", sl.deliver);
          ("fleet.base_policy", sl.base);
          ("trace.drain", sl.drain);
          ("segmenter", sl.seg);
        ]
  in
  outcome ~attempted:r.total_ops ~failed ~notes values

(* ----- serve: Engine's dispatch, re-driven through public calls ------------------- *)

type serve_slots = { parse : int; sseg : int }

(* Parse each line with Ingest.parse_line and feed per-object
   Segmenters, as Engine does for a clean stream (no quarantine, no
   backpressure: the benchmark's stream is well formed and small). *)
let traced_serve led sl lines =
  let span s f = L.span led s f in
  let metrics = Obs.Metrics.create () in
  let cfg = Serve.Engine.default_config in
  let objects = Hashtbl.create 64 and open_ids = Hashtbl.create 256 in
  let verdicts = ref [] in
  let segmenter obj =
    match Hashtbl.find_opt objects obj with
    | Some s -> s
    | None ->
        let s =
          Segmenter.create ~metrics ~config:cfg.seg ~obj
            ~entry:(Segmenter.entry_exact [ cfg.init ]) ~index:0 ()
        in
        Hashtbl.replace objects obj s;
        s
  in
  let t0 = Meter.now_ns () in
  Array.iter
    (fun line ->
      match span sl.parse (fun () -> Ingest.parse_line line) with
      | Ok (Ingest.Event { time; ev = Ingest.Invoke { op_id; obj; kind; _ } }) ->
          let s = segmenter obj in
          ignore (span sl.sseg (fun () -> Segmenter.invoke s ~id:op_id ~kind ~time));
          Hashtbl.replace open_ids op_id obj
      | Ok (Ingest.Event { time; ev = Ingest.Respond { op_id; result } }) -> (
          match Hashtbl.find_opt open_ids op_id with
          | None -> ()
          | Some obj -> (
              Hashtbl.remove open_ids op_id;
              let s = Hashtbl.find objects obj in
              match span sl.sseg (fun () -> Segmenter.respond s ~id:op_id ~result ~time) with
              | Ok (Some v) -> verdicts := v :: !verdicts
              | Ok None | Error _ -> ()))
      | Ok (Ingest.Annotation _) | Error _ -> ())
    lines;
  let objs = Hashtbl.fold (fun k s acc -> (k, s) :: acc) objects [] in
  List.iter
    (fun (_, s) -> Option.iter (fun v -> verdicts := v :: !verdicts) (Segmenter.flush s))
    (List.sort compare objs);
  (List.rev !verdicts, metrics, fi (Meter.now_ns () - t0))

let serve ~seconds lines =
  let budget = seconds /. 3. in
  (* untraced engine passes: engine ns/event, latency, GC *)
  let engine =
    Untraced.repeat ~seconds:budget ~min_passes:3 (fun _ ->
        Meter.timed (fun () -> Untraced.serve_pass lines))
  in
  let p0, _, g0 = List.hd engine in
  let engine_ns =
    Meter.median (List.map (fun (p, dt, _) -> dt *. 1e9 /. fi p.Untraced.events) engine)
  in
  let led = L.create () in
  L.calibrate led;
  let sl = { parse = L.slot led "ingest.parse_line"; sseg = L.slot led "segmenter" } in
  (* spans on and off alternate, so machine noise hits both alike *)
  let pairs =
    Untraced.repeat ~seconds:(2. *. budget) ~min_passes:3 (fun _ ->
        led.enabled <- true;
        let on = traced_serve led sl lines in
        led.enabled <- false;
        let _, _, off = traced_serve led sl lines in
        (on, off))
  in
  led.enabled <- true;
  let wall_on = Meter.median (List.map (fun ((_, _, w), _) -> w) pairs)
  and wall_off = Meter.median (List.map snd pairs) in
  let (verdicts, mt, _), _ = List.hd pairs in
  let n_on = fi (List.length pairs) in
  let lines_n = fi (L.calls led sl.parse) /. n_on in
  let parse_ns = ratio (L.self_ns led sl.parse) (fi (L.calls led sl.parse)) in
  let events = fi p0.Untraced.events in
  let seg_calls = fi (L.calls led sl.sseg) in
  let seg_ns = ratio (L.self_ns led sl.sseg) seg_calls in
  let unknowns =
    List.length
      (List.filter
         (fun (v : Verdict.t) -> match v.outcome with Verdict.Unknown _ -> true | _ -> false)
         verdicts)
  in
  let diverged =
    (if List.length verdicts <> p0.verdicts then 1 else 0)
    + (if unknowns <> p0.unknowns then 1 else 0)
  in
  let lat = Untraced.latencies (fun ((p : Untraced.serve_pass), _, _) -> p.latencies_ms) engine in
  let values =
    [
      ("segmenter.ns_per_event", seg_ns);
      ("segmenter.words_per_event", ratio (L.self_words led sl.sseg) seg_calls);
      ( "linchk.inc.states_per_event",
        ratio (fi (Obs.Metrics.counter mt "linchk.inc.states")) (seg_calls /. n_on) );
      ("ingest.parse_ns_per_line", parse_ns);
      ("ingest.words_per_line", ratio (L.self_words led sl.parse) (fi (L.calls led sl.parse)));
      (* Engine's own share: its per-event time minus the parse and
         segmenter costs the traced replay attributes *)
      ("engine.dispatch_ns_per_event", Float.max 0. (engine_ns -. (parse_ns *. lines_n /. events) -. seg_ns));
      ("tracing.overhead_share", ratio (wall_on -. wall_off) wall_off);
      ("traced.divergent_counters", fi diverged);
    ]
    @ verdict_metrics verdicts
    @ gc_metrics ~items:p0.events g0
    @ latency_metrics lat
  in
  let notes =
    [
      Printf.sprintf "serve: %d lines; engine %.1f ns/event over %d untraced passes"
        (Array.length lines) engine_ns (List.length engine);
      Printf.sprintf "verdicts, engine vs traced replay: %d / %d (unknown %d / %d)" p0.verdicts
        (List.length verdicts) p0.unknowns unknowns;
      segment_shape verdicts;
      Printf.sprintf "tracing overhead: spans on %.2f ms, off %.2f ms per pass" (wall_on /. 1e6)
        (wall_off /. 1e6);
    ]
    @ self_table led ~wall_ns:(wall_off *. n_on)
        [ ("ingest.parse_line", sl.parse); ("segmenter", sl.sseg) ]
  in
  outcome ~attempted:p0.events ~failed:0 ~notes values

(* ----- check: Lincheck.prep split from decide_prepped, Treecheck -------------------- *)

type check_slots = { prep : int; decide : int; tree : int }

let traced_check led sl (inp : Inputs.check_input) ~m_dec ~m_tree =
  let span s f = L.span led s f in
  let init = Inputs.init in
  let t0 = Meter.now_ns () in
  let r =
    Untraced.check_run inp
      ~witness:(fun h ->
        let p = span sl.prep (fun () -> Linchk.Lincheck.prep ~init h) in
        span sl.decide (fun () -> Linchk.Lincheck.decide_prepped ~metrics:m_dec p))
      ~tree:(fun t -> span sl.tree (fun () -> Linchk.Treecheck.write_strong ~metrics:m_tree ~init t))
  in
  let wall = fi (Meter.now_ns () - t0) in
  (Untraced.check_summary inp r, wall)

let check ~seconds (inp : Inputs.check_input) =
  let budget = seconds /. 3. in
  let untraced =
    Untraced.repeat ~seconds:budget ~min_passes:2 (fun _ -> Untraced.check_pass inp)
  in
  let p0, _, g0 = List.hd untraced in
  let led = L.create () in
  L.calibrate led;
  let sl =
    { prep = L.slot led "lincheck.prep"; decide = L.slot led "lincheck.decide"; tree = L.slot led "treecheck" }
  in
  let m_dec = Obs.Metrics.create () and m_tree = Obs.Metrics.create () in
  (* spans on and off alternate, so machine noise hits both alike *)
  let pairs =
    Untraced.repeat ~seconds:budget ~min_passes:2 (fun _ ->
        led.enabled <- true;
        let on = traced_check led sl inp ~m_dec ~m_tree in
        led.enabled <- false;
        let off =
          traced_check led sl inp ~m_dec:(Obs.Metrics.create ()) ~m_tree:(Obs.Metrics.create ())
        in
        (on, off))
  in
  led.enabled <- true;
  let wall_on = Meter.median (List.map (fun ((_, w), _) -> w) pairs)
  and wall_off = Meter.median (List.map (fun (_, (_, w)) -> w) pairs) in
  let passes = fi (List.length pairs) in
  let hists = fi (L.calls led sl.decide) in
  let states = fi (Obs.Metrics.counter m_dec "linchk.states") in
  let nodes = fi (Obs.Metrics.counter m_tree "treecheck.nodes") in
  let traced = List.map (fun ((p, _), _) -> p) pairs in
  let bad = List.fold_left (fun a (p : Untraced.check_pass) -> a + p.bad) 0 traced in
  let diverged =
    List.length (List.filter (fun (p : Untraced.check_pass) -> p.digest <> p0.digest) traced)
  in
  let values =
    [
      ("linchk.states_per_history", ratio states hists);
      ("linchk.memo_prunes_per_state", ratio (fi (Obs.Metrics.counter m_dec "linchk.memo_prunes")) states);
      ("linchk.ns_per_state", ratio (L.self_ns led sl.decide) states);
      ("linchk.prep_ns_per_history", ratio (L.self_ns led sl.prep) (fi (L.calls led sl.prep)));
      ("treecheck.nodes_per_tree", ratio nodes (fi (L.calls led sl.tree)));
      ( "treecheck.candidates_per_node",
        ratio (fi (Obs.Metrics.counter m_tree "treecheck.candidates")) nodes );
      ("treecheck.ns_per_node", ratio (L.self_ns led sl.tree) nodes);
      ("tracing.overhead_share", ratio (wall_on -. wall_off) wall_off);
      ("traced.divergent_counters", fi diverged);
    ]
    @ gc_metrics ~items:p0.Untraced.items g0
    @ latency_metrics (Untraced.latencies (fun (p, _, _) -> p.Untraced.latencies_ms) untraced)
  in
  let notes =
    [
      Printf.sprintf "check: %d items; %.0f traced passes" p0.items passes;
      Printf.sprintf "tracing overhead: spans on %.1f ms, off %.1f ms per pass" (wall_on /. 1e6)
        (wall_off /. 1e6);
    ]
    @ self_table led ~wall_ns:(wall_off *. passes)
        [ ("lincheck.prep", sl.prep); ("lincheck.decide", sl.decide); ("treecheck", sl.tree) ]
  in
  outcome ~attempted:(p0.items * List.length untraced) ~failed:(p0.bad + bad) ~notes values
