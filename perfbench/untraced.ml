(* The untraced runs: the end-to-end metrics, measured through the
   program's entry points only (Fleet.run, Serve.Engine,
   Lincheck.witness / prep, Treecheck.write_strong), with the output
   checks that feed [failed]. *)

module Hist = History.Hist
module Engine = Serve.Engine
module Verdict = Serve.Verdict

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let m name unit_ value = { name; value; unit_ }

(* Seconds per set-up, at the reference host speed: the median over
   [trials] batches of [batch] set-ups, after one untimed set-up, each
   batch's time over the slowdown that probes around it measure (see
   Meter.slowdown).  run.py reports the median of this figure over
   several fresh processes. *)
let setup_s ?(trials = 15) ~batch f =
  f ();
  let one () =
    let p0 = Meter.probe_s ~reps:10 () in
    let t0 = Meter.now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Meter.secs_since t0 /. float_of_int batch in
    dt /. Meter.slowdown p0 (Meter.probe_s ~reps:10 ())
  in
  Meter.median (List.init trials (fun _ -> one ()))

(* Run [pass 0], [pass 1], ... until [seconds] have elapsed and at least
   [min_passes] passes are done. *)
let repeat ~seconds ~min_passes pass =
  let t0 = Meter.now_ns () in
  let rec go acc n =
    if n >= min_passes && Meter.secs_since t0 >= seconds then List.rev acc
    else go (pass n :: acc) (n + 1)
  in
  go [] 0

(* What a run keeps of a timed pass: items per wall second as measured
   and at the reference host speed (the measured rate times the
   slowdown raised to the workload's [sensitivity]), minor words per
   item, and the verdict latencies of the first [latency_passes] passes
   only (enough for p99).  The benchmark's own heap then does not grow with the pass
   count, so peak_rss_mb stays the program's. *)
type pass = {
  rate : float;  (** at the reference host speed *)
  wall_rate : float;  (** as measured *)
  slow : float;
  words : float;
  lat_ms : float list;
}

let latency_passes = 8

let keep ~sensitivity ~index ~items ?(lat_ms = []) (dt, (g : Meter.gc), slow) =
  let wall_rate = float_of_int items /. dt in
  {
    rate = wall_rate *. (slow ** sensitivity);
    wall_rate;
    slow;
    words = g.Meter.minor_words /. float_of_int items;
    lat_ms = (if index < latency_passes then lat_ms else []);
  }

let quartile_note name unit_ xs =
  Printf.sprintf "%-28s median %.6g  q1 %.6g  q3 %.6g  (%d samples, %s)" name
    (Meter.median xs) (Meter.quantile xs 0.25) (Meter.quantile xs 0.75)
    (List.length xs) unit_

(* latency samples from the first passes only: enough for p99 *)
let latencies f passes =
  List.concat_map f (List.filteri (fun i _ -> i < latency_passes) passes)

let latency_notes samples_ms =
  let n = List.length samples_ms in
  [
    Printf.sprintf "%-28s %.6g ms over %d verdicts" "check_latency_p50_ms"
      (Meter.quantile samples_ms 0.5) n;
    Printf.sprintf "%-28s %.6g ms over %d verdicts (%d beyond it)"
      "check_latency_p99_ms"
      (Meter.quantile samples_ms 0.99) n
      (n - int_of_float (Float.ceil (0.99 *. float_of_int n)));
  ]

(* The measured end-to-end metrics of a run; run.py adds setup_s (from
   [--setup-only] processes) and peak_rss_mb. *)
let finish ~attempted ~failed ~exact_share ~notes passes =
  let rates = List.map (fun p -> p.rate) passes
  and words = List.map (fun p -> p.words) passes in
  let wall = List.map (fun p -> p.wall_rate) passes
  and slow = List.map (fun p -> p.slow) passes in
  {
    attempted;
    failed;
    metrics =
      [
        m "items_per_s" "1/s" (Meter.median rates);
        m "minor_words_per_item" "words" (Meter.median words);
        m "exact_verdict_share" "share" exact_share;
      ];
    notes =
      quartile_note "items_per_s" "1/s" rates
      :: quartile_note "items_per_wall_s" "1/s, as measured" wall
      :: quartile_note "host_slowdown" "probe time / reference" slow
      :: quartile_note "minor_words_per_item" "words" words
      :: notes;
  }

(* ----- fleet workloads -------------------------------------------------------------- *)

let report_string r = Obs.Json.to_string (Fleet.report_json r)

let fleet_run ~jobs cfg =
  Fleet.run ~jobs ~metrics:(Obs.Metrics.create ()) cfg

(* set-up: a Fleet.run with one op per shard — shard, register and
   fiber construction, plus the pool fan-out.  How long those few ops
   take depends on the seed's fault draws, so each batch runs the same
   [batch] seeds after the workload's own and reports their mean. *)
let fleet_setup ~jobs (cfg : Fleet.config) =
  let batch = if jobs > 1 then 25 else 100 in
  let k = ref 0 in
  setup_s ~batch (fun () ->
      let seed = Int64.add cfg.seed (Int64.of_int (!k mod batch)) in
      incr k;
      ignore (fleet_run ~jobs { cfg with ops = cfg.shards; seed }))

let fleet ~jobs ~seconds ~sensitivity (cfg : Fleet.config) =
  (* warm-up: the first pass in a process runs markedly slower *)
  ignore (fleet_run ~jobs { cfg with ops = cfg.ops / 4 });
  let failed = ref 0 and notes = ref [] and reference = ref None in
  let fail ops why =
    failed := !failed + ops;
    notes := ("CHECK FAILED: " ^ why) :: !notes
  in
  let check i (r : Fleet.report) =
    if not r.completed then
      fail (cfg.ops - r.total_ops) (Printf.sprintf "pass %d: a shard stalled" i);
    if r.total_fails > 0 then
      fail r.total_fails (Printf.sprintf "pass %d: %d Fail verdicts" i r.total_fails);
    match !reference with
    | None -> reference := Some (r, report_string r)
    | Some (_, s) ->
        if report_string r <> s then
          fail r.total_ops (Printf.sprintf "pass %d: report differs from pass 0" i)
  in
  let passes =
    repeat ~seconds ~min_passes:3 (fun i ->
        let r, dt, g, slow = Meter.timed_on_host ~reps:100 (fun () -> fleet_run ~jobs cfg) in
        check i r;
        keep ~sensitivity ~index:i ~items:r.total_ops (dt, g, slow))
  in
  let first, reference = Option.get !reference in
  (* the report must not depend on the degree of parallelism *)
  if jobs > 1 && report_string (fleet_run ~jobs:1 cfg) <> reference then
    fail first.total_ops (Printf.sprintf "report at -j %d differs from -j 1" jobs);
  let exact_share =
    if first.total_segments = 0 then 0.
    else
      float_of_int (first.total_segments - first.total_unknowns)
      /. float_of_int first.total_segments
  in
  finish
    ~attempted:(cfg.ops * List.length passes)
    ~failed:!failed ~exact_share
    ~notes:
      (Printf.sprintf "fleet: %d ops/pass, %d passes, -j %d, %d segments, %d unknown"
         cfg.ops (List.length passes) jobs first.total_segments first.total_unknowns
      :: List.rev !notes)
    passes

(* ----- serve-stream ------------------------------------------------------------------ *)

type serve_pass = {
  events : int;
  verdicts : int;
  unknowns : int;
  counts : int * int * int;  (** ok, fail, unknown *)
  latencies_ms : float list;  (** per retiring feed_line call *)
}

(* One closed-loop replay through a fresh engine, as [rlin serve FILE]
   does; each feed_line that retired a segment is that verdict's latency. *)
let serve_pass ?(emit = ignore) lines =
  let metrics = Obs.Metrics.create () in
  let retired = ref 0 in
  let engine =
    Engine.create ~metrics
      ~emit:(fun v ->
        incr retired;
        emit v)
      ()
  in
  let lat = Array.make (Array.length lines) 0 in
  let nlat = ref 0 in
  Array.iter
    (fun line ->
      let before = !retired in
      let t0 = Meter.now_ns () in
      Engine.feed_line engine line;
      if !retired > before then begin
        lat.(!nlat) <- Meter.now_ns () - t0;
        incr nlat
      end)
    lines;
  Engine.finish engine;
  {
    events = Engine.events engine;
    verdicts = Engine.verdicts engine;
    unknowns = Engine.unknown engine;
    counts = (Engine.ok engine, Engine.fail engine, Engine.unknown engine);
    latencies_ms = List.init !nlat (fun i -> float_of_int lat.(i) /. 1e6);
  }

(* Oracle check: the engine's verdicts must agree with the offline
   reference checker, no line may be quarantined, and no atomic-family
   object may fail.  Returns the failed-event count and its reasons. *)
let serve_check lines =
  let got = ref [] in
  let p = serve_pass ~emit:(fun v -> got := v :: !got) lines in
  let engine = List.rev !got in
  let reference = Serve.Reference.run (Array.to_list lines) in
  let cmp = Serve.Reference.compare_verdicts ~engine ~reference:reference.verdicts in
  let failed = ref reference.quarantined and why = ref [] in
  if reference.quarantined > 0 then
    why := Printf.sprintf "%d lines quarantined" reference.quarantined :: !why;
  List.iter
    (fun (e, r) ->
      let ops =
        match (e, r) with
        | Some (v : Verdict.t), _ | None, Some v -> max 1 (2 * v.ops)
        | None, None -> 1
      in
      failed := !failed + ops;
      why := "engine verdict disagrees with Serve.Reference" :: !why)
    cmp.mismatches;
  List.iter
    (fun (v : Verdict.t) ->
      if v.outcome = Verdict.Fail && Inputs.family_of_obj v.obj = Inputs.Atomic then begin
        failed := !failed + (2 * v.ops);
        why := Printf.sprintf "atomic object %s failed" v.obj :: !why
      end)
    engine;
  (p, !failed, List.rev !why)

(* set-up: Engine.create *)
let serve_setup () =
  setup_s ~batch:50_000 (fun () ->
      ignore (Engine.create ~metrics:(Obs.Metrics.create ()) ~emit:ignore ()))

let serve ~seconds ~sensitivity lines =
  let check, failed_check, why = serve_check lines in
  let failed = ref failed_check and notes = ref [] in
  let passes =
    repeat ~seconds ~min_passes:5 (fun i ->
        let p, dt, g, slow = Meter.timed_on_host (fun () -> serve_pass lines) in
        if p.counts <> check.counts then begin
          failed := !failed + p.events;
          notes := Printf.sprintf "CHECK FAILED: pass %d verdict counts drifted" i :: !notes
        end;
        keep ~sensitivity ~index:i ~items:p.events ~lat_ms:p.latencies_ms (dt, g, slow))
  in
  let exact_share =
    float_of_int (check.verdicts - check.unknowns) /. float_of_int (max 1 check.verdicts)
  in
  let ok, fail, unknown = check.counts in
  finish
    ~attempted:(check.events * (List.length passes + 1))
    ~failed:!failed ~exact_share
    ~notes:
      ((Printf.sprintf
          "serve: %d lines/pass, %d passes; verdicts ok %d / fail %d / unknown %d"
          (Array.length lines) (List.length passes) ok fail unknown
       :: latency_notes (List.concat_map (fun p -> p.lat_ms) passes))
      @ List.map (fun w -> "CHECK FAILED: " ^ w) (List.filteri (fun i _ -> i < 20) why)
      @ (if List.length why > 20 then
           [ Printf.sprintf "CHECK FAILED: ... and %d more" (List.length why - 20) ]
         else [])
      @ List.rev !notes)
    passes

(* ----- check-offline ----------------------------------------------------------------- *)

type check_pass = {
  items : int;
  bad : int;  (** atomic-family items that did not pass, or invalid witnesses *)
  unknowns : int;
  digest : string;  (** of every verdict and witness, in input order *)
  latencies_ms : float list;
}

type verdict = Witness of History.Op.t list option | Too_large | Tree of bool

(* The timed part of a pass: the checker calls only, each one timed.
   Histories first (atomic, then arbitrary), then the trees. *)
let check_run ?witness ?tree (inp : Inputs.check_input) =
  let metrics = Obs.Metrics.create () and init = Inputs.init in
  let witness =
    Option.value witness ~default:(fun h -> Linchk.Lincheck.witness ~metrics ~init h)
  and tree = Option.value tree ~default:(fun t -> Linchk.Treecheck.write_strong ~metrics ~init t) in
  let hists = Array.append inp.atomic inp.arbitrary in
  let nh = Array.length hists in
  let lat = Array.make (nh + Array.length inp.trees) 0 in
  let time i f =
    let t0 = Meter.now_ns () in
    let r = f () in
    lat.(i) <- Meter.now_ns () - t0;
    r
  in
  let verdicts =
    Array.append
      (Array.mapi
         (fun i h ->
           time i (fun () ->
               match witness h with w -> Witness w | exception Linchk.Lincheck.Too_large _ -> Too_large))
         hists)
      (Array.mapi (fun i t -> time (nh + i) (fun () -> Tree (tree t))) inp.trees)
  in
  (verdicts, lat)

(* Verification, outside the timed call: every witness must be a
   linearization, every atomic-family item must pass, and the digest of
   all verdicts and witnesses must not change between passes. *)
let check_summary (inp : Inputs.check_input) (verdicts, lat) =
  let bits = Buffer.create 4096 and bad = ref 0 and unknowns = ref 0 in
  let na = Array.length inp.atomic in
  let hists = Array.append inp.atomic inp.arbitrary in
  Array.iteri
    (fun i v ->
      match v with
      | Witness w ->
          (match w with
          | Some w ->
              List.iter
                (fun (o : History.Op.t) -> Buffer.add_string bits (string_of_int o.id ^ ","))
                w;
              Buffer.add_char bits '1';
              if not (Hist.Seq.is_linearization_of ~init:Inputs.init hists.(i) w) then incr bad
          | None ->
              Buffer.add_char bits '0';
              if i < na then incr bad)
      | Too_large ->
          Buffer.add_char bits '?';
          incr unknowns
      | Tree ok ->
          Buffer.add_char bits (if ok then '1' else '0');
          if not ok then incr bad)
    verdicts;
  {
    items = Array.length verdicts;
    bad = !bad;
    unknowns = !unknowns;
    digest = Digest.to_hex (Digest.string (Buffer.contents bits));
    latencies_ms = Array.to_list (Array.map (fun ns -> float_of_int ns /. 1e6) lat);
  }

let check_pass inp =
  let r, dt, g = Meter.timed (fun () -> check_run inp) in
  (check_summary inp r, dt, g)

(* set-up: Lincheck.prep of every history *)
let check_setup (inp : Inputs.check_input) =
  let hists = Array.append inp.atomic inp.arbitrary in
  setup_s ~batch:2 (fun () ->
      Array.iter (fun h -> ignore (Linchk.Lincheck.prep ~init:Inputs.init h)) hists)

let check ~seconds ~sensitivity (inp : Inputs.check_input) =
  ignore (check_pass inp);
  let failed = ref 0 and notes = ref [] and first = ref None in
  let passes =
    repeat ~seconds ~min_passes:5 (fun i ->
        let r, dt, g, slow = Meter.timed_on_host (fun () -> check_run inp) in
        let p = check_summary inp r in
        if p.bad > 0 then begin
          failed := !failed + p.bad;
          notes := Printf.sprintf "CHECK FAILED: pass %d: %d atomic items did not pass" i p.bad :: !notes
        end;
        (match !first with
        | None -> first := Some p
        | Some f ->
            if p.digest <> f.digest then begin
              failed := !failed + p.items;
              notes := Printf.sprintf "CHECK FAILED: pass %d verdict digest drifted" i :: !notes
            end);
        keep ~sensitivity ~index:i ~items:p.items ~lat_ms:p.latencies_ms (dt, g, slow))
  in
  let first = Option.get !first in
  finish
    ~attempted:(first.items * List.length passes)
    ~failed:!failed
    ~exact_share:(float_of_int (first.items - first.unknowns) /. float_of_int first.items)
    ~notes:
      ((Printf.sprintf "check: %d items/pass, %d passes, verdict digest %s" first.items
          (List.length passes) first.digest
       :: latency_notes (List.concat_map (fun p -> p.lat_ms) passes))
      @ List.rev !notes)
    passes
