(* The repository benchmark.  One workload per invocation:

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perfbench --workload NAME [--seed N] --setup-only

   --trace 0 measures the end-to-end metrics through the program's entry
   points and checks its outputs; --trace 1 runs the traced replays and
   reports the per-layer metrics.  The last stdout line is one JSON
   object {correct, attempted, failed, metrics}.  Exit 1 when an output
   check failed, 2 on a usage error.  --setup-only prints the program's
   set-up seconds alone.  perfbench/run.py builds this, runs it in a
   fresh process, adds the process's peak RSS and the median set-up time
   of several --setup-only processes;
   perfbench/README.md states why each workload exists and which layer
   metric should move which end-to-end metric. *)

let workloads = [ "fleet-abd-lossy"; "fleet-mwabd-checked"; "serve-stream"; "check-offline" ]

(* the fixed default seed; later claims must also hold on the held-out
   seed 7919 *)
let default_seed = 20261017

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setup-only]";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

let parse_args () =
  let workload = ref None and seed = ref default_seed and seconds = ref 20.
  and trace = ref false and setup_only = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := Some w;
        go rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some s -> seed := s | None -> usage ());
        go rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        go rest
    | "--trace" :: t :: rest ->
        (match t with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        go rest
    | "--setup-only" :: rest ->
        setup_only := true;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w when List.mem w workloads -> (w, !seed, !seconds, !trace, !setup_only)
  | _ -> usage ()

let result_json (o : Untraced.outcome) =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool (o.failed = 0));
      ("attempted", Obs.Json.Int o.attempted);
      ("failed", Obs.Json.Int o.failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun (x : Untraced.metric) ->
               ( x.name,
                 Obs.Json.Obj
                   [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.Str x.unit_) ] ))
             o.metrics) );
    ]

(* How closely each workload's speed follows the host's slowdown
   (Meter.slowdown): its rate scales as slowdown ** -sensitivity.  Fitted
   from 2 to 5 seeds per workload, each run once while the 2-core box
   was quiet (slowdown 0.8-1.0) and once while it was busy (2.1-2.9).
   The fleets are about as memory-bound as the probe; check-offline's
   search is much less so. *)
let sensitivity = function
  | "fleet-abd-lossy" -> 1.0
  | "fleet-mwabd-checked" -> 1.07
  | "serve-stream" -> 0.9
  | _ -> 0.73

let run workload ~seed ~seconds ~trace =
  let sensitivity = sensitivity workload in
  match (workload, trace) with
  | "fleet-abd-lossy", false ->
      Untraced.fleet ~jobs:1 ~seconds ~sensitivity (Inputs.fleet_abd_lossy ~seed)
  | "fleet-mwabd-checked", false ->
      Untraced.fleet ~jobs:2 ~seconds ~sensitivity (Inputs.fleet_mwabd_checked ~seed)
  | "serve-stream", false -> Untraced.serve ~seconds ~sensitivity (Inputs.serve_lines ~seed)
  | "check-offline", false -> Untraced.check ~seconds ~sensitivity (Inputs.check_inputs ~seed)
  | "fleet-abd-lossy", true ->
      Traced.fleet ~jobs:1 ~seconds (Inputs.fleet_abd_lossy ~seed)
  | "fleet-mwabd-checked", true ->
      Traced.fleet ~jobs:2 ~seconds (Inputs.fleet_mwabd_checked ~seed)
  | "serve-stream", true -> Traced.serve ~seconds (Inputs.serve_lines ~seed)
  | "check-offline", true -> Traced.check ~seconds (Inputs.check_inputs ~seed)
  | _ -> usage ()

let setup workload ~seed =
  match workload with
  | "fleet-abd-lossy" -> Untraced.fleet_setup ~jobs:1 (Inputs.fleet_abd_lossy ~seed)
  | "fleet-mwabd-checked" -> Untraced.fleet_setup ~jobs:2 (Inputs.fleet_mwabd_checked ~seed)
  | "serve-stream" -> Untraced.serve_setup ()
  | "check-offline" -> Untraced.check_setup (Inputs.check_inputs ~seed)
  | _ -> usage ()

let () =
  let workload, seed, seconds, trace, setup_only = parse_args () in
  if setup_only then begin
    Printf.printf "%.17g\n" (setup workload ~seed);
    exit 0
  end;
  let o = run workload ~seed ~seconds ~trace in
  Printf.printf "# %s seed %d %s\n" workload seed (if trace then "traced" else "untraced");
  List.iter (fun (x : Untraced.metric) ->
      Printf.printf "%-36s %.6g %s\n" x.name x.value x.unit_) o.metrics;
  List.iter print_endline o.notes;
  print_endline (Obs.Json.to_string (result_json o));
  exit (if o.failed = 0 then 0 else 1)
