type decision = Step of int | Halt

type t = {
  tr : Trace.t;
  rng_ : Rng.t;
  fibers : (int, Fiber.t) Hashtbl.t;
  mutable crashed_ : int list;
  incarnations : (int, int) Hashtbl.t; (* absent = 0 *)
  mutable rr_cursor : int;
  mutable steps_ : int;
  (* the live set — [pids] filtered by [runnable], ascending — rebuilt
     lazily after any liveness change marks it stale, so a scheduling
     decision reads an array instead of folding, sorting and filtering
     the fiber table *)
  mutable live_ : int array;
  (* [Step live_.(i)] at index [i], rebuilt with [live_], so the policies
     hand back a cached decision instead of allocating one *)
  mutable live_steps : decision array;
  mutable live_stale : bool;
  metrics_ : Obs.Metrics.t;
  tracer_ : Obs.Tracer.t;
  (* metric handles, resolved once at creation (hot-path discipline) *)
  spawns_c : Obs.Metrics.Counter.t;
  steps_c : Obs.Metrics.Counter.t;
  crashes_c : Obs.Metrics.Counter.t;
  restarts_c : Obs.Metrics.Counter.t;
  recycles_c : Obs.Metrics.Counter.t;
  coins_c : Obs.Metrics.Counter.t;
  runs_c : Obs.Metrics.Counter.t;
  watchdog_c : Obs.Metrics.Counter.t;
  run_steps_h : Obs.Metrics.Hist.t;
}

let create ?(seed = 1L) ?(metrics = Obs.Metrics.global)
    ?(tracer = Obs.Tracer.null) () =
  {
    tr = Trace.create ~metrics ();
    rng_ = Rng.create seed;
    fibers = Hashtbl.create 16;
    crashed_ = [];
    incarnations = Hashtbl.create 8;
    rr_cursor = 0;
    steps_ = 0;
    live_ = [||];
    live_steps = [||];
    live_stale = true;
    metrics_ = metrics;
    tracer_ = tracer;
    spawns_c = Obs.Metrics.counter_h metrics "sched.spawns";
    steps_c = Obs.Metrics.counter_h metrics "sched.steps";
    crashes_c = Obs.Metrics.counter_h metrics "sched.crashes";
    restarts_c = Obs.Metrics.counter_h metrics "sched.restarts";
    recycles_c = Obs.Metrics.counter_h metrics "sched.recycles";
    coins_c = Obs.Metrics.counter_h metrics "sched.coins";
    runs_c = Obs.Metrics.counter_h metrics "sched.runs";
    watchdog_c = Obs.Metrics.counter_h metrics "sched.watchdog.fired";
    run_steps_h = Obs.Metrics.hist_h metrics "sched.run.steps";
  }

let trace t = t.tr
let rng t = t.rng_
let now t = Trace.now t.tr
let steps t = t.steps_
let metrics t = t.metrics_
let tracer t = t.tracer_

let spawn t ~pid f =
  if Hashtbl.mem t.fibers pid then
    invalid_arg (Printf.sprintf "Sched.spawn: duplicate pid %d" pid);
  Obs.Metrics.incr_h t.spawns_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "spawn");
  Hashtbl.add t.fibers pid (Fiber.spawn ~pid f);
  t.live_stale <- true

let pids t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.fibers []
  |> List.sort Int.compare

let find t pid =
  match Hashtbl.find t.fibers pid with
  | f -> f
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Sched: unknown pid %d" pid)

let status t ~pid = Fiber.status (find t pid)
let crashed t ~pid = List.mem pid t.crashed_

let runnable t ~pid =
  (not (crashed t ~pid))
  && match status t ~pid with Fiber.Runnable -> true | _ -> false

let live t =
  if t.live_stale then begin
    t.live_ <- Array.of_list (List.filter (fun pid -> runnable t ~pid) (pids t));
    t.live_steps <- Array.map (fun pid -> Step pid) t.live_;
    t.live_stale <- false
  end;
  t.live_

let live_pids t = Array.to_list (live t)

let step t ~pid =
  if crashed t ~pid then
    invalid_arg (Printf.sprintf "Sched.step: pid %d has crashed" pid);
  let f = find t pid in
  (match Fiber.status f with
  | Fiber.Runnable -> ()
  | _ -> invalid_arg (Printf.sprintf "Sched.step: pid %d is not runnable" pid));
  Obs.Metrics.incr_h t.steps_c;
  t.steps_ <- t.steps_ + 1;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "step");
  match Fiber.step f with
  | Fiber.Runnable as s -> s
  | Fiber.Finished as s ->
      t.live_stale <- true;
      s
  | Fiber.Failed e ->
      t.live_stale <- true;
      raise e

let crash t ~pid =
  ignore (find t pid);
  if not (crashed t ~pid) then begin
    t.crashed_ <- pid :: t.crashed_;
    t.live_stale <- true;
    Obs.Metrics.incr_h t.crashes_c;
    if Obs.Tracer.armed t.tracer_ then
      ignore
        (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
           ~cat:"sched" "crash");
    Trace.note t.tr ~tag:"crash" ~text:(Printf.sprintf "p%d" pid)
  end

(* read on every send and every collected reply: no [Some] per lookup *)
let incarnation t ~pid =
  if Hashtbl.mem t.incarnations pid then Hashtbl.find t.incarnations pid
  else 0

let restart t ~pid f =
  ignore (find t pid);
  if not (crashed t ~pid) then
    invalid_arg (Printf.sprintf "Sched.restart: pid %d has not crashed" pid);
  t.crashed_ <- List.filter (fun p -> p <> pid) t.crashed_;
  Hashtbl.replace t.fibers pid (Fiber.spawn ~pid f);
  t.live_stale <- true;
  let inc = incarnation t ~pid + 1 in
  Hashtbl.replace t.incarnations pid inc;
  Obs.Metrics.incr_h t.restarts_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1)
         ~args:[ ("incarnation", Obs.Json.Int inc) ]
         ~sim:t.steps_ ~cat:"sched" "recover");
  Trace.note t.tr ~tag:"recover" ~text:(Printf.sprintf "p%d i%d" pid inc);
  inc

(* Generational slot reuse: replace a finished fiber with fresh code at
   the same pid.  Unlike [spawn] this grows no table (Hashtbl.replace on
   an existing key), and unlike [restart] it bumps no incarnation — the
   slot's previous occupant terminated normally, so there is no pre-crash
   ghost for the network to reject.  This is what lets a fleet run
   millions of short-lived client sessions through a fixed set of fiber
   slots with flat scheduler memory. *)
let recycle t ~pid f =
  (match Fiber.status (find t pid) with
  | Fiber.Finished -> ()
  | Fiber.Runnable | Fiber.Failed _ ->
      invalid_arg (Printf.sprintf "Sched.recycle: pid %d has not finished" pid));
  if crashed t ~pid then
    invalid_arg (Printf.sprintf "Sched.recycle: pid %d has crashed" pid);
  Hashtbl.replace t.fibers pid (Fiber.spawn ~pid f);
  t.live_stale <- true;
  Obs.Metrics.incr_h t.recycles_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:pid ~parent:(-1) ~sim:t.steps_
         ~cat:"sched" "recycle")

let coin t ~proc =
  let v = Rng.coin t.rng_ in
  Obs.Metrics.incr_h t.coins_c;
  if Obs.Tracer.armed t.tracer_ then
    ignore
      (Obs.Tracer.emit t.tracer_ ~track:proc ~parent:(-1)
         ~args:[ ("value", Obs.Json.Int v) ]
         ~sim:t.steps_ ~cat:"sched" "coin");
  Trace.coin t.tr ~proc ~value:v;
  v

type policy = t -> decision

type stall = {
  window : int;
  total_steps : int;
  fibers : (int * string * bool) list;
  detail : string;
}

exception Stalled of stall

type watchdog = {
  window : int;
  progress : unit -> int;
  describe : unit -> string;
}

let stall_report t w =
  {
    window = w.window;
    total_steps = t.steps_;
    fibers =
      List.map
        (fun pid ->
          ( pid,
            (match status t ~pid with
            | Fiber.Runnable -> "runnable"
            | Fiber.Finished -> "finished"
            | Fiber.Failed _ -> "failed"),
            crashed t ~pid ))
        (pids t);
    detail = w.describe ();
  }

let stall_message (s : stall) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "scheduler watchdog: no progress for %d steps (total steps %d)\nfibers:\n"
    s.window s.total_steps;
  List.iter
    (fun (pid, status, crashed) ->
      Printf.bprintf b "  p%d: %s%s\n" pid status
        (if crashed then " (crashed)" else ""))
    s.fibers;
  if s.detail <> "" then Printf.bprintf b "%s\n" s.detail;
  Buffer.contents b

let stall_json (s : stall) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.Str "stall");
      ("window", Obs.Json.Int s.window);
      ("total_steps", Obs.Json.Int s.total_steps);
      ( "fibers",
        Obs.Json.List
          (List.map
             (fun (pid, status, crashed) ->
               Obs.Json.Obj
                 [
                   ("pid", Obs.Json.Int pid);
                   ("status", Obs.Json.Str status);
                   ("crashed", Obs.Json.Bool crashed);
                 ])
             s.fibers) );
      ("detail", Obs.Json.Str s.detail);
    ]

let run ?watchdog t ~policy ~max_steps =
  let steps = ref 0 in
  let continue_ = ref true in
  (* watchdog state: the progress value at the last window boundary *)
  let last_progress =
    ref (match watchdog with Some w -> w.progress () | None -> 0)
  in
  let since = ref 0 in
  Obs.Metrics.incr_h t.runs_c;
  while !continue_ && !steps < max_steps do
    if Array.length (live t) = 0 then continue_ := false
    else
      match policy t with
      | Halt -> continue_ := false
      | Step pid ->
          ignore (step t ~pid);
          incr steps;
          (match watchdog with
          | None -> ()
          | Some w ->
              incr since;
              if !since >= w.window then begin
                let p = w.progress () in
                if p = !last_progress then begin
                  Obs.Metrics.incr_h t.watchdog_c;
                  Obs.Metrics.observe_h t.run_steps_h (float_of_int !steps);
                  if Obs.Tracer.armed t.tracer_ then
                    ignore
                      (Obs.Tracer.emit t.tracer_ ~parent:(-1)
                         ~args:[ ("window", Obs.Json.Int w.window) ]
                         ~sim:t.steps_ ~cat:"sched" "watchdog");
                  let report = stall_report t w in
                  Trace.note t.tr ~tag:"watchdog"
                    ~text:
                      (Printf.sprintf "stalled after %d steps without progress"
                         w.window);
                  raise (Stalled report)
                end;
                last_progress := p;
                since := 0
              end)
  done;
  Obs.Metrics.observe_h t.run_steps_h (float_of_int !steps);
  !steps

let round_robin t =
  let n = Array.length (live t) in
  if n = 0 then Halt
  else begin
    let d = t.live_steps.(t.rr_cursor mod n) in
    t.rr_cursor <- t.rr_cursor + 1;
    d
  end

let random_policy rng t =
  let n = Array.length (live t) in
  if n = 0 then Halt else t.live_steps.(Rng.int rng n)

let scripted script =
  let remaining = ref script in
  fun t ->
    let rec next () =
      match !remaining with
      | [] -> Halt
      | pid :: rest ->
          remaining := rest;
          if runnable t ~pid then Step pid else next ()
    in
    next ()
