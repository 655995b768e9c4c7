(* Workload inputs.  Everything here is a pure function of the workload
   seed and is built before the program under test sees it; the
   program's own set-up (engine, shard, prep construction) is measured
   separately as setup_s. *)

module V = History.Value
module Gen = History.Gen
module Hist = History.Hist
module Faults = Simkit.Faults

let init = V.Int 0
let rand ~seed stream = Random.State.make [| 0x9E4C; seed; stream |]

(* ----- fleet configurations ------------------------------------------------------ *)

(* ABD under lossy links with delivery batching: the simulator substrate
   (scheduler, fault draws, batch scan, retransmits) does most of the
   work; only shard 0 is stream-checked. *)
let fleet_abd_lossy ~seed =
  {
    Fleet.default with
    shards = 4;
    n = 3;
    proto = Fleet.Sw;
    slots = 4;
    ops = 100_000;
    keys = 256;
    write_ratio = 0.2;
    faults = { Faults.none with drop = 0.05; duplicate = 0.02 };
    persist = `Every;
    batch_window = 8;
    batch_max = 8;
    seed = Int64.of_int seed;
    sample = 1;
  }

(* MW-ABD, writes beside reads, one crash/recovery pair, reliable
   unbatched links (Net's draw-free path), every shard stream-checked. *)
let fleet_mwabd_checked ~seed =
  {
    Fleet.default with
    shards = 4;
    n = 3;
    proto = Fleet.Mw;
    slots = 2;
    ops = 60_000;
    keys = 256;
    write_ratio = 0.5;
    faults = { Faults.none with crash_at = [ (400, 2) ]; recover_at = [ (900, 2) ] };
    persist = `Every;
    batch_window = 0;
    batch_max = 1;
    seed = Int64.of_int seed;
    sample = 4;
  }

(* ----- the serve stream ------------------------------------------------------------ *)

type family = Atomic | Arbitrary

let family_prefix = function Atomic -> "a" | Arbitrary -> "x"

let family_of_obj obj =
  if String.length obj > 0 && obj.[0] = 'a' then Atomic else Arbitrary

let spec ~obj ~n_procs ~n_ops = { Gen.default_spec with obj; n_procs; n_ops }

(* One busy stretch: the history with one more read, by a process of
   its own, that spans every other event and returns the initial value
   (linearizable first, so the history's verdict is unchanged).  The
   object is never quiescent until that read responds, so the whole
   history is one segment, as a stretch of back-to-back client ops is
   in a fleet shard. *)
let straddle h =
  let evs = Hist.events h in
  let last_id, last_proc =
    List.fold_left
      (fun (i, p) { History.Event.event; _ } ->
        match event with
        | History.Event.Invoke { op_id; proc; _ } -> (max i op_id, max p proc)
        | _ -> (i, p))
      (0, 0) evs
  in
  let obj = List.hd (Hist.objects h) in
  let id = last_id + 1 in
  let shifted =
    List.map (fun (e : History.Event.timed) -> { e with time = e.time + 1 }) evs
  in
  Hist.of_events_exn
    (({ time = 0; event = History.Event.Invoke { op_id = id; proc = last_proc + 1; obj; kind = History.Op.Read } }
      : History.Event.timed)
     :: shifted
    @ [ { time = Hist.max_time h + 2; event = History.Event.Respond { op_id = id; result = Some init } } ])

(* The stream's mix copies the segment shape of fleet-mwabd-checked,
   the fleet workload whose every shard is checked.  Its traced run
   prints that shape: at seeds 20261017, 7919 and 1, 9.5-10.6% of its
   segments outgrow the 62-op cap, hold 31-34% of the checked ops and
   average 91 ops; the other segments average 21 ops.  A shard has 2
   client slots, so at most 2 of its ops overlap.  Here every history is
   one straddled busy stretch of 2 processes plus the straddling read:
   one in ten is 91 ops (an op-cap segment) and the rest 17-25 ops,
   21 on average.  One in six of the rest is arbitrary, so often not
   linearizable; the fleet runs correct protocols and has no such
   figure to copy, so that share is the stream's own choice. *)
let serve_histories ~seed =
  let st = rand ~seed 1 in
  let mk fam i ~n_ops =
    let obj = Printf.sprintf "%s%04d" (family_prefix fam) i in
    let s = spec ~obj ~n_procs:2 ~n_ops in
    straddle
      (match fam with
      | Atomic -> Gen.atomic_history s st
      | Arbitrary -> Gen.arbitrary_history s st)
  in
  List.init 700 (fun i ->
      if i mod 10 = 9 then mk Atomic i ~n_ops:90
      else mk (if i mod 6 = 5 then Arbitrary else Atomic) i ~n_ops:(16 + Random.State.int st 9))

(* Interleave the histories into one JSONL stream, as a server sees
   several objects' clients at once: up to [lanes] histories are live
   (4, the shards fleet-mwabd-checked streams to its checkers),
   each step emits the next event of a random live one.  Global times
   are renumbered (per-object order is kept, so per-object verdicts are
   the histories' own) and op ids / process ids are offset per history
   so they never collide across objects. *)
let serve_lines ~seed =
  let st = rand ~seed 2 in
  let lanes = 4 in
  let queue = Queue.of_seq (List.to_seq (serve_histories ~seed)) in
  let live = Array.make lanes [] in
  let id_off = Array.make lanes 0 and proc_off = Array.make lanes 0 in
  let next_id = ref 0 and next_proc = ref 0 in
  let refill k =
    match Queue.take_opt queue with
    | None -> live.(k) <- []
    | Some h ->
        let evs = Hist.events h in
        id_off.(k) <- !next_id;
        proc_off.(k) <- !next_proc;
        List.iter
          (fun { History.Event.event; _ } ->
            match event with
            | History.Event.Invoke { op_id; proc; _ } ->
                next_id := max !next_id (id_off.(k) + op_id + 1);
                next_proc := max !next_proc (proc_off.(k) + proc + 1)
            | History.Event.Respond _ -> ())
          evs;
        live.(k) <- evs
  in
  for k = 0 to lanes - 1 do
    refill k
  done;
  let time = ref 0 in
  let lines = ref [] in
  let rec loop () =
    let open_lanes =
      List.filter (fun k -> live.(k) <> []) (List.init lanes Fun.id)
    in
    match open_lanes with
    | [] -> ()
    | _ ->
        let k = List.nth open_lanes (Random.State.int st (List.length open_lanes)) in
        (match live.(k) with
        | [] -> ()
        | { History.Event.event; _ } :: rest ->
            incr time;
            let ev =
              match event with
              | History.Event.Invoke { op_id; proc; obj; kind } ->
                  Serve.Ingest.Invoke
                    { op_id = op_id + id_off.(k); proc = proc + proc_off.(k); obj; kind }
              | History.Event.Respond { op_id; result } ->
                  Serve.Ingest.Respond { op_id = op_id + id_off.(k); result }
            in
            lines :=
              Obs.Json.to_string (Serve.Ingest.event_json ~time:!time ev) :: !lines;
            live.(k) <- rest;
            if rest = [] then refill k);
        loop ()
  in
  loop ();
  Array.of_list (List.rev !lines)

(* ----- the offline checker set ----------------------------------------------------- *)

type check_input = {
  atomic : Hist.t array;  (** linearizable by construction *)
  arbitrary : Hist.t array;  (** often not; the DFS must exhaust the memo *)
  trees : Linchk.Treecheck.tree array;  (** prefix chains of atomic histories *)
}

let check_inputs ~seed =
  let st = rand ~seed 3 in
  let gen g n ~n_procs ~n_ops =
    Array.init n (fun _ -> g (spec ~obj:"R" ~n_procs ~n_ops) st)
  in
  {
    atomic = gen Gen.atomic_history 1600 ~n_procs:8 ~n_ops:30;
    arbitrary = gen Gen.arbitrary_history 320 ~n_procs:8 ~n_ops:24;
    trees =
      Array.map Linchk.Treecheck.of_prefixes
        (gen Gen.atomic_history 128 ~n_procs:3 ~n_ops:9);
  }

