type plan = {
  drop : float;
  duplicate : float;
  delay : float;
  delay_bound : int;
  crash_at : (int * int) list;
  recover_at : (int * int) list;
  partitions : (int * int * int list) list;
}

let none =
  {
    drop = 0.;
    duplicate = 0.;
    delay = 0.;
    delay_bound = 0;
    crash_at = [];
    recover_at = [];
    partitions = [];
  }

let is_benign p =
  p.drop = 0. && p.duplicate = 0. && p.delay = 0. && p.crash_at = []
  && p.recover_at = [] && p.partitions = []

let affects_delivery p =
  p.drop > 0. || p.duplicate > 0. || p.delay > 0. || p.partitions <> []

let validate p =
  let prob name v =
    if not (v >= 0. && v <= 1.) then
      invalid_arg (Printf.sprintf "Faults: %s must be in [0,1] (got %g)" name v)
  in
  prob "drop" p.drop;
  prob "duplicate" p.duplicate;
  prob "delay" p.delay;
  if p.drop +. p.duplicate +. p.delay > 1. then
    invalid_arg "Faults: drop + duplicate + delay must be <= 1";
  if p.delay_bound < 0 then invalid_arg "Faults: delay_bound must be >= 0";
  if p.delay > 0. && p.delay_bound = 0 then
    invalid_arg "Faults: delay > 0 needs delay_bound > 0";
  List.iter
    (fun (step, _) ->
      if step < 0 then invalid_arg "Faults: crash_at steps must be >= 0")
    p.crash_at;
  List.iter
    (fun (step, _) ->
      if step < 0 then invalid_arg "Faults: recover_at steps must be >= 0")
    p.recover_at;
  (* a recovery only makes sense for a node that is down when it fires:
     merge each node's crash and recover events on the timeline and insist
     they alternate crash, recover, crash, ... at strictly increasing
     steps.  This is what rejects recoveries of never-crashed nodes and
     recover-before-crash schedules in one rule. *)
  let nodes =
    List.sort_uniq Int.compare
      (List.map snd p.crash_at @ List.map snd p.recover_at)
  in
  List.iter
    (fun node ->
      let events =
        List.sort compare
          (List.filter_map
             (fun (s, n) -> if n = node then Some (s, `Crash) else None)
             p.crash_at
          @ List.filter_map
              (fun (s, n) -> if n = node then Some (s, `Recover) else None)
              p.recover_at)
      in
      let rec alternate last_step expect = function
        | [] -> ()
        | (step, kind) :: rest ->
            if kind <> expect then
              invalid_arg
                (Printf.sprintf
                   "Faults: node %d %s at step %d without an intervening %s"
                   node
                   (match kind with `Crash -> "crashes" | `Recover -> "recovers")
                   step
                   (match kind with `Crash -> "recovery" | `Recover -> "crash"))
            else if last_step >= 0 && step <= last_step then
              invalid_arg
                (Printf.sprintf
                   "Faults: node %d has two crash/recover events at steps %d \
                    and %d (must be strictly increasing)"
                   node last_step step)
            else
              alternate step
                (match kind with `Crash -> `Recover | `Recover -> `Crash)
                rest
      in
      alternate (-1) `Crash events)
    nodes;
  List.iter
    (fun (start, len, isolated) ->
      if start < 0 then
        invalid_arg
          (Printf.sprintf "Faults: partition start must be >= 0 (got %d)" start);
      if len <= 0 then
        invalid_arg
          (Printf.sprintf
             "Faults: partition interval [%d, %d) is inverted or empty (length \
              %d must be > 0)"
             start (start + len) len);
      if isolated = [] then
        invalid_arg
          (Printf.sprintf
             "Faults: partition at step %d isolates nothing (empty node set)"
             start))
    p.partitions;
  (* overlapping intervals would make [partitioned] an implicit OR of two
     cuts — almost never what a plan author meant; reject loudly *)
  let by_start =
    List.sort
      (fun (a, _, _) (b, _, _) -> Int.compare a b)
      p.partitions
  in
  let rec check_overlap = function
    | (s1, l1, _) :: ((s2, l2, _) :: _ as rest) ->
        if s1 + l1 > s2 then
          invalid_arg
            (Printf.sprintf
               "Faults: partition intervals [%d, %d) and [%d, %d) overlap" s1
               (s1 + l1) s2 (s2 + l2));
        check_overlap rest
    | _ -> ()
  in
  check_overlap by_start

(* ----- serialization --------------------------------------------------------- *)

let plan_json p =
  Obs.Json.Obj
    [
      ("drop", Obs.Json.Float p.drop);
      ("duplicate", Obs.Json.Float p.duplicate);
      ("delay", Obs.Json.Float p.delay);
      ("delay_bound", Obs.Json.Int p.delay_bound);
      ( "crash_at",
        Obs.Json.List
          (List.map
             (fun (step, node) ->
               Obs.Json.Obj
                 [ ("step", Obs.Json.Int step); ("node", Obs.Json.Int node) ])
             p.crash_at) );
      ( "recover_at",
        Obs.Json.List
          (List.map
             (fun (step, node) ->
               Obs.Json.Obj
                 [ ("step", Obs.Json.Int step); ("node", Obs.Json.Int node) ])
             p.recover_at) );
      ( "partitions",
        Obs.Json.List
          (List.map
             (fun (start, len, isolated) ->
               Obs.Json.Obj
                 [
                   ("start", Obs.Json.Int start);
                   ("length", Obs.Json.Int len);
                   ( "isolated",
                     Obs.Json.List
                       (List.map (fun n -> Obs.Json.Int n) isolated) );
                 ])
             p.partitions) );
    ]

let plan_of_json j =
  let ( let* ) = Result.bind in
  let field name conv =
    match Obs.Json.member name j with
    | Some v -> (
        match conv v with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "Faults.plan_of_json: bad %S" name))
    | None -> Error (Printf.sprintf "Faults.plan_of_json: missing %S" name)
  in
  let list_field name item =
    field name (fun v ->
        Option.map (List.filter_map item) (Obs.Json.to_list_opt v))
  in
  let* drop = field "drop" Obs.Json.to_float_opt in
  let* duplicate = field "duplicate" Obs.Json.to_float_opt in
  let* delay = field "delay" Obs.Json.to_float_opt in
  let* delay_bound = field "delay_bound" Obs.Json.to_int_opt in
  let* crash_at =
    list_field "crash_at" (fun e ->
        match
          ( Option.bind (Obs.Json.member "step" e) Obs.Json.to_int_opt,
            Option.bind (Obs.Json.member "node" e) Obs.Json.to_int_opt )
        with
        | Some step, Some node -> Some (step, node)
        | _ -> None)
  in
  (* [recover_at] postdates the first committed corpus entries; a missing
     field means the crash-stop era's empty schedule, so old reproducers
     keep parsing unchanged. *)
  let* recover_at =
    match Obs.Json.member "recover_at" j with
    | None -> Ok []
    | Some v -> (
        match Obs.Json.to_list_opt v with
        | None -> Error "Faults.plan_of_json: bad \"recover_at\""
        | Some items ->
            Ok
              (List.filter_map
                 (fun e ->
                   match
                     ( Option.bind (Obs.Json.member "step" e) Obs.Json.to_int_opt,
                       Option.bind (Obs.Json.member "node" e) Obs.Json.to_int_opt
                     )
                   with
                   | Some step, Some node -> Some (step, node)
                   | _ -> None)
                 items))
  in
  let* partitions =
    list_field "partitions" (fun e ->
        match
          ( Option.bind (Obs.Json.member "start" e) Obs.Json.to_int_opt,
            Option.bind (Obs.Json.member "length" e) Obs.Json.to_int_opt,
            Option.bind (Obs.Json.member "isolated" e) Obs.Json.to_list_opt )
        with
        | Some start, Some len, Some iso ->
            Some (start, len, List.filter_map Obs.Json.to_int_opt iso)
        | _ -> None)
  in
  let p =
    { drop; duplicate; delay; delay_bound; crash_at; recover_at; partitions }
  in
  match validate p with
  | () -> Ok p
  | exception Invalid_argument msg -> Error msg

(* ----- the shrink lattice ----------------------------------------------------- *)

(* The probability ladder the chaos generator draws from and the shrinker
   descends: shrinking replaces a probability by the next rung below it,
   so "minimal drop probability" is a well-defined lattice point and the
   shrinker terminates in at most (ladder length) moves per axis. *)
let prob_ladder = [ 0.; 0.01; 0.02; 0.05; 0.1; 0.15; 0.2; 0.3; 0.5 ]

let rung_below v =
  if v <= 0. then None
  else
    List.fold_left
      (fun best rung -> if rung < v then Some rung else best)
      None prob_ladder

(* Every plan strictly smaller along exactly one axis, in a fixed order
   (probabilities toward 0, crash schedule by single-element subsets,
   partitions dropped, the reorder window halved).  All candidates
   validate: the shrinker never has to catch Invalid_argument. *)
let shrink_plan p =
  let drop_nth xs k = List.filteri (fun i _ -> i <> k) xs in
  let probs =
    List.concat
      [
        (match rung_below p.drop with
        | Some d -> [ { p with drop = d } ]
        | None -> []);
        (match rung_below p.duplicate with
        | Some d -> [ { p with duplicate = d } ]
        | None -> []);
        (match rung_below p.delay with
        | Some d ->
            [ { p with delay = d; delay_bound = (if d = 0. then 0 else p.delay_bound) } ]
        | None -> []);
      ]
  in
  (* dropping a crash also drops the recovery paired with it (the first
     recovery of that node after the crash step — alternation makes that
     the unique match), so every candidate still validates *)
  let crashes =
    List.init (List.length p.crash_at) (fun k ->
        let step, node = List.nth p.crash_at k in
        let paired =
          List.fold_left
            (fun best (s, n) ->
              if n = node && s > step then
                match best with Some b when b <= s -> best | _ -> Some s
              else best)
            None p.recover_at
        in
        let recover_at =
          match paired with
          | None -> p.recover_at
          | Some s ->
              let dropped = ref false in
              List.filter
                (fun (s', n') ->
                  if (not !dropped) && s' = s && n' = node then (
                    dropped := true;
                    false)
                  else true)
                p.recover_at
        in
        { p with crash_at = drop_nth p.crash_at k; recover_at })
  in
  (* a recovery dropped on its own turns a crash–recover pair back into
     crash-stop — strictly simpler; alternation-breaking drops (a middle
     recovery with a later crash of the same node) are filtered out *)
  let recoveries =
    List.filter
      (fun cand -> match validate cand with
        | () -> true
        | exception Invalid_argument _ -> false)
      (List.init (List.length p.recover_at) (fun k ->
           { p with recover_at = drop_nth p.recover_at k }))
  in
  let partitions =
    List.init (List.length p.partitions) (fun k ->
        { p with partitions = drop_nth p.partitions k })
  in
  let window =
    if p.delay = 0. && p.delay_bound > 0 then [ { p with delay_bound = 0 } ]
    else if p.delay > 0. && p.delay_bound > 1 then
      [ { p with delay_bound = p.delay_bound / 2 } ]
    else []
  in
  probs @ crashes @ recoveries @ partitions @ window

let pp_plan fmt p =
  Format.fprintf fmt
    "drop=%g dup=%g delay=%g(<=%d) crashes=%d recoveries=%d partitions=%d"
    p.drop p.duplicate p.delay p.delay_bound
    (List.length p.crash_at)
    (List.length p.recover_at)
    (List.length p.partitions)

type action = Deliver | Drop | Duplicate | Defer

type t = {
  plan_ : plan;
  rng : Rng.t;
  mutable pending_crashes : (int * int) list; (* ascending by step *)
  mutable pending_recoveries : (int * int) list; (* ascending by step *)
}

let create ?(seed = 0xFA17L) plan_ =
  validate plan_;
  {
    plan_;
    rng = Rng.create seed;
    pending_crashes =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) plan_.crash_at;
    pending_recoveries =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) plan_.recover_at;
  }

let plan t = t.plan_

let draw t ~deferrals =
  let p = t.plan_ in
  (* [Rng.float], converted here so the float stays unboxed *)
  let u = Float.of_int (Rng.float_bits t.rng) *. 0x1p-53 in
  if u < p.drop then Drop
  else if u < p.drop +. p.duplicate then Duplicate
  else if u < p.drop +. p.duplicate +. p.delay && deferrals < p.delay_bound
  then Defer
  else Deliver

(* both run once per delivered message: plain recursion over the plan,
   no closure capturing [step] *)
let rec any_active ~step = function
  | [] -> false
  | (start, len, _) :: rest ->
      (step >= start && step < start + len) || any_active ~step rest

let rec any_cut ~step ~src ~dst = function
  | [] -> false
  | (start, len, isolated) :: rest ->
      (step >= start
      && step < start + len
      && List.mem src isolated <> List.mem dst isolated)
      || any_cut ~step ~src ~dst rest

let partition_active t ~step = any_active ~step t.plan_.partitions
let partitioned t ~step ~src ~dst = any_cut ~step ~src ~dst t.plan_.partitions

(* Both pending lists are ascending by step, so the due events are a
   prefix: the common case — nothing due, the head is still in the
   future — returns [] without allocating.  This runs once per
   scheduling decision. *)
let rec split_due ~step = function
  | (s, node) :: rest when s <= step ->
      let due, rest = split_due ~step rest in
      (node :: due, rest)
  | rest -> ([], rest)

let crashes_due t ~step =
  match t.pending_crashes with
  | (s, _) :: _ when s <= step ->
      let due, rest = split_due ~step t.pending_crashes in
      t.pending_crashes <- rest;
      due
  | _ -> []

let recoveries_due t ~step =
  match t.pending_recoveries with
  | (s, _) :: _ when s <= step ->
      let due, rest = split_due ~step t.pending_recoveries in
      t.pending_recoveries <- rest;
      due
  | _ -> []
