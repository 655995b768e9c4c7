module Hist = History.Hist

type tree = { hist : Hist.t; children : tree list }

let node hist children =
  List.iter
    (fun c ->
      if not (Hist.is_prefix hist ~of_:c.hist) then
        invalid_arg "Treecheck.node: child does not extend parent")
    children;
  { hist; children }

let chain = function
  | [] -> invalid_arg "Treecheck.chain: empty"
  | hs ->
      let rec build = function
        | [] -> assert false
        | [ h ] -> node h []
        | h :: rest -> node h [ build rest ]
      in
      build hs

let of_prefixes h = chain (Hist.prefixes h)

(* Search: assign to each node a linearization whose (write) sequence
   extends the parent's committed (write) prefix.  We enumerate the
   distinct candidate orders at each node (bounded) and recurse.

   Prep cache: the search probes each node under many prefixes (one per
   surviving candidate of its parent, re-entered on backtrack), but
   Lincheck's O(n²) preprocessing depends only on the node's history — so
   the tree is annotated with its prepped form once, up front, and the
   candidate/recursion loop reuses it. *)

let enum_limit = 4096

type ptree = { phist : Hist.t; p : Lincheck.prepped; pchildren : ptree list }

let rec prep_tree ~init t =
  {
    phist = t.hist;
    p = Lincheck.prep ~init t.hist;
    pchildren = List.map (prep_tree ~init) t.children;
  }

(* tree-search progress probe cadence (node visits between events) *)
let probe_interval = 64

let rec solve_sub ~m ~trc ~nodes ~cands_total ~sel t ~prefix ~depth =
  Obs.Metrics.incr_h nodes;
  (* flight-recorder heartbeat: node visits, candidates generated, depth —
     armed-guarded so untraced searches pay one branch per node *)
  if Obs.Tracer.armed trc then begin
    let nv = Obs.Metrics.read_h nodes in
    if nv mod probe_interval = 0 then
      ignore
        (Obs.Tracer.emit trc ~parent:(-1)
           ~args:
             [
               ("nodes", Obs.Json.Int nv);
               ("candidates", Obs.Json.Int (Obs.Metrics.read_h cands_total));
               ("depth", Obs.Json.Int depth);
             ]
           ~sim:nv ~cat:"check" "treecheck.progress")
  end;
  (* candidate [sel]-subsequence orders of this node extending [prefix] *)
  let cands =
    Lincheck.orders_extending_prepped ~metrics:m t.p ~sel ~prefix
      ~limit:enum_limit
  in
  Obs.Metrics.incr_h ~by:(List.length cands) cands_total;
  let rec try_cands = function
    | [] -> None
    | w :: rest -> (
        match
          solve_children_sub ~m ~trc ~nodes ~cands_total ~sel t.pchildren
            ~prefix:w ~depth:(depth + 1)
        with
        | Some subs -> Some ((t.phist, w) :: subs)
        | None -> try_cands rest)
  in
  try_cands cands

and solve_children_sub ~m ~trc ~nodes ~cands_total ~sel children ~prefix ~depth
    =
  (* reversed-accumulator build (the naive [sub @ subs] was quadratic in
     the pre-order concatenation) *)
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
        match solve_sub ~m ~trc ~nodes ~cands_total ~sel c ~prefix ~depth with
        | None -> None
        | Some sub -> go (List.rev_append sub acc) rest)
  in
  go [] children

let subset_strong_witness ?(metrics = Obs.Metrics.global)
    ?(tracer = Obs.Tracer.null) ~init ~sel t =
  let pt = prep_tree ~init t in
  let nodes = Obs.Metrics.counter_h metrics "treecheck.nodes" in
  let cands_total = Obs.Metrics.counter_h metrics "treecheck.candidates" in
  solve_sub ~m:metrics ~trc:tracer ~nodes ~cands_total ~sel pt ~prefix:[]
    ~depth:0

let subset_strong ?metrics ?tracer ~init ~sel t =
  Option.is_some (subset_strong_witness ?metrics ?tracer ~init ~sel t)

let write_strong_witness ?metrics ?tracer ~init t =
  subset_strong_witness ?metrics ?tracer ~init ~sel:History.Op.is_write t

let write_strong ?metrics ?tracer ~init t =
  Option.is_some (write_strong_witness ?metrics ?tracer ~init t)

let read_strong ?metrics ?tracer ~init t =
  subset_strong ?metrics ?tracer ~init ~sel:History.Op.is_read t

(* Full strong linearizability: same search over full op sequences. *)
let rec solve_s ~m t ~prefix =
  let cands =
    Lincheck.enumerate_prepped ~metrics:m t.p ~limit:enum_limit
    |> List.map (List.map (fun (o : History.Op.t) -> o.id))
    |> List.filter (fun seq ->
           let rec starts_with p s =
             match (p, s) with
             | [], _ -> true
             | _, [] -> false
             | x :: p', y :: s' -> x = y && starts_with p' s'
           in
           starts_with prefix seq)
  in
  List.exists
    (fun seq -> List.for_all (fun c -> solve_s ~m c ~prefix:seq) t.pchildren)
    cands

let strong ?(metrics = Obs.Metrics.global) ~init t =
  solve_s ~m:metrics (prep_tree ~init t) ~prefix:[]
