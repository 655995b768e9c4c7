(* Sample retention cap: quantiles are exact up to this many samples per
   histogram; count/sum/min/max stay exact forever.  Million-sample runs
   (the fleet workloads) keep the first [reservoir_cap] samples as their
   quantile basis — [summary.retained] states that basis explicitly, and
   [delta] emits a [".sampled"] row whenever it is smaller than the
   window's sample count, so reporting at scale never silently pretends
   its percentiles cover every sample. *)
let reservoir_cap = 4096

(* All-float records are stored flat, so a store into one boxes nothing;
   a float field of a mixed record would allocate on every store. *)
type fstats = {
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

type hist = {
  mutable count : int;
  st : fstats;
  mutable samples : floatarray;
  mutable filled : int;
}

type gcell = { mutable g : float }

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gcell) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let global = create ()

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.hists

(* ----- handles: the allocation-free recording path ------------------------

   A handle is the interior mutable cell of a metric, resolved from the
   name table once (at registry/component construction or checker entry)
   so the per-event cost is a bare [ref] bump instead of a string hash +
   Hashtbl probe.  Handles alias the same cells the string API updates,
   so [merge], [snapshot]/[delta] and the per-run-registry isolation of
   Simkit.Pool.map_runs see recordings from either path identically.
   [reset] detaches live handles (it empties the name tables); re-resolve
   after a reset. *)

module Counter = struct
  type t = int ref
end

module Gauge = struct
  (* Resolving a gauge handle must NOT create the gauge: a gauge exists
     in snapshots only once set (unlike counters, gauges have no neutral
     value — reporting an unset gauge as 0 would change deltas).  The
     cell is therefore bound lazily on the first [set]. *)
  type t = {
    tbl : (string, gcell) Hashtbl.t;
    name : string;
    mutable cell : gcell option;
  }
end

module Hist = struct
  type t = hist
end

let counter_h t name : Counter.t =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let incr_h ?(by = 1) (c : Counter.t) =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotone (by < 0)";
  c := !c + by

let read_h (c : Counter.t) = !c

let gauge_h t name : Gauge.t =
  { Gauge.tbl = t.gauges; name; cell = Hashtbl.find_opt t.gauges name }

let gauge_cell (g : Gauge.t) =
  match g.Gauge.cell with
  | Some c -> c
  | None ->
      let c =
        match Hashtbl.find_opt g.Gauge.tbl g.Gauge.name with
        | Some c -> c
        | None ->
            let c = { g = 0. } in
            Hashtbl.add g.Gauge.tbl g.Gauge.name c;
            c
      in
      g.Gauge.cell <- Some c;
      c

let set_gauge_h g v = (gauge_cell g).g <- v
let set_gauge_int_h g n = (gauge_cell g).g <- float_of_int n

let empty_hist () =
  {
    count = 0;
    st = { sum = 0.; min_v = Float.infinity; max_v = Float.neg_infinity };
    samples = Float.Array.create 16;
    filled = 0;
  }

let hist_h t name : Hist.t =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = empty_hist () in
      Hashtbl.add t.hists name h;
      h

let observe_h (h : Hist.t) v =
  h.count <- h.count + 1;
  let st = h.st in
  st.sum <- st.sum +. v;
  if v < st.min_v then st.min_v <- v;
  if v > st.max_v then st.max_v <- v;
  assert (h.filled <= reservoir_cap);
  if h.filled < reservoir_cap then begin
    if h.filled = Float.Array.length h.samples then begin
      let bigger =
        Float.Array.create (Stdlib.min reservoir_cap (2 * h.filled))
      in
      Float.Array.blit h.samples 0 bigger 0 h.filled;
      h.samples <- bigger
    end;
    Float.Array.set h.samples h.filled v;
    h.filled <- h.filled + 1
  end

(* ----- string API: thin wrappers over the handles ------------------------- *)

let incr ?by t name = incr_h ?by (counter_h t name)
let set_gauge t name v = set_gauge_h (gauge_h t name) v
let observe t name v = observe_h (hist_h t name) v

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Fold [src] into [into], exactly as if every recording made into [src]
   had been made into [into] instead, in the same order: counters add,
   gauges overwrite (last write wins), histograms concatenate (count, sum
   and extrema are exact; reservoir samples append until the cap).  Used
   by the parallel run harness (Simkit.Pool.map_runs) to fold per-run
   registries into the experiment's registry in run order. *)
let merge ~into src =
  Hashtbl.iter (fun name r -> incr ~by:!r into name) src.counters;
  Hashtbl.iter (fun name c -> set_gauge into name c.g) src.gauges;
  Hashtbl.iter
    (fun name (h : hist) ->
      if h.count > 0 then begin
        let d =
          match Hashtbl.find_opt into.hists name with
          | Some d -> d
          | None ->
              let d = empty_hist () in
              Hashtbl.add into.hists name d;
              d
        in
        d.count <- d.count + h.count;
        d.st.sum <- d.st.sum +. h.st.sum;
        if h.st.min_v < d.st.min_v then d.st.min_v <- h.st.min_v;
        if h.st.max_v > d.st.max_v then d.st.max_v <- h.st.max_v;
        let want = Stdlib.min reservoir_cap (d.filled + h.filled) in
        if want > Float.Array.length d.samples then begin
          let bigger = Float.Array.create want in
          Float.Array.blit d.samples 0 bigger 0 d.filled;
          d.samples <- bigger
        end;
        let extra = want - d.filled in
        if extra > 0 then begin
          Float.Array.blit h.samples 0 d.samples d.filled extra;
          d.filled <- want
        end
      end)
    src.hists

let gauge t name =
  Option.map (fun c -> c.g) (Hashtbl.find_opt t.gauges name)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  retained : int;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let summarize (h : hist) =
  if h.count = 0 then None
  else begin
    let sorted = Float.Array.sub h.samples 0 h.filled in
    Float.Array.sort Float.compare sorted;
    let quantile q =
      let i =
        int_of_float (Float.round (q *. float_of_int (h.filled - 1)))
      in
      Float.Array.get sorted (Stdlib.max 0 (Stdlib.min (h.filled - 1) i))
    in
    Some
      {
        count = h.count;
        sum = h.st.sum;
        min = h.st.min_v;
        max = h.st.max_v;
        mean = h.st.sum /. float_of_int h.count;
        retained = h.filled;
        p50 = quantile 0.5;
        p90 = quantile 0.9;
        p95 = quantile 0.95;
        p99 = quantile 0.99;
      }
  end

let summary t name = Option.join (Option.map summarize (Hashtbl.find_opt t.hists name))

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}

let by_name (a, _) (b, _) = String.compare a b

let snapshot (t : t) =
  {
    counters =
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
      |> List.sort by_name;
    gauges =
      Hashtbl.fold (fun k c acc -> (k, c.g) :: acc) t.gauges []
      |> List.sort by_name;
    histograms =
      Hashtbl.fold
        (fun k h acc ->
          match summarize h with Some s -> (k, s) :: acc | None -> acc)
        t.hists []
      |> List.sort by_name;
  }

let delta ~before ~after =
  let counter_before n =
    Option.value ~default:0 (List.assoc_opt n before.counters)
  in
  let counters =
    List.filter_map
      (fun (n, v) ->
        let d = v - counter_before n in
        if d > 0 then Some (n, float_of_int d) else None)
      after.counters
  in
  let gauges =
    List.filter_map
      (fun (n, v) ->
        match List.assoc_opt n before.gauges with
        | Some v' when Float.equal v v' -> None
        | _ -> Some (n, v))
      after.gauges
  in
  let hists =
    List.concat_map
      (fun (n, (s : summary)) ->
        let before_s = List.assoc_opt n before.histograms in
        let c0, sum0 =
          match before_s with Some b -> (b.count, b.sum) | None -> (0, 0.)
        in
        let dc = s.count - c0 in
        if dc <= 0 then []
        else
          (* Quantiles are read from the [after] summary: exact when the
             histogram is new in this window (the common case — each
             experiment names its own), approximate (whole-reservoir)
             when samples predate the window.  Past the reservoir cap the
             basis shrinks below the sample count; the [".sampled"] row
             states how many samples the percentiles actually cover, so
             million-sample fleet reports declare their sampling basis. *)
          (n ^ ".n", float_of_int dc)
          :: (n ^ ".mean", (s.sum -. sum0) /. float_of_int dc)
          :: (n ^ ".p50", s.p50)
          :: (n ^ ".p95", s.p95)
          :: (n ^ ".p99", s.p99)
          ::
          (if s.retained < s.count then
             [ (n ^ ".sampled", float_of_int s.retained) ]
           else []))
      after.histograms
  in
  List.sort by_name (counters @ gauges @ hists)

let pp fmt t =
  let s = snapshot t in
  Format.fprintf fmt "@[<v>";
  if s.counters <> [] then begin
    Format.fprintf fmt "%-34s %12s@," "counter" "value";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "%-34s %12d@," n v)
      s.counters
  end;
  if s.gauges <> [] then begin
    Format.fprintf fmt "%-34s %12s@," "gauge" "value";
    List.iter
      (fun (n, v) -> Format.fprintf fmt "%-34s %12.2f@," n v)
      s.gauges
  end;
  if s.histograms <> [] then begin
    Format.fprintf fmt "%-34s %8s %10s %10s %10s %10s %10s@," "histogram"
      "n" "mean" "p50" "p95" "p99" "max";
    List.iter
      (fun (n, (h : summary)) ->
        Format.fprintf fmt "%-34s %8d %10.2f %10.2f %10.2f %10.2f %10.2f%s@,"
          n h.count h.mean h.p50 h.p95 h.p99 h.max
          (if h.retained < h.count then
             Printf.sprintf "  (quantiles over first %d)" h.retained
           else ""))
      s.histograms
  end;
  Format.fprintf fmt "@]"
