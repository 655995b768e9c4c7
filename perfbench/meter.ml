(* Measurement primitives shared by the untraced and the traced runs:
   a monotonic nanosecond clock, GC deltas, quantiles, and the span
   ledger the traced replays wrap around each call into a layer. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* ----- GC deltas ------------------------------------------------------------- *)

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* A minor collection first brings every counter up to date: without it
   quick_stat's minor words lag until the next collection.  Pool domains
   have ended by the time a timed call returns, and quick_stat includes
   the allocation of ended domains, so the figure covers all of them. *)
let gc_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* [f ()] with its wall seconds and the GC delta around the call only.
   A compaction first gives every pass the same starting heap, whatever
   the set-up, warm-up or earlier passes left behind. *)
let timed f =
  Gc.compact ();
  let g0 = gc_now () in
  let t0 = now_ns () in
  let r = f () in
  let dt = secs_since t0 in
  let g = gc_delta g0 (gc_now ()) in
  (r, dt, g)

(* ----- host speed ------------------------------------------------------------- *)

(* Other load on the host slows memory-bound code in spells that last
   from seconds to a minute, at times to less than half its speed.  A
   run's median would then depend on the spells it happened to meet.
   The probe below (string keys into a fresh hash table) is slowed by
   the same spells.  [slowdown] is the probe's time over its reference
   time, about the probe's time on the 2-core x86-64 box the benchmark
   was written on when that box was quiet.  A workload is not always as
   memory-bound as the probe, so each one scales a rate by the slowdown
   raised to its own sensitivity (see perfbench.ml).  The probe is
   benchmark code, so a change to the program cannot move it. *)
let probe_ref_s = 3.8e-4

let probe_once () =
  let tbl = Hashtbl.create 16 in
  for i = 1 to 2000 do
    Hashtbl.replace tbl (string_of_int i) [ i ]
  done;
  Sys.opaque_identity tbl |> ignore

(* mean seconds of one probe over [reps] *)
let probe_s ?(reps = 20) () =
  let t0 = now_ns () in
  for _ = 1 to reps do
    probe_once ()
  done;
  secs_since t0 /. float_of_int reps

(* the slowdown from two probes that bracket the measured call *)
let slowdown p0 p1 = (p0 +. p1) /. 2. /. probe_ref_s

(* [timed f] with the slowdown around it.  Each probe runs on a freshly
   compacted heap, so it does not pay for collecting the garbage the
   pass left behind.  The host's speed also flickers within a spell, so
   a pass of seconds needs [reps] above the default to read the speed it
   ran at, not a flicker. *)
let timed_on_host ?reps f =
  Gc.compact ();
  let p0 = probe_s ?reps () in
  let r, dt, g = timed f in
  Gc.compact ();
  let p1 = probe_s ?reps () in
  (r, dt, g, slowdown p0 p1)

(* ----- order statistics -------------------------------------------------------- *)

(* nearest-rank quantile over a copy of [xs]; 0 on an empty sample *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    Array.sort Float.compare a;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))
  end

let median xs = quantile xs 0.5

(* ----- the span ledger ---------------------------------------------------------- *)

(* One slot per layer boundary.  Storage is in flat int / float arrays
   and the open-span stack is a preallocated array, so a span allocates
   nothing itself: the words it reports are the wrapped call's.  Each
   span charges its inclusive time and words to its parent's child
   totals, so a slot's self cost is inclusive minus children minus the
   calibrated cost of the span machinery (see [self_ns]). *)
module Ledger = struct
  let max_slots = 32

  type t = {
    names : string array;
    mutable slots : int;
    calls : int array;
    incl_ns : int array;
    incl_w : float array;
    child_ns : int array;
    child_w : float array;
    child_calls : int array;
    stack : int array;
    mutable depth : int;
    mutable enabled : bool;
    mutable span_ns : float;  (* inclusive cost an empty span reports *)
    mutable nest_ns : float;  (* extra cost one child span adds to its parent *)
    mutable span_w : float;  (* the same two costs in minor words *)
    mutable nest_w : float;
  }

  let create () =
    {
      names = Array.make max_slots "";
      slots = 0;
      calls = Array.make max_slots 0;
      incl_ns = Array.make max_slots 0;
      incl_w = Array.make max_slots 0.;
      child_ns = Array.make max_slots 0;
      child_w = Array.make max_slots 0.;
      child_calls = Array.make max_slots 0;
      stack = Array.make 64 0;
      depth = 0;
      enabled = true;
      span_ns = 0.;
      nest_ns = 0.;
      span_w = 0.;
      nest_w = 0.;
    }

  let slot t name =
    let rec find i =
      if i = t.slots then begin
        t.names.(i) <- name;
        t.slots <- i + 1;
        i
      end
      else if t.names.(i) = name then i
      else find (i + 1)
    in
    find 0

  let reset t =
    Array.fill t.calls 0 max_slots 0;
    Array.fill t.incl_ns 0 max_slots 0;
    Array.fill t.incl_w 0 max_slots 0.;
    Array.fill t.child_ns 0 max_slots 0;
    Array.fill t.child_w 0 max_slots 0.;
    Array.fill t.child_calls 0 max_slots 0;
    t.depth <- 0

  let close t s t0 w0 =
    let dt = now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    t.depth <- t.depth - 1;
    t.calls.(s) <- t.calls.(s) + 1;
    t.incl_ns.(s) <- t.incl_ns.(s) + dt;
    t.incl_w.(s) <- t.incl_w.(s) +. dw;
    if t.depth > 0 then begin
      let p = t.stack.(t.depth - 1) in
      t.child_ns.(p) <- t.child_ns.(p) + dt;
      t.child_w.(p) <- t.child_w.(p) +. dw;
      t.child_calls.(p) <- t.child_calls.(p) + 1
    end

  let span t s f =
    if not t.enabled then f ()
    else begin
      t.stack.(t.depth) <- s;
      t.depth <- t.depth + 1;
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      match f () with
      | r ->
          close t s t0 w0;
          r
      | exception e ->
          close t s t0 w0;
          raise e
    end

  (* Measure the machinery: an empty span's inclusive time, and what a
     parent pays per child beyond the child's own inclusive time. *)
  let calibrate t =
    let probe = create () in
    let e = slot probe "empty" and p = slot probe "parent" in
    let k = 200_000 in
    for _ = 1 to k do
      span probe e ignore
    done;
    reset probe;
    for _ = 1 to k do
      span probe e ignore
    done;
    let per n = n /. float_of_int k in
    let empty = per (float_of_int probe.incl_ns.(e))
    and empty_w = per probe.incl_w.(e) in
    let kids = 64 in
    let reps = k / kids in
    for _ = 1 to reps do
      span probe p (fun () ->
          for _ = 1 to kids do
            span probe e ignore
          done)
    done;
    let per_rep n = n /. float_of_int reps in
    let parent_self = per_rep (float_of_int (probe.incl_ns.(p) - probe.child_ns.(p)))
    and parent_self_w = per_rep (probe.incl_w.(p) -. probe.child_w.(p)) in
    t.span_ns <- empty;
    t.span_w <- empty_w;
    t.nest_ns <- Float.max 0. ((parent_self -. empty) /. float_of_int kids);
    t.nest_w <- Float.max 0. ((parent_self_w -. empty_w) /. float_of_int kids)

  let calls t s = t.calls.(s)

  let self_ns t s =
    Float.max 0.
      (float_of_int (t.incl_ns.(s) - t.child_ns.(s))
      -. (float_of_int t.calls.(s) *. t.span_ns)
      -. (float_of_int t.child_calls.(s) *. t.nest_ns))

  let self_words t s =
    Float.max 0.
      (t.incl_w.(s) -. t.child_w.(s)
      -. (float_of_int t.calls.(s) *. t.span_w)
      -. (float_of_int t.child_calls.(s) *. t.nest_w))
end
