(** Named metric registries: monotone counters, gauges and histograms.

    Instrumented code (the scheduler, the network, the checkers, the
    registers) records into a registry by metric name; analysis code reads
    it back as a {!snapshot}.  A process-wide {!global} registry is the
    default sink — experiment drivers measure a workload by taking a
    snapshot before and after and computing the {!delta}, so concurrent
    accumulation from unrelated code is harmless.

    Metric names are dot-separated paths ([sched.steps], [linchk.states],
    [net.sends], [span.e1.wall_ms]); see DESIGN.md "Observability" for the
    catalogue. *)

type t
(** A registry. *)

val reservoir_cap : int
(** Histogram sample-retention cap (4096): quantiles are computed over at
    most this many samples per histogram, while count/sum/min/max/mean
    stay exact at any scale.  {!summary.retained} and the [".sampled"]
    {!delta} row state the basis whenever a histogram outgrows it. *)

val create : unit -> t

val global : t
(** The default process-wide registry; every instrumented component
    records here unless given another registry explicitly. *)

val reset : t -> unit
(** Drop every metric (used by tests to isolate measurements). *)

(** {2 Recording} *)

val incr : ?by:int -> t -> string -> unit
(** Bump a monotone counter (created at 0 on first use).
    @raise Invalid_argument if [by < 0] — counters only go up. *)

val set_gauge : t -> string -> float -> unit
(** Set a gauge to its current value (e.g. messages in flight). *)

val observe : t -> string -> float -> unit
(** Add one sample to a histogram (e.g. a latency in simulated steps). *)

(** {2 Handles — the allocation-free recording path}

    The string API above hashes the metric name on every recording; that
    is fine for per-run events but dominates checker inner loops (one
    DFS state = one [incr]).  A handle resolves the name once and pins
    the metric's interior cell: [incr_h] is a bare [ref] bump, no
    hashing, no allocation.  Handles alias the cells the string API
    updates — both paths hit the same counter, and {!merge},
    {!snapshot}/{!delta} and the per-run-registry isolation of
    [Simkit.Pool.map_runs] are oblivious to which path recorded.

    Resolve handles at component construction or checker entry — never
    per event (that would re-pay the lookup the handle exists to avoid).
    {!reset} empties the name tables and thereby detaches live handles
    (their bumps land in orphaned cells): re-resolve after a reset.
    See DESIGN.md "hot-path discipline". *)

module Counter : sig
  type t
end

module Gauge : sig
  type t
end

module Hist : sig
  type t
end

val counter_h : t -> string -> Counter.t
(** Resolve (creating at 0 if absent) a counter handle. *)

val incr_h : ?by:int -> Counter.t -> unit
(** Bump through a handle.
    @raise Invalid_argument if [by < 0]. *)

val read_h : Counter.t -> int
(** Current value through a handle — a bare dereference, cheap enough for
    periodic probes inside checker inner loops. *)

val gauge_h : t -> string -> Gauge.t
(** Resolve a gauge handle.  Does {e not} create the gauge: a gauge
    appears in snapshots only once set (there is no neutral value), so
    the cell is bound on the first {!set_gauge_h}. *)

val set_gauge_h : Gauge.t -> float -> unit

val set_gauge_int_h : Gauge.t -> int -> unit
(** [set_gauge_int_h g n] is [set_gauge_h g (float_of_int n)] without
    boxing the float at the call: gauge and histogram cells are flat
    float storage, so neither setter allocates (hot paths such as
    [Net]'s in-flight gauge run it per message). *)

val hist_h : t -> string -> Hist.t
(** Resolve (creating empty if absent) a histogram handle.  An empty
    histogram is invisible to {!snapshot} until its first sample. *)

val observe_h : Hist.t -> float -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into] as if every recording made
    into [src] had been made into [into] instead, in the same order:
    counters add, gauges overwrite, histograms concatenate (count, sum,
    min, max exact; retained samples appended until the reservoir cap).
    The parallel run harness ({!Simkit.Pool.map_runs}) gives each run a
    private registry and folds them in run order, so the merged registry
    — and hence any snapshot {!delta} over it — is independent of the
    degree of parallelism.  [src] is left untouched. *)

(** {2 Reading} *)

val counter : t -> string -> int
(** Current counter value; 0 if never incremented. *)

val gauge : t -> string -> float option

type summary = {
  count : int;  (** samples seen — exact forever, never truncated *)
  sum : float;
  min : float;
  max : float;
  mean : float;
  retained : int;
      (** samples retained in the reservoir — the quantile basis.  Equal
          to [count] up to {!reservoir_cap}; strictly smaller past it
          (million-sample fleet runs), where [p50/p90/p95/p99] cover only
          the first [retained] samples. *)
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
      (** Quantiles are exact over the first {!reservoir_cap} samples;
          beyond that, count/sum/min/max/mean stay exact and quantiles
          are computed on the retained prefix ([retained] states the
          basis). *)
}

val summary : t -> string -> summary option
(** Summary of a histogram; [None] if it has no samples. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * summary) list;
}
(** All three families, each sorted by name. *)

val snapshot : t -> snapshot

val delta : before:snapshot -> after:snapshot -> (string * float) list
(** The change between two snapshots, as flat name/value pairs suitable
    for an experiment report: counter increments (only those [> 0]),
    gauges at their [after] value (only those set or changed), and for
    each histogram the sample-count increment as [name ^ ".n"], the mean
    over the new samples as [name ^ ".mean"], and the [after]-reservoir
    quantiles as [name ^ ".p50"/".p95"/".p99"] (exact for the window when
    the histogram is new in it, whole-reservoir otherwise).  When the
    histogram outgrew {!reservoir_cap}, a [name ^ ".sampled"] row states
    how many samples the quantiles cover.  Sorted by name. *)

val pp : Format.formatter -> t -> unit
(** A human-readable table of the whole registry. *)
