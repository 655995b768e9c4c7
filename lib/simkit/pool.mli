(** A small work-sharing domain pool for embarrassingly-parallel run
    batteries (Monte-Carlo adversary games, random-run checkers).

    Tasks are identified by their index [0..n-1] and claimed from a
    shared cursor, so load balances automatically however uneven the
    per-task cost.  When tasks vastly outnumber domains (fleet-scale
    batteries fanning out millions of tiny tasks) each claim takes a
    short {e chunk} of consecutive indices per atomic fetch instead of
    one, so the cursor cache line stops bouncing on every task; with few
    tasks the chunk degenerates to 1 and behaviour is unchanged.

    Determinism contract: a task must derive all its randomness from its
    index (per-run seeds) and must not touch shared mutable state — in
    particular it must record metrics into a per-task registry (use
    {!map_runs}), never into {!Obs.Metrics.global}.  Under that contract,
    [map ~jobs:n] returns the exact array [map ~jobs:1] returns. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default of the CLIs. *)

val map : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map ~jobs n f] evaluates [f i] for each [i] in [0..n-1] on up to
    [jobs] domains (the calling domain included) and returns the results
    indexed by task.  [jobs <= 1] runs sequentially, in index order, on
    the calling domain.  If a task raises, the tasks above it are
    cancelled (already started ones finish, no new ones start) while the
    tasks below it still run, and the exception of the lowest-index failed
    task is re-raised — the one [jobs = 1] raises, whatever the
    schedule. *)

val map_runs :
  jobs:int ->
  metrics:Obs.Metrics.t ->
  int ->
  (metrics:Obs.Metrics.t -> int -> 'a) ->
  'a array
(** Like {!map}, but hands each task a fresh private metric registry and,
    after every domain has joined, folds the per-task registries into
    [metrics] in task order with {!Obs.Metrics.merge}.  This is the only
    sanctioned way for parallel tasks to feed an experiment's
    snapshot/delta measurement: the target registry is only ever touched
    from the calling domain, and the fold order (hence the merged
    registry) is independent of [jobs]. *)
