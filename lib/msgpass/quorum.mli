(** The quorum register: one implementation of ABD (Attiya, Bar-Noy,
    Dolev 1995) and its multi-writer extension, with the timestamp
    discipline fixed at creation.

    Timestamps are pairs [⟨sq, pid⟩] compared lexicographically.
    - {b Multi-writer} ({!Mwabd}): a write first asks a majority for
      their sequence numbers and forms [⟨max+1, proc⟩] — a {e Lamport}
      timestamp, as in the paper's Algorithm 4 — then pushes it to a
      majority.
    - {b Single-writer} ({!Abd}): every timestamp carries the one
      writer's pid, so only [sq] decides; the writer numbers its writes
      locally and the query phase is elided.  Replicas start with that
      shared pid too, so a write-back of the initial value is never newer
      than the replica's copy.

    Reads are the same under both: query a majority, pick the largest
    timestamp, {e write it back} to a majority, return its value.  That
    the two registers differ only in the write's query phase is the
    point of Theorem 14: single-writer ABD is write strongly-linearizable
    and multi-writer ABD is not ({!Mwabd_scenario}).

    Each node runs a server fiber (pid [100 + node]) holding its replica;
    clients are fibers the caller spawns.

    {b Fault tolerance.}  Replies carry the responding replica's node
    index and quorums count {e distinct} nodes, so duplicated messages
    never double-count; requests are retransmitted to the not-yet-heard
    replicas after [retry_after] fruitless yields, and the server
    handlers are idempotent — so every phase terminates under any
    {!Simkit.Faults} plan keeping a majority of replicas reachable.

    {b Crash–recovery.}  Each replica writes accepted updates ahead to a
    {!Simkit.Stable} log; a recovered replica reloads its durable copy
    and state-transfers from a majority of the others before it serves.

    Metrics are named after the instance — [reg.abd.*] for single-writer,
    [reg.mwabd.*] for multi-writer — as is the [persist] flight-recorder
    event's timestamp argument ([ts] or [sq]).  Stale or mismatched
    replies count as [reg.*.stale], retransmission rounds as
    [reg.*.retransmits]. *)

type discipline =
  | Single_writer of int  (** the writer's node; no query phase *)
  | Multi_writer  (** every node may write; ⟨sq, pid⟩ with a query phase *)

type t
type msg

type persist = [ `Every | `Never ]
(** The replica's sync-point discipline: [`Every] makes each accepted
    update durable before it is acknowledged (write-through — safe under
    any recovery mode); [`Never] leaves updates in the volatile tail of
    the write-ahead log, so a crash rolls the replica's durable copy back
    to its last sync (only the initial state, for [`Never]). *)

val create :
  ?retry_after:int ->
  ?quorum:int ->
  ?persist:persist ->
  ?unsafe_recovery:bool ->
  ?compact:bool ->
  sched:Simkit.Sched.t ->
  name:string ->
  n:int ->
  discipline:discipline ->
  init:int ->
  unit ->
  t
(** [n >= 2] nodes ([< 100]); spawns the [n] server fibers.
    [retry_after] (default 25; [<= 0] disables) is the client
    retransmission timeout in own-fiber yields.

    [quorum] (default the majority [⌊n/2⌋+1]) overrides how many distinct
    replies each round waits for.  {b Test-only bug injection}: any value
    with [2*quorum <= n] breaks quorum intersection and with it
    linearizability — it exists so the chaos self-test (E12) can prove the
    monitor → shrinker → corpus loop catches a real protocol bug.  Every
    round records the size it waited for in the [reg.*.quorum.need]
    histogram, which is what the quorum-sanity monitor audits.

    [persist] (default [`Every]) is the replica sync-point policy backing
    each node's {!Simkit.Stable} log.  [unsafe_recovery] (default
    [false]) makes {!recover_node} skip the state-transfer handshake and
    serve straight from the durable copy.  {b Test-only bug injection}:
    with [`Never] persistence an unsafe recovery rejoins quorums with
    rolled-back state, breaking quorum intersection across the crash —
    the seeded bug the recovery-sanity monitor catches (counted as
    [reg.*.amnesia]).

    [compact] (default [false]) turns on {!Simkit.Stable}'s automatic log
    compaction: each persist prunes the durable prefix down to its newest
    record, keeping per-node stable storage O(volatile tail) instead of
    O(operations).  Recovery semantics are unchanged ([last_durable] is
    always retained) — the fleet engine sets this so memory stays flat
    across millions of operations.
    @raise Invalid_argument (prefixed ["Abd.create"] or ["Mwabd.create"])
    unless [2 <= n < 100], a single writer is a node and
    [1 <= quorum <= n]. *)

val net : t -> msg Net.t
val name : t -> string
val n : t -> int
val majority : t -> int
val discipline : t -> discipline

val write : t -> proc:int -> int -> unit
(** Call from fiber [proc], a node id.  Under [Single_writer w] the
    timestamp is [⟨k, w⟩] for the [k]-th write whatever [proc] is, so
    only [w] should write. *)

val read : t -> reader:int -> int
(** Call from fiber [reader]. *)

val crash_node : t -> node:int -> unit
(** Crash a node's server (and its client fiber if spawned): it stops
    acknowledging, the network dead-letters its mail from now on, and
    the un-persisted suffix of its stable-storage log is lost.  The
    caller is responsible for keeping a majority alive. *)

val recover_node : t -> node:int -> unit
(** Crash–recovery: restart a crashed node's server with a bumped
    incarnation and a fresh mailbox.  The new incarnation reloads the
    durable register copy, then runs a {e state-transfer handshake} —
    read back from a majority of the {e other} replicas (self-exclusion
    keeps an amnesiac copy from vouching for itself), adopt the largest
    timestamp, persist, and only then serve — so a recovered replica can
    never answer quorums with state older than what its pre-crash
    incarnation acknowledged.  With [unsafe_recovery] the handshake is
    skipped.  Counted as [reg.*.recoveries]; handshakes as
    [reg.*.state_transfer]; lossy unsafe rejoins as [reg.*.amnesia].
    @raise Invalid_argument if the node's server has not crashed. *)

val server_pid : node:int -> int
