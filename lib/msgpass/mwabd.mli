(** Multi-writer ABD: the standard MWMR register for message-passing
    systems — the {!Quorum} register under its multi-writer discipline,
    i.e. the SWMR {!Abd} with a timestamp-query phase before each write.

    A writer first asks a majority for their current sequence numbers,
    forms [⟨max+1, pid⟩] — a {e Lamport} timestamp, exactly as in the
    paper's Algorithm 4 — and then pushes [(v, ts)] to a majority.
    Readers are unchanged from ABD (query majority, pick max, write back).

    Being timestamp-based like Algorithm 4, this register is linearizable
    but {e not} write strongly-linearizable, and for the same reason: at
    the moment a write completes, a concurrent writer's timestamp may
    still depend on which query replies the network will deliver.
    {!Mwabd_scenario} transposes Figure 4 to message passing: a common
    prefix [G] in which writer 0's query phase has stalled mid-quorum and
    writer 1's write has completed, with two delivery-order extensions
    forcing opposite write orders.  Theorem 14's "every linearizable SWMR
    implementation is WSL" therefore really is about the {e single}-writer
    structure, not about message passing vs shared memory.

    Fault tolerance and crash–recovery are the {!Quorum} register's, as
    for {!Abd}; its counters are named [reg.mwabd.*] here. *)

type t

type persist = [ `Every | `Never ]
(** Replica sync-point policy; see {!Quorum.persist}. *)

val create :
  ?retry_after:int ->
  ?quorum:int ->
  ?persist:persist ->
  ?unsafe_recovery:bool ->
  ?compact:bool ->
  sched:Simkit.Sched.t ->
  name:string ->
  n:int ->
  init:int ->
  unit ->
  t
(** {!Quorum.create} with [discipline = Multi_writer]: [n >= 2] nodes;
    every node may write.  Spawns the server fibers (pids
    [100 + node]). *)

type msg

val net : t -> msg Net.t
val majority : t -> int

val write : t -> proc:int -> int -> unit
(** Two-phase write; call from fiber [proc] (a node id). *)

val read : t -> reader:int -> int

val crash_node : t -> node:int -> unit
(** Crash a node's server (and its client fiber if spawned); the network
    dead-letters its mail from now on, and the un-persisted suffix of the
    node's stable-storage log is lost.  Keep a majority alive. *)

val recover_node : t -> node:int -> unit
(** Restart a crashed node's server with a bumped incarnation, a fresh
    mailbox and the state-transfer recovery handshake (skipped under
    [unsafe_recovery]); see {!Quorum.recover_node}.
    @raise Invalid_argument if the node's server has not crashed. *)

val server_pid : node:int -> int
