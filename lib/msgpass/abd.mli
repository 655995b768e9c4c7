(** The ABD register (Attiya, Bar-Noy, Dolev 1995): a linearizable SWMR
    register in an asynchronous message-passing system where fewer than
    half of the nodes may crash — the {!Quorum} register under its
    single-writer discipline.

    The paper's §6 discusses ABD as the canonical bridge between
    message-passing and shared-memory systems, notes that it is {e not}
    strongly linearizable [20], and proves (Theorem 14) that — like every
    linearizable SWMR implementation — it {e is} write strongly-
    linearizable.  Experiment E6 runs this implementation under random
    asynchrony and crashes, checks every produced history for
    linearizability, and applies the [f*] construction of Theorem 14 to
    every prefix chain to confirm the write-prefix property.

    Protocol (one writer, [n] nodes, majorities of size [⌊n/2⌋+1]):
    - {b write(v)}: the writer increments its local sequence number [ts],
      broadcasts [(⟨ts, writer⟩, v)], and returns once a majority of
      nodes acknowledged storing the pair — {!Mwabd}'s write with the
      timestamp-query phase elided, since only the writer ever picks a
      timestamp;
    - {b read()}: the reader broadcasts a query, collects a majority of
      timestamped replies, selects the largest, {e writes it back} to a
      majority (the famous "readers must write" phase — without it two
      sequential reads could observe new-then-old), and returns its
      value.

    Each node runs a server fiber (pid [100 + node]) holding its replica
    and a client fiber (pid [node]) issuing operations.  Fault tolerance
    and crash–recovery are the {!Quorum} register's; its counters are
    named [reg.abd.*] here. *)

type t

type msg
(** Protocol messages (abstract; exposed so callers can thread the
    register's network into a delivery policy). *)

val net : t -> msg Net.t

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
  writer:int ->
  init:int ->
  unit ->
  t
(** {!Quorum.create} with [discipline = Single_writer writer]: [n >= 2]
    nodes ([< 100]); spawns the [n] server fibers.  Client code runs in
    the node fibers the caller spawns.  [retry_after] (default 25; [<= 0]
    disables) is the client retransmission timeout in own-fiber yields;
    the other knobs are described there. *)

val name : t -> string
val n : t -> int
val writer : t -> int
val majority : t -> int

val write : t -> int -> unit
(** Writer-client operation; run it in fiber [writer].  Nothing checks
    the calling fiber: the operation is attributed to [writer] in the
    trace and its replies are addressed to [writer]. *)

val read : t -> reader:int -> int
(** Reader-client operation; must run in fiber [reader]. *)

val crash_node : t -> node:int -> unit
(** Crash a node's server (and its client fiber if spawned): it stops
    acknowledging, and the un-persisted suffix of its stable-storage log
    is lost.  The caller is responsible for keeping a majority alive. *)

val recover_node : t -> node:int -> unit
(** Restart a crashed node's server with a bumped incarnation, a fresh
    mailbox and the state-transfer recovery handshake (skipped under
    [unsafe_recovery]); see {!Quorum.recover_node}.
    @raise Invalid_argument if the node's server has not crashed. *)

val server_pid : node:int -> int
