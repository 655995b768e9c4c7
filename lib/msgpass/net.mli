(** An asynchronous message-passing network on top of the simulator.

    By default messages are reliable but arbitrarily delayed and reordered:
    a send enqueues the message as {e in-flight}; it becomes receivable
    only once the delivery policy moves it to the destination's mailbox.
    Receivers block (yield) until their mailbox is non-empty.

    With a fault policy attached ({!set_faults}), every delivery attempt
    is additionally subject to the plan's drop / duplication / bounded-
    deferral probabilities and partition schedule, drawn from the policy's
    dedicated RNG (see {!Simkit.Faults}); the [net.faults.dropped/
    duplicated/delayed] counters and the [net.faults.partition_active]
    gauge record what fired.  Crash faults come from {!Simkit.Sched.crash}
    — and {!mark_dead} tells the network a destination died, so later
    deliveries to it are dropped and counted ([net.dead_letters]) instead
    of accumulating unread forever.

    The in-flight store and every mailbox are growable rings holding the
    message's item itself (mailboxes in a pid-indexed array): send,
    receive and [in_flight] are O(1), a message allocates nothing beyond
    its item and payload, and [deliver_nth i] preserves the exact "i-th
    oldest, relative order kept" semantics the deterministic experiments
    rely on.

    The default {!auto_deliver_policy} delivers a uniformly random
    in-flight message between process steps, giving the random asynchrony
    the ABD experiments use; adversarial tests can instead call
    {!deliver_now}/{!deliver_from} to impose specific delivery orders.

    When the scheduler carries an armed {!Obs.Tracer}, the network emits
    causal events in category ["net"]: a [send] per enqueue (its sequence
    number is the message id), and per delivery attempt a [deliver],
    [drop], [dup] (via the extra deliver), or [dead_letter] whose causal
    parent is that send — the happens-before edges of the run.  A receive
    sets the tracer's ambient context to the consumed message's deliver
    event, so whatever the receiver does next (reply sends, response
    events) is chained to its cause. *)

type 'a t

val create : sched:Simkit.Sched.t -> n:int -> 'a t
(** Network among processes (fiber pids) [0 … n-1] and their server
    fibers; any pid registered with the scheduler may send/receive. *)

val set_faults : 'a t -> Simkit.Faults.t -> unit
(** Attach a fault policy, applied at delivery time.  A policy whose plan
    has no delivery-affecting fault (only crashes) is not attached, so the
    benign fast path stays draw-free. *)

val faults : 'a t -> Simkit.Faults.t option

val set_batching : 'a t -> window:int -> max:int -> unit
(** Per-destination message batching: when a delivery attempt selects an
    in-flight message for destination [d], up to [max - 1] further
    messages to [d] found among the oldest [window] flight positions are
    coalesced into the {e same} attempt, processed oldest-first — one
    attempt then moves a whole batch, which is what amortizes quorum
    round-trips at fleet scale (a server scheduled once drains [max]
    requests instead of one).

    What batching does {e not} change: every coalesced message still runs
    the full per-message fate logic — dead-destination check, partition
    hold, and its own fault draw ({!Simkit.Faults.draw}), in flight-list
    age order — so the fault-draw-per-message discipline and the "i-th
    oldest, relative order kept" index semantics of the un-coalesced
    paths are preserved exactly.  With [window = 0] or [max = 1]
    (the default) behaviour is identical to an unbatched network.

    Counters: [net.delivery_attempts] counts attempts (one per
    {!deliver_one}/{!deliver_now}/{!deliver_from}/[deliver_nth] call);
    [net.batch.coalesced] counts the extra messages batching moved.
    [net.delivered / net.delivery_attempts] is the amortization factor
    the fleet benches report.
    @raise Invalid_argument if [window < 0] or [max < 1]. *)

val batching_active : 'a t -> bool
(** Whether {!set_batching} enabled coalescing ([window > 0 && max > 1]). *)

val mark_dead : 'a t -> pid:int -> unit
(** Declare [pid] dead: its queued mail is discarded now and every later
    delivery addressed to it is dropped, both counted as
    [net.dead_letters].  Idempotent. *)

val is_dead : 'a t -> pid:int -> bool

val revive : 'a t -> pid:int -> unit
(** Undo {!mark_dead} for a recovering node: deliveries to [pid] reach a
    mailbox again.  The mailbox starts empty — everything addressed to
    the pre-crash incarnation was dead-lettered while the node was down,
    exactly the fresh-mailbox semantics of {!Simkit.Sched.restart}.
    No-op if [pid] is not dead. *)

val send : 'a t -> src:int -> dst:int -> 'a -> unit
(** Enqueue in-flight (no yield: sending is part of the current step). *)

val broadcast : 'a t -> src:int -> 'a -> unit
(** Send to all n base processes, including [src] (self-delivery is via
    the network too, keeping the quorum logic uniform). *)

val recv : 'a t -> pid:int -> 'a
(** Block (yield) until a delivered message for [pid] exists; dequeue the
    oldest.  Must be called within a fiber. *)

val try_recv : 'a t -> pid:int -> 'a option
(** Non-blocking variant (no yield). *)

val in_flight : 'a t -> int
(** Number of undelivered messages.  O(1). *)

val mailbox_size : 'a t -> pid:int -> int

val deliver_one : 'a t -> rng:Simkit.Rng.t -> bool
(** Attempt delivery of one uniformly random in-flight message; [false]
    if none are in flight.  With faults attached the attempt may drop,
    duplicate or defer instead of delivering. *)

val deliver_now : 'a t -> dst:int -> bool
(** Attempt delivery of the oldest in-flight message addressed to [dst]. *)

val deliver_from : 'a t -> src:int -> dst:int -> bool
(** Attempt delivery of the oldest in-flight message from [src] to [dst]
    — the fine-grained control the scripted adversarial scenarios need. *)

val deliver_all : 'a t -> unit
(** Flush every in-flight message (used to end experiments cleanly).
    Bypasses the fault policy — a drain must terminate whatever the plan
    — but still dead-letters messages to dead destinations. *)

val drop_to : 'a t -> dst:int -> unit
(** Discard all in-flight messages addressed to [dst] — used with
    {!Simkit.Sched.crash} to model a crashed node whose links die too. *)

val auto_deliver_policy :
  'a t -> rng:Simkit.Rng.t -> Simkit.Sched.policy -> Simkit.Sched.policy
(** Wrap a scheduling policy: before each decision, with probability ~1/2
    attempt a random delivery.  Keeps the network flowing under any
    process-scheduling policy. *)

val collect_quorum :
  'a t ->
  pid:int ->
  need:int ->
  seen:bool array ->
  classify:('a -> int option) ->
  stale:(unit -> unit) ->
  retry_after:int ->
  resend:(missing:int list -> unit) ->
  unit
(** The hardened client loop shared by the ABD registers: poll [pid]'s
    mailbox until [need] {e distinct} replica nodes have been counted in
    [seen].  [classify] maps a message to [Some node] (a matching reply
    from that replica — duplicates of an already-counted node are ignored,
    which is what makes retransmission + duplication faults safe for
    quorum counting) or [None] (a stale/mismatched reply, reported via
    [stale]).  After [retry_after] consecutive fruitless yields (a
    step-count timeout on this fiber's clock), [resend ~missing] is called
    with the replicas not yet heard from; [retry_after <= 0] disables
    retransmission (the pre-fault blocking behaviour).

    The {e incarnation rule}: every mailbox entry is stamped with its
    sender's incarnation at send time, and a reply whose stamp differs
    from the sender's {e current} {!Simkit.Sched.incarnation} is handed
    to [stale] without being classified.  A reply produced by a previous
    incarnation reflects state from before that node crashed, so it can
    never count toward a post-recovery quorum — this is what keeps
    quorum intersection sound across crash–recovery. *)

val describe : 'a t -> string
(** Structured diagnostic: in-flight messages as [src->dst] (with deferral
    counts), non-empty mailbox sizes, dead destinations — the network half
    of a watchdog stall report. *)

val watchdog : ?window:int -> 'a t -> Simkit.Sched.watchdog
(** A watchdog for {!Simkit.Sched.run} whose progress measure sums the
    network counters ([net.sends]/[delivered]/[dead_letters]/[faults.*]),
    [trace.responds], and the crash–recovery counters ([sched.restarts],
    [reg.*.state_transfer]) in this net's registry: it fires only on true
    quiescent livelock — no message activity, no operation completing and
    no node recovering for [window] (default 5000) consecutive steps. *)
