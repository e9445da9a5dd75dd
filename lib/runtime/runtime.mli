(** Runtime abstraction: the execution substrate the protocol layers
    program against instead of calling the simulator directly.

    A {!t} is a record of closures provided by a backend:

    - [Runtime_sim.of_engine] wraps the deterministic discrete-event
      engine — virtual time, cooperative fibers, reproducible runs;
    - [Runtime_mc.create] runs tasks on OCaml 5 domains — wall-clock
      time, real parallelism, no determinism and no virtual time.

    Both run tasks as effect-handler fibers through the one
    implementation in {!Task}; they differ only in how a woken or
    yielding task is resumed.

    Coordinators, replicas, the quorum RPC layer and the workload
    clients are written against this interface, so the same protocol
    code runs on both backends (DESIGN 4g). A task is a fiber that
    blocks only through this module (gate, {!sleep}, ivar, mailbox,
    {!all}, {!yield}); on mc a raw condvar wait, a busy-wait or a
    [Mutex] held across a suspension stalls its whole domain. *)

exception Cancelled
(** Raised inside a task whose pending suspension was cancelled: the
    gate it awaits was aborted (a coordinator crash tearing down its
    quorum calls). An escaping [Cancelled] ends a task silently. *)

type gate = {
  await : unit -> unit;
      (** Block the calling task until the gate opens. Any number of
          tasks may wait on one gate. Outside a task: on mc the
          calling thread waits on a condvar of its own; on sim
          nothing could ever open it, so the call fails.
          @raise Cancelled if the gate is aborted.
          @raise Invalid_argument outside a task on sim. *)
  open_ : unit -> unit;  (** Open the gate (one-shot; later calls no-op). *)
  abort : unit -> unit;  (** Cancel the waiters instead of waking them. *)
  live : unit -> bool;  (** Neither opened nor aborted yet. *)
}
(** A one-shot suspension point: the primitive every blocking
    structure in this module is built from. *)

type timer = { tcancel : unit -> unit }
(** Handle on a pending timer; cancelling a fired timer is a no-op. *)

type t = {
  name : string;  (** ["sim"] or ["mc"]. *)
  now : unit -> float;
      (** Sim: virtual time. Mc: wall-clock seconds since backend
          creation. All span timestamps come from here. *)
  rng : unit -> Random.State.t;
      (** Sim: the engine's seeded stream (deterministic). Mc: a
          domain-local self-seeded state. *)
  spawn : (unit -> unit) -> unit;
      (** Start a task. Sim: a fiber, run immediately to its first
          suspension; an exception other than {!Cancelled} escaping it
          is re-raised to whoever was running it (usually
          the engine's run loop). Mc: a fiber on one of the pool's
          domains; an escaping exception is reported on stderr. *)
  timer : delay:float -> (unit -> unit) -> timer;
      (** Run a callback [delay] from now. Callbacks must not block.
          A negative delay raises [Invalid_argument] on sim and counts
          as 0 on mc. Both keep their timers in a {!Timerq}, so both
          raise [Invalid_argument] on a NaN delay. *)
  gate : unit -> gate;  (** A fresh gate, built by {!Task.gate}. *)
}

val name : t -> string
val now : t -> float
val rng : t -> Random.State.t
val spawn : t -> (unit -> unit) -> unit
val yield : t -> unit
(** Let the other ready tasks run before continuing. Sim: the task is
    re-queued as a 0-delay engine event. Mc: it goes to the back of
    its worker's run queue. Outside a task it returns at once.
    Tests only: test_runtime interleaves fibers with it. *)

val timer : t -> delay:float -> (unit -> unit) -> timer
val cancel : timer -> unit

val sleep : t -> float -> unit
(** Block the calling task for a duration (virtual or real). *)

val all : t -> ?window:int -> (unit -> 'a) list -> 'a list
(** [all rt ?window thunks] runs every thunk as a child task, at most
    [window] (default: unbounded) in flight, and returns the results
    in input order. Launch order is input order; as a child finishes,
    the next unlaunched thunk starts. Thunks that never suspend need
    no running scheduler.

    If a child raises, no further thunks are launched and the
    children already running are left to settle (on a crash they
    are typically being cancelled too). Once none remain, the parent
    re-raises: {!Cancelled} if any child was cancelled, else the
    first exception a child raised.
    @raise Invalid_argument if [window < 1]. *)

(** One-shot write-once cell: fill-before-open publishes the value to
    the awaiting task through the gate's synchronization. *)
module Ivar : sig
  type rt := t
  type 'a t

  val create : rt -> 'a t

  val fill : 'a t -> 'a -> unit
  (** First fill wins; the value must be written by at most one task
      at a time (callers serialize fills under their own lock). *)

  val abort : 'a t -> unit
  val await : 'a t -> 'a  (** @raise Cancelled if aborted. *)

  val is_live : 'a t -> bool
  (** Tests only: test_dessim checks that a filled or cancelled ivar
      lets go of its waiter. *)

end

(** MPSC mailbox with FIFO-per-sender ordering and batched drain
    (DESIGN 4h). Sends land in one of eight per-sender segments
    (indexed by the sending domain, each its own mutex + queue), so
    concurrent senders rarely contend; the receiver swaps whole
    segments into a private drained queue with [Queue.transfer] and
    then pops with no lock at all, yielding briefly before parking.
    FIFO holds per sender; the order across senders is unspecified.
    At most one receiver may block at a time — every use in the tree
    (transports, daemons) is single-consumer. Safe from any domain on
    the mc backend. *)
module Mailbox : sig
  type rt := t
  type 'a t

  val create : rt -> 'a t

  val send : 'a t -> 'a -> bool
  (** [true] if the message was queued; [false] if the mailbox is
      closed, in which case the message is dropped. *)

  val recv : ?timeout:float -> 'a t -> 'a option
  (** Block until a message arrives ([Some m]), the timeout expires,
      or the mailbox closes (both [None]). Messages queued before the
      close remain receivable.
      Tests only: test_runtime passes [?timeout] to check a receive that
      times out. *)

  val close : 'a t -> unit
  (** Close and wake every blocked receiver with [None]. *)

  val is_closed : 'a t -> bool
  (** Tests only: test_runtime checks {!close} with it. *)

  val length : 'a t -> int
  (** Tests only: test_runtime checks that a closed mailbox drops sends. *)

  val drain_stats : 'a t -> int * int
  (** [(batches, messages)] moved by non-empty inbox swaps so far:
      [messages / batches] is the mean drain batch size — the mc
      cluster materializes this as [runtime.mailbox.drain.*]. *)
end

(** The backend side: the one task implementation both backends
    install. A task is run under {!handler}; when it blocks on a gate
    or yields, the handler hands its continuation to the backend's
    {!sched}. *)
module Task : sig
  type k = (unit, unit) Effect.Deep.continuation

  type sched = {
    resume : k -> bool -> unit;
        (** Wake a task parked on a gate: [true] when the gate opened,
            [false] when it was aborted (see {!continue}). Called by
            whoever settles the gate. *)
    requeue : k -> unit;  (** Continue a yielding task later. *)
  }

  val continue : k -> bool -> unit
  (** [continue k opened] resumes [k] normally, or with {!Cancelled}
      raised at its await when [opened] is [false]. *)

  val handler :
    sched ->
    retc:(unit -> unit) ->
    exnc:(exn -> unit) ->
    (unit, unit) Effect.Deep.handler
  (** The effect handler to run a task under
      ([Effect.Deep.match_with f () (handler s ~retc ~exnc)]). *)

  val gate : threads:bool -> unit -> gate
  (** The gate every backend returns from [t.gate]: one atomic state,
      settled by CAS. [threads] says whether a caller outside any task
      may wait on a condvar ([true], mc) or must fail ([false], sim). *)
end

(** The timer queue both backends run on: [Runtime_sim]'s engine
    keeps every event in one, and each [Runtime_mc] worker the
    wall-clock timers armed on it. An indexed binary min-heap keyed by (due time,
    arm order): entries due at the same time come out in the order
    they were added, and a removal takes its entry out at once, so the
    queue holds only pending entries. Not synchronized. *)
module Timerq : sig
  type t
  type entry
  (** A pending callback, from {!add} until it leaves the queue. *)

  val create : unit -> t

  val add : t -> at:float -> (unit -> unit) -> entry
  (** [add q ~at f] queues [f] to be due at [at].
      @raise Invalid_argument if [at] is NaN. *)

  val remove : t -> entry -> bool
  (** Take the entry out and drop its callback: [true] if it was
      pending, [false] (and no change) once it was popped, taken or
      removed. *)

  val pop : t -> (unit -> unit) option
  (** Take the earliest entry and return its callback. *)

  val next_at : t -> float
  (** Due time of the earliest entry; [infinity] when empty. *)

  val length : t -> int
  (** Pending entries. *)

  val simultaneous : t -> entry list
  (** The entries due at {!next_at}, in arm order, left in place. *)

  val take : t -> entry -> (unit -> unit)
  (** [take q e] takes the pending entry [e] out and returns its
      callback (the engine's chooser picks [e] from {!simultaneous}).
      @raise Invalid_argument if [e] is not pending. *)
end
