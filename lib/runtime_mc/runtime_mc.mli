(** OCaml 5 multicore runtime backend: worker domains that run tasks
    under {!Runtime.Task.handler} (work-sharing spawn; a woken or
    yielding task goes back on its home worker's run queue) and fire
    wall-clock timers from a {!Runtime.Timerq} per worker (DESIGN 4g,
    hot paths 4h). Gates, sleep and the join are the runtime's own.

    A timer goes on the queue of the worker that arms it (worker 0 for
    an arm from outside the pool), and its callback runs on that
    worker between run-queue batches. So a callback must not block:
    it may take a short library mutex, but never await a gate, ivar or
    condvar (at 1 domain that deadlocks).

    Blocking contract: a task blocks only through runtime primitives
    (gate, sleep, ivar, [Mailbox.recv], [all], [yield]). A raw condvar
    wait or busy-wait stalls its whole domain, as does a [Mutex] held
    across a suspension (a same-domain relock raises [Sys_error]).
    Threads outside the pool await gates on a condvar of their own.
    No determinism or virtual time: the sim backend is the oracle.

    An idle worker parks in [select] on its pipe, which a push
    writes, and its alarm, a Linux [timerfd] armed for its earliest
    timer; an arm or a cancel moves the alarm of a parked worker
    without waking it. *)

type t
(** A running pool of worker domains. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (default 1)
    and no other thread. @raise Invalid_argument if [domains < 1].
    @raise Failure on a system without [timerfd] (not Linux). *)

val runtime : t -> Runtime.t
(** The pool as a {!Runtime.t} (name ["mc"]). *)

val spawn_daemon : t -> (unit -> unit) -> unit
(** Like the runtime's [spawn] but excluded from {!await_idle}: used
    for the transport's per-brick receive loops, which run until their
    mailbox closes. *)

val await_idle : t -> unit
(** Block until every non-daemon task has finished, or {!shutdown}
    has begun. *)

val try_await_idle : t -> timeout:float -> bool
(** Like {!await_idle} but gives up after [timeout] wall-clock
    seconds, returning [false] with tasks still live. Used by the
    chaos harness: a stuck task must fail the soak, not hang it. No
    worker takes part in the wait (the caller reads an alarm of its
    own), so the timeout holds even while a task never suspends. Once
    {!shutdown} has begun it returns at once, [true] only if no task
    is live. Do not call {!shutdown} after a [false] return — a domain
    waits for its stuck fiber forever; report and exit instead. *)

val shutdown : t -> unit
(** Stop the dispatchers and join the domains; timers still pending
    never fire. Unblock daemon tasks first (close their mailboxes) — a
    domain only terminates once all its fibers have. Idempotent. *)

val now : t -> float
(** Wall-clock seconds since {!create}. *)

val hw_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware can
    actually run in parallel; stamped into benchmark metadata. *)

val set_spawn_cursor : t -> int -> unit
(** Force the round-robin spawn cursor (tests only: the next spawn
    goes to worker [v mod domains], and a wrap past [max_int] can be
    exercised without 2^62 spawns). *)

type timer_stats = {
  max_depth : int;  (** most timers pending at once on one worker *)
  fired : int;
  purged : int;  (** timers cancelled before they fired *)
  wakeups : int;
      (** worker parks that a timer ended: the alarm, armed for the
          earliest pending timer, went off. An arm or a cancel moves a
          parked worker's alarm without waking it, so a cancelled
          deadline never ends a park *)
}

val timer_stats : t -> timer_stats
(** Timer-queue counters since {!create}, summed over the workers
    ([max_depth] is the largest per-worker maximum). A timer fires at
    most once, never before it is due, and not at all once cancelled;
    a cancel, from any domain, drops the callback at once. The mc
    cluster materializes these as [runtime.wheel.*] metrics at
    shutdown (the names come from the hashed wheel the queue
    replaced). *)

type sched_stats = { resumed : int; parks : int; wakeups : int }
(** Per worker since {!create}, exact after {!shutdown}: fibers
    resumed, idle parks, parks cut short by a push from another
    thread. *)

val sched_stats : t -> sched_stats array
