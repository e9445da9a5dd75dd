(** OCaml 5 multicore runtime backend: worker domains that run tasks
    under {!Runtime.Task.handler} (work-sharing spawn; a woken or
    yielding task goes back on its home worker's run queue), and
    wall-clock timers in a {!Runtime.Timerq} driven by a select(2)
    thread (DESIGN 4g, hot paths 4h). Gates, sleep and the join are the
    runtime's own.

    Blocking contract: a task blocks only through runtime primitives
    (gate, sleep, ivar, [Mailbox.recv], [all], [yield]). A raw condvar
    wait or busy-wait stalls its whole domain, as does a [Mutex] held
    across a suspension (a same-domain relock raises [Sys_error]).
    Threads outside the pool await gates on a condvar of their own.
    No determinism or virtual time: the sim backend is the oracle. *)

type t
(** A running pool of worker domains. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains (default 1)
    plus one timer thread. @raise Invalid_argument if [domains < 1]. *)

val runtime : t -> Runtime.t
(** The pool as a {!Runtime.t} (name ["mc"]). *)

val spawn_daemon : t -> (unit -> unit) -> unit
(** Like the runtime's [spawn] but excluded from {!await_idle}: used
    for the transport's per-brick receive loops, which run until their
    mailbox closes. *)

val await_idle : t -> unit
(** Block until every non-daemon task has finished. *)

val try_await_idle : t -> timeout:float -> bool
(** Like {!await_idle} but gives up after [timeout] wall-clock
    seconds (a timer wakes the wait), returning [false] with
    tasks still live. Used by the chaos harness: a stuck task must
    fail the soak, not hang it. Once {!shutdown} has begun it returns
    at once, [true] only if no task is live. Do not call {!shutdown}
    after a [false] return — a domain waits for its stuck fiber
    forever; report and exit instead. *)

val shutdown : t -> unit
(** Stop dispatchers and the timer thread and join the domains.
    Unblock daemon tasks first (close their mailboxes) — a domain only
    terminates once all its fibers have. Idempotent. *)

val now : t -> float
(** Wall-clock seconds since {!create}. *)

val hw_cores : unit -> int
(** [Domain.recommended_domain_count ()] — what the hardware can
    actually run in parallel; stamped into benchmark metadata. *)

val set_spawn_cursor : t -> int -> unit
(** Force the round-robin spawn cursor (tests only: lets a wrap past
    [max_int] be exercised without 2^62 spawns). *)

type timer_stats = {
  max_depth : int;  (** most timers pending at once *)
  fired : int;
  purged : int;  (** timers cancelled before they fired *)
  wakeups : int;
      (** returns of the timer thread from its sleep; a cancel removes
          the timer from the queue at once, so a cancelled deadline
          never sets the thread's sleep and these follow the live
          timers, not the armed ones *)
}

val timer_stats : t -> timer_stats
(** Timer-queue counters since {!create}. A timer fires at most once,
    never before it is due, and not at all once cancelled; a cancel
    drops the callback at once. The mc cluster materializes these as
    [runtime.wheel.*] metrics at shutdown (the names come from the
    hashed wheel the queue replaced). *)

type sched_stats = { resumed : int; parks : int; wakeups : int }
(** Per worker since {!create}, exact after {!shutdown}: fibers
    resumed, idle parks, wake-ups pushed from another thread. *)

val sched_stats : t -> sched_stats array
