(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and a {!Runtime.Timerq} of events.
    Events scheduled for the same instant fire in scheduling order, and
    all randomness flows through the engine's seeded generator, so a
    run is a pure function of its seed. This engine is the stand-in for
    the paper's asynchronous distributed system: message delays, crash
    and recovery times, and timer expirations are all just events. *)

type t
(** A simulation engine. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh engine at time [0.0]. The default seed
    is [42]. *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Random.State.t
(** The engine's random state; all simulation randomness must come from
    here to keep runs reproducible. *)

type timer
(** Handle on a scheduled event, used for cancellation. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** [schedule t ~delay f] runs [f] at time [now t +. delay].
    @raise Invalid_argument if [delay] is negative or NaN. *)

val cancel : t -> timer -> unit
(** [cancel t timer] takes the event out of the queue at once and
    drops its callback; cancelling a fired or already-cancelled timer
    is a no-op. *)

val run : ?until:float -> t -> unit
(** [run ?until t] processes events in time order until the queue is
    empty, or until virtual time would exceed [until] (events after
    [until] stay queued and the clock is left at [until]). *)

val step : t -> bool
(** [step t] processes a single event; [false] if the queue was empty.
    Tests only: test_dessim runs the engine one event at a time with it. *)

val set_chooser : t -> (int -> int) option -> unit
(** [set_chooser t (Some f)] makes the engine consult [f] whenever more
    than one live event is scheduled for the earliest instant: [f k]
    must return an index in [0, k) selecting which fires next (their
    order of presentation is scheduling order). [None] restores the
    default FIFO tie-break. Systematic schedule exploration — running
    the same scenario under every choice sequence — is built on this
    hook (see the Explore test module).
    Tests only: test_dessim and test_explore install schedule choosers
    with it. *)

val pending : t -> int
(** Number of events still queued. A cancel removes its event at
    once, so every queued event is live.
    Tests only: test_dessim checks the queue depth with it. *)

val set_observer : t -> (now:float -> pending:int -> unit) option -> unit
(** [set_observer t (Some f)] calls [f ~now ~pending] after every
    executed event — the observability layer samples the event-queue
    depth through this. [None] (the default) removes the probe; the
    unobserved engine pays one branch per event. The observer must not
    schedule or cancel events. *)
