(** Timestamp sources ([newTS] in paper section 2.3).

    One hybrid logical clock (Kulkarni et al., "Logical Physical
    Clocks", OPODIS 2014) read from the runtime's [now]: the time
    component is the runtime clock plus a per-clock skew, in ticks of
    10{^-6} runtime time units (1 µs on mc, 10{^-6} δ on sim), bumped
    past the last value this clock issued or observed. Every clock of
    a deployment reads the same time base, so while skews are zero a
    write's timestamp is above those of the writes that finished
    before it started — the paper's loosely synchronized clocks, with
    aborts rare while they agree.
    {!observe} adds Lamport catch-up on top: a clock that lags (a
    negative skew) jumps past every timestamp it sees in a reply.

    UNIQUENESS comes from the pid tie-break, and from an atomic [last]
    within one clock (a coordinator's tasks may run on several
    domains); MONOTONICITY and PROGRESS hold whatever [now] does. *)

type t

val create : now:(unit -> float) -> pid:int -> t
(** [create ~now ~pid] is a clock for process [pid] reading [now]
    (normally the deployment's [Runtime.now]), with skew [0.]. *)

val new_ts : t -> Timestamp.t
(** Time [max ⌊(now () + skew) · 10{^6}⌋ (last + 1)]: strictly greater
    than any timestamp previously returned by or observed on this
    clock, and distinct from every timestamp of every other clock.
    Safe to call from several domains at once. *)

val observe : t -> Timestamp.t -> unit
(** Fold a remotely-seen timestamp into the clock: subsequent
    {!new_ts} results exceed it. Never moves the clock backwards. *)

val set_skew : t -> float -> unit
(** Step the clock's offset from the runtime clock, in runtime time
    units (the chaos nemesis's clock-skew fault). Monotonicity still
    holds — a step backwards just makes the clock lean on the
    [last + 1] bump until its reading catches up. *)

val skew : t -> float
(** Current skew; lets tests assert the nemesis restored what it
    skewed. *)
