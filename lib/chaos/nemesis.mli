(** The nemesis: executes a {!Plan} against a live cluster, on either
    backend.

    [install] schedules every plan event on the cluster's {e runtime}
    (the sim engine's virtual-time queue, or the multicore backend's
    timer queue); when the runtime reaches an event's time the
    corresponding fault is applied. Network faults go through the
    deployment's {!Simnet.Faultnet} ({!Core.Cluster.faultnet}), the
    one fault model both backends share, and crashes through
    {!Core.Cluster.crash} / {!Core.Cluster.recover} (on mc these
    really tear down and restart the brick's receive loop, DESIGN 4i).
    Skew goes through {!Core.Clock.set_skew}, on either backend, and
    the sim-only faults through the storage-fault entry points ({!Core.Slog.tear_last},
    {!Core.Slog.corrupt_newest}, {!Core.Slog.damage_newest}). Each
    applied fault emits the same [Obs.Fault] event (actor [Sim], op
    [-1]) on both backends when observability is on, so fault
    injections appear in traces interleaved with protocol phases.

    Not every fault has a faithful multicore implementation: the
    storage faults ([Torn_crash], [Bit_rot], [Sector_error]) would
    mutate stripe logs under a live replica's feet. [install]
    rejects plans containing them on mc with an error naming the
    variant — never a silent no-op.

    The nemesis only {e applies} faults; it never repairs the
    deployment behind the protocol's back. Call {!restore} after the
    plan's horizon to return the environment (not the stored state) to
    health: partitions healed, drop probability back to 0,
    downed links revived, added delay/jitter removed, skewed clocks
    back at their pre-plan skew,
    crashed bricks recovered. Storage corruption is deliberately left
    in place — repairing it is the protocol's job (recovery reads,
    {!Fab.Volume.scrub}). *)

type t

val install :
  ?time_scale:float ->
  ?lenient:bool ->
  Plan.t ->
  Core.Cluster.t ->
  t
(** Schedule every event of the plan on the cluster's runtime.
    [time_scale] (default [1.], sim) maps one
    plan time unit to that many backend time units — on mc, where
    time is wall-clock seconds, [~time_scale:0.001] runs a
    600-unit plan in 0.6 s. It scales [Slow]'s delays and [Skew]'s
    offsets as well as event times. Plan times count from install on mc and
    from engine time 0 on sim (install after running the engine and
    earlier events collapse to immediate, exactly as before).

    Faults with no faithful mc implementation (see above) make
    [install] raise on the mc backend, naming the variant and the
    reason — unless [lenient] (default [false]) is set, which logs
    and skips just those events (for replaying a sim-authored plan's
    network/crash portion under real parallelism).

    Tests only: test_chaos passes [~lenient:true] to check that a
    sim-only event is skipped on mc.
    @raise Invalid_argument if the plan touches a brick id outside
    the deployment, if [time_scale <= 0], or (non-[lenient] mc) if
    the plan contains a sim-only fault. *)

val restore : t -> unit
(** Return the {e environment} to health (see above). Idempotent, and
    safe to call while scheduled events are still pending: pending
    events are cancelled first, and a timer callback that loses the
    race observes the restored flag and does nothing. On the mc
    backend crashed bricks restart asynchronously
    ({!Core.Cluster.recover}); quiesce the cluster to wait for them. *)

val applied : t -> (float * Plan.fault) list
(** The faults actually applied so far, oldest first, each stamped
    with the runtime's time when it fired (sim: virtual time = the
    plan's event time; mc: wall-clock seconds on the pool's clock,
    comparable to operation invocation times). Faults skipped by
    [lenient] or cancelled by {!restore} never appear. *)

val inject : Core.Cluster.t -> Plan.fault -> unit
(** One-shot fault application outside any plan: validates the fault
    for the cluster's backend (same rejections as {!install}), applies
    it, and emits the [Obs.Fault] event. No bookkeeping — the caller
    undoes what it injects (benchmarks driving crash/heal cycles).
    A [Slow]'s units are the runtime's own (as {!install} with a
    [time_scale] of 1); it replaces any earlier added delay and adds
    to the sim channel's own delay.
    @raise Invalid_argument on a sim-only fault on mc. *)
