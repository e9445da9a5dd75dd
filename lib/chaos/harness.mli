(** One chaos round: a cluster, concurrent clients, a nemesis running
    a {!Plan}, and a strict-linearizability verdict — on either
    backend.

    On the default [Sim] backend the harness is a deterministic
    function of [(plan, seed, knobs)]: the cluster's engine is seeded
    with [seed], the client mix is drawn from a harness-local
    generator also derived from [seed], and the nemesis schedule is
    the plan itself — so the same inputs replay the same run, down to
    a byte-identical event trace ([capture_trace:true] twice and
    compare).

    On the [Mc] backend the {e workload} is still drawn from [seed]
    (every client's operations are pre-generated before any thread
    starts), but scheduling is real parallelism on OCaml 5 domains:
    runs are not reproducible, plan times are scaled to wall-clock
    seconds by [time_scale], crashes really tear down the brick's
    receive loop, and recovery replays the paper's section 4 path.
    Use sim to verify and shrink; use mc to hunt races. A failing mc
    seed is worth replaying on sim with the same plan.

    Per-block histories are recorded exactly as in the fuzz suite
    (invocations at call time, completions/aborts at return, pending
    operations of crashed coordinators marked partial at the crash
    instant) and checked with {!Linearize.Check.strict}.

    Silent corruption needs one special case: a {!Plan.Bit_rot} fault
    makes a replica serve garbage with a valid checksum, so a read can
    return a value nobody ever wrote. That is storage damage, not a
    protocol-ordering bug, and only {!Fab.Volume.scrub} can repair it
    — so when (and only when) the plan contains [Bit_rot] events, a
    completed read of a never-written value is reclassified as an
    abort and counted in [corrupt_reads] instead of poisoning the
    history. Protocol bugs proper (e.g. [--chaos-unsafe-skip-order])
    surface as orderings of {e genuinely written} values and are still
    caught at full strength. *)

type backend =
  | Sim  (** deterministic discrete-event backend (the oracle) *)
  | Mc of { domains : int; time_scale : float }
      (** OCaml 5 multicore backend: [domains] worker domains, plan
          times scaled by [time_scale] seconds per unit (0.001 runs a
          600-unit plan in 0.6 s) *)

type result = {
  ok : int;  (** operations that completed successfully *)
  aborted : int;
  unavailable : int;  (** fail-fast deadline expiries *)
  stuck : int;
      (** operations still pending at the end of the settle phase whose
          coordinator never crashed — a liveness bug. On mc this also
          absorbs a pool that failed to quiesce in the settle window. *)
  corrupt_reads : int;
      (** reads of never-written values under a [Bit_rot] plan *)
  violations : (int * Linearize.Check.violation) list;
      (** (block-history index, violation) for every non-linearizable
          per-block history *)
  hook_leaks : int;
      (** crash hooks above the per-brick count at deployment time —
          leaked registrations *)
  trace : string option;
      (** JSONL event trace when [capture_trace] was set *)
}

val failed : result -> bool
(** A linearizability violation, a stuck operation, or a hook leak.
    Aborts and unavailability are legitimate under faults and do not
    fail a run. *)

val pp_result : Format.formatter -> result -> unit

val run :
  ?backend:backend ->
  ?m:int ->
  ?n:int ->
  ?stripes:int ->
  ?clients:int ->
  ?ops_per_client:int ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  ?capture_trace:bool ->
  seed:int ->
  Plan.t ->
  result
(** Defaults: [backend = Sim], [m = 2], [n = 5] (so q = 4, f = 1),
    [stripes = 4], [clients = 3], [ops_per_client = 12],
    [deadline = 200.], [unsafe_skip_order = false],
    [capture_trace = false]. The run lasts the plan's horizon, then
    the nemesis restores the environment and the backend settles (sim:
    run to quiescence; mc: bounded wall-clock wait) so in-flight
    retries either finish or are exposed as stuck. [deadline] and the
    plan's times are in plan units on both backends; [Mc]'s
    [time_scale] converts them to seconds.
    Each coordinator's clock gets a seeded skew of up to ±100 plan
    units ({!Core.Clock.set_skew}): the paper's loosely synchronized
    clocks, which the order phase must tolerate.
    Tests only: test_chaos passes [~capture_trace:true] to compare two
    runs' traces.
    @raise Invalid_argument on [Mc] with [clients > n] (each
    concurrent mc client needs a dedicated coordinator: its retry
    hint, set by {!Core.Coordinator.hint_retry} and read and cleared
    by the next operation's span, is a plain mutable flag, not safe to
    share between domains), [domains < 1], [time_scale <= 0], or a plan
    containing sim-only faults ({!Nemesis.install}'s rejections). *)
