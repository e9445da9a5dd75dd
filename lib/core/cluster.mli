(** Turn-key deployment of a storage-register system on either
    backend: the deterministic simulator ([Sim]) or the OCaml 5
    multicore pool ([Mc]). One wiring serves both: a runtime, the
    message fabric ({!Quorum.Fabric}) over the backend's delivery, the
    RPC layer, [bricks] bricks each running a replica, and a
    coordinator handle per brick.

    This is the entry point used by tests, examples and benchmarks; the
    FAB volume layer builds on it with a multi-stripe layout, and the
    baselines run on its {!Substrate}. *)

type backend =
  | Sim
      (** The deterministic discrete-event simulator: virtual time in
          delta units, a run is a pure function of its seed. *)
  | Mc of { domains : int }
      (** The OCaml 5 multicore runtime on [domains] worker domains:
          wall-clock time, real parallelism, no determinism. *)

(** What a deployment runs on, whatever protocol it wires on top: the
    runtime, the one fault model, the metrics registry and
    observability hub, and the backend's delivery, quiescence and
    crash/recover. {!create} wires FAB on it; [Baseline.Ls97] and
    [Baseline.Direct] wire their replicas on it. The backends differ
    only inside this module: in how a message is delivered (an engine
    event after the channel's delay, or a per-brick mailbox drained by
    one receive loop), how a run quiesces, and what crash and recover
    do (DESIGN 4i). *)
module Substrate : sig
  type t

  val create :
    ?backend:backend ->
    ?seed:int ->
    ?net_config:Simnet.Net.config ->
    n:int ->
    unit ->
    t
  (** [create ~n ()] is a substrate for addresses [0 .. n-1] (default
      backend [Sim], [seed = 42], {!Simnet.Net.default_config}).
      [seed] drives the sim engine and the {!Simnet.Faultnet} on both
      backends; [net_config] is the sim channel and unused on mc. An
      mc substrate starts its worker domains and one receive loop per
      address; tear it down with {!shutdown}.
      @raise Invalid_argument if [n < 1]. *)

  val runtime : t -> Runtime.t
  val metrics : t -> Metrics.Registry.t

  val rpc :
    t ->
    req_bytes:('req -> int) ->
    rep_bytes:('rep -> int) ->
    ?req_label:('req -> string) ->
    ?rep_label:('rep -> string) ->
    ?retry_every:float ->
    unit ->
    ('req, 'rep) Quorum.Rpc.t
  (** An RPC layer over a fresh {!Quorum.Fabric} on this substrate,
      counting into {!metrics} and tracing into {!obs}. Time-valued
      knobs are in the backend's units. Sim: [retry_every] defaults to
      the RPC layer's, and the grace period is the channel's
      [delay + jitter]. Mc: [retry_every] defaults to 50 ms and the
      grace period is a quarter of it. *)

  val run : ?horizon:float -> t -> unit
  (** Sim: run the engine until quiescence or [horizon] (default
      100_000) time units from now. Mc: wait for every non-daemon
      task. *)

  (** {!run}, bounded on mc by [timeout] wall-clock seconds; [false]
      if tasks are still live then. *)

  val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
  (** Spawn [f] as a task, {!run}, and return its result ([None] if it
      did not finish). *)

  val shutdown : t -> unit
  (** Mc: close every mailbox, join the domains and materialize the
      runtime's counters into {!metrics} (see {!Cluster.shutdown}).
      Sim: no-op. Idempotent. *)

  val crash : t -> Brick.t -> unit
  (** Crash the brick at its address (see {!Cluster.crash}). *)

  val recover : t -> Brick.t -> resync:(unit -> unit) -> unit
  (** Bring it back (see {!Cluster.recover}); on mc, [resync] runs in
      the restart task once the brick is alive again. *)
end

type t = {
  substrate : Substrate.t;
  runtime : Runtime.t;
      (** The substrate protocol code schedules on. *)
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
      (** The deployment-wide observability hub. Disabled (and
          zero-cost) until a sink is attached with {!Obs.add_sink};
          enabling it on sim also installs the engine queue-depth
          probe. *)
  cfg : Config.t;
  bricks : Brick.t array;
  replicas : Replica.t array;
  coordinators : Coordinator.t array;
  recoverers : Coordinator.t array;
      (** Mc only (empty on sim): one coordinator per brick that
          replays recovery after the brick's restart, with clock pid
          [bricks + i]. *)
}

val create :
  ?backend:backend ->
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?bricks:int ->
  ?block_size:int ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  ?retry_every:float ->
  ?m:int ->
  ?n:int ->
  unit ->
  t
(** [create ~m ~n ()] builds an m-of-n system on [backend] (default
    [Sim]): [bricks] bricks (default [n]) and one unbounded range of
    stripes from 0 ({!Config.add_range}) with {!Config.default_codec}
    and {!Layout.default}: brick [i] stores block [i] of every stripe
    when [bricks = n], stripe [s] uses bricks [(s + i) mod bricks]
    otherwise. Defaults: 1 KiB blocks, GC on. On sim, [seed] (default
    42) drives the engine and the {!faultnet}, and [net_config] is the
    channel (default: unit delay, no jitter, no loss). Every
    coordinator's {!Clock} reads the deployment's [runtime] clock with
    zero skew; skew one with {!Clock.set_skew}.

    [create ~bricks ()], without [m] and [n], starts with an empty
    range table: multi-volume brick pools add a bounded range per
    volume ({!Fab.Pool}, {!Fab.Volume.create}).

    On stripes with [m > f], a coordinator's repeat
    {!Coordinator.write_stripe} skips the Order round when its own last
    full-quorum stripe store is the newest version it has seen (DESIGN
    4d); a first write, and every block write, costs Table 1's rounds.

    Time-valued knobs ([deadline], [retry_every]) are in the
    backend's units: delta on sim, wall-clock seconds on mc (see
    {!Substrate.rpc} for the retransmission defaults). [deadline]
    bounds every coordinator operation (fail-fast [`Unavailable],
    {!Config.t.deadline}); [retry_every] starts the RPC
    retransmission schedule ({!Quorum.Rpc.create});
    [unsafe_skip_order] enables the deliberately broken protocol
    variant the chaos harness must catch
    ({!Config.t.unsafe_skip_order}).

    On mc, bricks exchange messages through in-process mailboxes, each
    brick's handlers run serially on its own receive loop, and loops
    run in parallel across the worker domains; every coordinator's
    clock stays unique when its tasks run on several domains at once.
    Fault injection works as on sim: every send passes through the
    {!faultnet}, and {!crash}/{!recover} really tear down and restart
    the brick's receive loop (DESIGN 4i). Verify protocol behavior on
    sim; benchmark wall-clock numbers and hunt races on mc. Tear an mc
    deployment down with {!shutdown}.
    @raise Invalid_argument on [bricks < n], on an invalid m-of-n
    code, on [m] without [n] or [n] without [m], or on neither [n] nor
    [bricks]. *)

val create_mc : domains:int -> ?block_size:int -> ?m:int -> ?n:int -> unit -> t
(** [create ~backend:(Mc { domains })]; kept only for vdbench's call
    site until the next vdbench revision switches it over. *)

val run : ?horizon:float -> t -> unit
(** Drive the simulation until quiescence (or until [horizon] virtual
    time units from now, default 100_000). On a multicore deployment
    [horizon] is ignored and this is {!await_quiesce}. *)

val await_quiesce : t -> unit
(** Block until every spawned task has finished (sim: run the engine
    dry; mc: wait for the pool's non-daemon tasks). *)

val try_quiesce : ?timeout:float -> t -> bool
(** {!await_quiesce} with an optional wall-clock bound (mc only; the
    sim engine always quiesces). Returns [false] if tasks are still
    live at the timeout — a stuck operation. Do not {!shutdown} after
    a [false] return: a domain waits for its stuck fiber forever. *)

val shutdown : t -> unit
(** Release backend resources. Multicore: close every brick mailbox,
    stop the receive loops, join the worker domains, then materialize
    the runtime's hot-path stats into [metrics] —
    ["runtime.wheel.max_depth"/".fired"/".purged"/".wakeups"] (the
    timer queue, {!Runtime_mc.timer_stats}),
    ["runtime.sched.resumed"/".parks"/".wakeups"] (workers) and
    ["runtime.mailbox.drain.batches"/".msgs"] (batched drains). Sim:
    no-op. Idempotent; call after
    {!await_quiesce}. *)

val is_mc : t -> bool

val run_op : ?coord:int -> ?horizon:float -> t -> (Coordinator.t -> 'a) -> 'a option
(** [run_op t f] spawns [f (coordinator coord)] as a fiber, runs the
    engine, and returns the result — [None] if the fiber did not
    complete (its coordinator crashed, or the horizon hit). *)

val spawn : ?coord:int -> t -> (Coordinator.t -> unit) -> unit
(** Spawn a fiber without running the engine; for concurrent
    multi-client scenarios combined with {!run} and {!Runtime.timer}. *)

val crash : t -> int -> unit
(** Crash brick [i]. Sim: flip the brick (the deterministic network
    models the rest). Mc: additionally run a real process death —
    crash hooks cancel the brick's pending quorum calls, its mailbox
    closes, and its receive loop drains out and exits; messages sent
    while down are lost. Idempotent. *)

val recover : t -> int -> unit
(** Bring brick [i] back. Sim: flip the brick. Mc: asynchronous
    restart — a spawned task awaits the dead receive loop's exit,
    installs a fresh mailbox, respawns the loop, marks the brick
    alive, then replays the paper's section 4 recovery path (a
    recovery read per hosted stripe, completing ongoing timestamps and
    writing the reconstructed version back at a fresh timestamp;
    skipped when the deployment has no [deadline], since recovery
    quorum calls could then retransmit forever). {!await_quiesce} /
    {!try_quiesce} wait for the restart to finish. No-op if the brick
    is already alive. *)

val faultnet : t -> Simnet.Faultnet.t
(** The deployment's fault model, on either backend: every message
    takes one verdict from it on its way to the fabric. The chaos
    nemesis injects network faults through it. *)

val snapshot : t -> Metrics.Snapshot.t
(** Snapshot all counters (messages, bytes, disk I/O). *)

val sim_engine : t -> Dessim.Engine.t
(** The simulator under a [Sim] deployment, for what only an engine
    can do (a custom event chooser, running to an absolute time).
    Schedule and read time through [runtime] instead.
    Tests only: test_explore installs its schedule chooser on it.
    @raise Invalid_argument on an [Mc] deployment. *)
