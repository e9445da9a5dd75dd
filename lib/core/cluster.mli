(** Turn-key deployment of a storage-register system inside the
    simulator: engine, network, RPC layer, [bricks] bricks each running
    a replica, and a coordinator handle per brick.

    This is the entry point used by tests, examples and benchmarks; the
    FAB volume layer builds on it with a multi-stripe layout. *)

type backend
(** Which substrate this deployment runs on: the deterministic
    simulator, or the OCaml 5 multicore pool ({!create_mc}). *)

type t = {
  engine : Dessim.Engine.t;
      (** The simulation driver. On a {!create_mc} deployment this is
          an idle placeholder — schedule nothing on it; use
          [runtime]. *)
  runtime : Runtime.t;
      (** The substrate protocol code schedules on; identical
          behavior to [engine] on the sim backend. *)
  backend : backend;
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
      (** The deployment-wide observability hub. Disabled (and
          zero-cost) until a sink is attached with {!Obs.add_sink};
          enabling it also installs the engine queue-depth probe. *)
  cfg : Config.t;
  bricks : Brick.t array;
  replicas : Replica.t array;
  coordinators : Coordinator.t array;
}

val create :
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?bricks:int ->
  ?layout:(int -> Simnet.Net.addr array) ->
  ?block_size:int ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  ?retry_every:float ->
  ?retry_backoff:float ->
  ?retry_cap:float ->
  m:int ->
  n:int ->
  unit ->
  t
(** [create ~m ~n ()] builds an m-of-n system. Defaults: Reed-Solomon
    codec ([replication] when [m = 1], XOR [parity] when [n = m + 1]),
    [bricks = n], identity layout (brick [i] stores block [i] of every
    stripe) when [bricks = n] and a rotating layout (stripe [s] uses
    bricks [(s + i) mod bricks]) otherwise, 1 KiB blocks,
    deterministic network with unit delay, GC on. Every coordinator's
    {!Clock} reads the deployment's [runtime] clock with zero skew;
    skew one with {!Clock.set_skew}.

    On stripes with [m > f], a coordinator's repeat
    {!Coordinator.write_stripe} skips the Order round when its own last
    full-quorum stripe store is the newest version it has seen (DESIGN
    4d); a first write, and every block write, costs Table 1's rounds.
    [seed] drives both the engine and the deployment's {!faultnet}.

    [deadline] bounds every coordinator operation in sim-time units
    (fail-fast [`Unavailable], {!Config.t.deadline});
    [retry_backoff]/[retry_cap] shape the RPC retransmission schedule
    ({!Quorum.Rpc.create}); [unsafe_skip_order] enables the
    deliberately broken protocol variant the chaos harness must catch
    ({!Config.t.unsafe_skip_order}). *)

val create_policied :
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?block_size:int ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  ?retry_every:float ->
  ?retry_backoff:float ->
  ?retry_cap:float ->
  bricks:int ->
  policy_of:(int -> Config.policy) ->
  unit ->
  t
(** Heterogeneous deployment: each stripe's codec, quorum system and
    members come from [policy_of] (which may be backed by a mutable
    table — multi-volume brick pools allocate stripe ranges on the
    fly, see {!Fab.Pool}). *)

val create_mc :
  ?domains:int ->
  ?bricks:int ->
  ?layout:(int -> Simnet.Net.addr array) ->
  ?block_size:int ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  ?retry_every:float ->
  ?retry_backoff:float ->
  ?retry_cap:float ->
  m:int ->
  n:int ->
  unit ->
  t
(** [create_mc ~m ~n ()] deploys the same m-of-n system on the OCaml 5
    multicore backend ({!Runtime_mc}): bricks exchange messages
    through in-process mailboxes, each brick's handlers run serially
    on its own receive loop, and loops run in parallel across
    [domains] worker domains (default 1). Time-valued knobs
    ([deadline], [retry_every] — default 50 ms — [retry_cap]) are
    wall-clock seconds here, not simulated delta units. Every
    coordinator's {!Clock}, the recovery coordinators' too, reads this
    runtime's wall clock, and stays unique when the coordinator's
    tasks run on several domains at once. [unsafe_skip_order] enables
    the deliberately broken protocol variant so the chaos soak can
    prove its checker bites under real parallelism too. No determinism
    and no virtual time — but fault injection works here as on sim:
    every send passes through the {!faultnet}, and {!crash}/{!recover}
    really tear down and restart the brick's receive loop (DESIGN 4i).
    Verify protocol behavior on the sim backend; benchmark wall-clock
    numbers and hunt races on this one. Tear down with {!shutdown}. *)

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
    ["runtime.wheel.max_depth"/".fired"/".purged"] (timer wheel) and
    ["runtime.mailbox.drain.batches"/".msgs"] (batched drains); the
    RPC layer's ["rpc.shard.contention"] counts shard-lock waits as
    they happen. Sim: no-op. Idempotent; call after
    {!await_quiesce}. *)

val is_mc : t -> bool

val run_op : ?coord:int -> ?horizon:float -> t -> (Coordinator.t -> 'a) -> 'a option
(** [run_op t f] spawns [f (coordinator coord)] as a fiber, runs the
    engine, and returns the result — [None] if the fiber did not
    complete (its coordinator crashed, or the horizon hit). *)

val spawn : ?coord:int -> t -> (Coordinator.t -> unit) -> unit
(** Spawn a fiber without running the engine; for concurrent
    multi-client scenarios combined with {!run} and
    {!Dessim.Engine.schedule}. *)

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
