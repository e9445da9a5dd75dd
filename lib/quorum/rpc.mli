(** The non-blocking [quorum()] communication primitive (paper
    section 2.2), built on retransmission over fair-lossy channels.

    A coordinator broadcasts a request to the members of a stripe's
    replica group and blocks its task until enough replies arrive.
    Lost messages are retransmitted periodically, so under fair loss
    the call eventually completes as long as a quorum of members is
    correct. If the coordinator brick crashes first, the task is
    cancelled — the operation becomes a {e partial} operation, exactly
    the failure mode the register algorithm's recovery path handles.

    Request/reply matching uses globally unique request ids, and the
    server side is expected to be idempotent: a retransmitted request
    may be re-executed, and the register layer's handlers are written
    so that re-execution returns the same answer.

    The layer is runtime-generic (DESIGN 4g): it schedules
    retransmissions and blocks callers through a {!Runtime.t}, and
    moves messages through a {!transport} — in a deployment, the
    {!Fabric} over the simulated lossy channel or over the multicore
    backend's mailboxes. *)

type ('req, 'rep) envelope
(** Wire message type; instantiate the fabric as carrying
    [('req, 'rep) Rpc.envelope] values. *)

type 'msg transport = {
  xn : int;  (** Address space size; addresses are [0 .. xn-1]. *)
  xobs : Obs.t;  (** Hub message events are emitted to. *)
  xsend :
    background:bool ->
    ctx:Obs.ctx ->
    info:string option ->
    src:int ->
    dst:int ->
    bytes_on_wire:int ->
    'msg ->
    unit;
      (** Fire-and-forget delivery attempt; may drop, delay,
          reorder. *)
  xregister : int -> (src:int -> 'msg -> unit) -> unit;
      (** Install the handler for an address, replacing any previous
          one. The transport must invoke handlers of one address
          sequentially (never two concurrently). *)
  xdead_drop : unit -> unit;  (** Count a message to a dead process. *)
}
(** What the RPC layer needs from a message fabric. *)

type ('req, 'rep) t
(** An RPC endpoint layer shared by all processes on one fabric. *)

exception Unavailable
(** Raised by {!call} when its deadline expires before enough replies
    arrived: the quorum is presumed unreachable (more than [n - q]
    members down or partitioned away) and the caller fails fast
    instead of retransmitting forever. *)

val create :
  rt:Runtime.t ->
  transport:(('req, 'rep) envelope) transport ->
  ?metrics:Metrics.Registry.t ->
  req_bytes:('req -> int) ->
  rep_bytes:('rep -> int) ->
  ?req_label:('req -> string) ->
  ?rep_label:('rep -> string) ->
  ?retry_every:float ->
  ?grace:float ->
  unit ->
  ('req, 'rep) t
(** [create ~rt ~transport ~req_bytes ~rep_bytes ()] builds the layer.
    [req_bytes]/[rep_bytes] give the accounted payload size of a
    message (the block bytes it carries). [retry_every] (default 8
    time units) is the first retransmission delay; each later delay
    doubles, and a cap of [8 * retry_every] bounds this exponential
    base {e before} jitter: each delay is the capped base scaled by a
    deterministic jitter in [0.75, 1.25), so the effective delay may
    exceed the cap by up to 25% (capping after jitter
    would make every capped retransmission identical, re-synchronizing
    exactly the retries jitter exists to spread out). The jitter is
    hashed from the request id and attempt number — never drawn from
    the engine rng, so fault injection does not perturb the rng stream
    fault-free code samples.
    [grace] (default one time unit) is how long a call with an
    [~until] predicate keeps waiting after reaching a bare quorum
    before settling for it. Retransmission rounds are counted in
    [metrics] under ["rpc.retries"]. [req_label]/[rep_label] give
    short human names for messages in traces (only evaluated when the
    transport's observability hub is enabled).

    Pending calls live in one table under one mutex (DESIGN 4h: a
    16-way sharded table did not beat it end to end). Each completion
    path (reply quorum, grace, deadline, coordinator crash) claims the
    call's entry under that lock, so exactly one of them tears it down
    and wakes the caller. *)

val serve :
  ('req, 'rep) t -> addr:int ->
  (src:int -> ctx:Obs.ctx -> 'req -> 'rep option) -> unit
(** [serve t ~addr handler] installs the request handler for [addr].
    Returning [None] drops the request silently (the brick is crashed);
    one-way notifications also invoke [handler] and ignore the
    result. [ctx] is the caller's attribution context (operation id and
    phase), which the envelope carries across the wire; handlers pass
    it on to disk-I/O accounting so replica-side work is attributed to
    the client operation that caused it. *)

val call :
  ('req, 'rep) t ->
  coord:Brick.t ->
  members:int list ->
  quorum:int ->
  ?until:((int * 'rep) list -> bool) ->
  ?ctx:Obs.ctx ->
  ?deadline:float ->
  (int -> 'req) ->
  (int * 'rep) list
(** [call t ~coord ~members ~quorum make_req] is the paper's
    [quorum(msg)]: send [make_req dst] to every member [dst], block
    the current task, and return the replies once at least [quorum]
    members answered. Each member counts once: a retransmission can
    make a member answer twice, and its later replies are dropped, so
    the result holds at most one reply per member, and later
    retransmission rounds go only to members that have not answered.
    The per-destination builder lets a stripe write
    ship each replica only its own block (so a write costs nB on the
    wire, as Table 1 accounts it); most calls ignore the address and
    return a shared request.

    With [~until], the call keeps waiting beyond the bare quorum —
    until the predicate holds on the replies so far, every member
    replied, or the grace period after reaching the quorum expires.
    The register layer uses this to give the designated read targets a
    chance to answer without stalling on crashed targets.

    [ctx] (default {!Obs.no_ctx}) tags every message of the round, and
    every retransmission emits a [Timeout] observability event naming
    how many members are still missing and which attempt this is.

    [deadline] is an absolute runtime-time bound: if the call has not
    completed by then, retransmission stops, the pending state and
    crash hook are torn down exactly as on completion, and
    {!Unavailable} is raised in the calling task. Without a deadline
    the call retransmits forever (the paper's model).

    Must run inside a runtime task; raises [Runtime.Cancelled]
    if [coord] crashes while the call is pending.
    @raise Invalid_argument if [quorum] exceeds the member count. *)

val count_dead_drop : ('req, 'rep) t -> unit
(** Bump the fabric's ["net.drops.dead"] counter — called by a server
    layer when it receives a message for a crashed process (the RPC
    layer itself cannot distinguish that from a one-way request that
    simply has no reply). *)

val notify :
  ('req, 'rep) t -> coord:Brick.t -> members:int list ->
  ?ctx:Obs.ctx -> 'req -> unit
(** One-way, best-effort broadcast (no retransmission, no replies);
    used for asynchronous garbage-collection messages. *)
