(** The replica side of the storage-register protocol: Algorithm 2's
    message handlers plus the [Modify] handler of Algorithm 3 and the
    garbage-collection handler of section 5.1.

    One replica runs on each brick and serves every stripe whose
    layout includes the brick. Per stripe it keeps the persistent
    state of section 4.2 — [ord-ts] (in NVRAM) and the versioned
    {!Slog} (on disk). That state survives crashes; while the brick is
    crashed the replica silently drops requests, and on recovery it
    resumes with its persistent state intact, which is all the
    algorithm needs (recovery is seamless — quorums simply start
    including the brick again).

    Handlers are idempotent: a retransmitted request whose timestamp
    has already been applied re-acknowledges success instead of
    refusing, so the fair-loss retransmission in {!Quorum.Rpc} cannot
    turn a slow network into spurious aborts. *)

type t

val create : Config.t -> brick:Brick.t -> t
(** Installs the RPC handler for the brick's address. *)

(** {2 Introspection (tests, debugging, GC statistics)} *)

val ord_ts : t -> stripe:int -> Timestamp.t
(** Tests only: test_register checks a replica's ordering timestamp
    against its log. *)

val log : t -> stripe:int -> Slog.t option
(** [None] if the replica has never touched the stripe. *)

val stripes : t -> int list
val gc_removed : t -> int
(** Total log entries discarded by garbage collection so far. *)
