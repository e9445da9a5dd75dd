(** The coordinator side of the storage-register protocol:
    Algorithm 1 (stripe access) and Algorithm 3 (block access).

    Any brick can coordinate any operation; the designation is
    per-operation. All operations must run inside a runtime task
    ({!Runtime.spawn}) — they suspend on quorum replies. If the
    coordinator brick crashes mid-operation the task is cancelled
    ({!Runtime.Cancelled}) and the operation becomes a
    partial operation, whose fate (roll forward or roll back) the next
    read's recovery decides, per the paper's strict linearizability.

    Operations return [Error `Aborted] when a replica refuses a
    timestamp — which happens only under concurrent conflicting
    operations on the same stripe or badly skewed clocks (section 3).
    The caller may retry with a fresh operation.

    With a per-operation deadline configured ({!Config.t.deadline}),
    operations return [Error `Unavailable] when a quorum round misses
    the deadline — the fail-fast answer when more than [n - q] bricks
    are unreachable. An unavailable operation may have partially
    applied; like a coordinator crash it leaves at worst a partial
    write for the next read's recovery to resolve.

    Blocks that reads return, and blocks passed to writes, may be
    shared with the replicas' logs (no read copies a block it can hand
    over, {!Erasure.Codec.decode} included): treat them as read-only. *)

type t

val create : Config.t -> brick:Brick.t -> clock:Clock.t -> t
(** [create cfg ~brick ~clock] makes [brick] able to coordinate
    operations. The same brick typically also runs a {!Replica}. *)

val brick : t -> Brick.t
(** Tests only: test_register sends raw RPCs from the coordinator's
    brick. *)

val clock : t -> Clock.t

type 'a outcome = ('a, [ `Aborted | `Unavailable ]) result

val read_stripe : t -> stripe:int -> Bytes.t array outcome
(** Read the whole stripe: [m] data blocks. One round trip in the
    common case, asking [m] random members that are not {!suspects}
    for their blocks. If one of them does not answer, the read is
    re-targeted as in {!read_blocks}; it falls back to the two-phase
    recovery only when a round shows a refused status or two
    versions. *)

val write_stripe : t -> stripe:int -> Bytes.t array -> unit outcome
(** Two-phase write of [m] data blocks: Order, then Write. When the
    stripe's geometry has [m > f] and this coordinator's last
    full-quorum stripe store to it is still the newest version it has
    seen, the Order round is skipped (a [Phase_elided] event marks it)
    and a refused Write falls back to both rounds at the same
    timestamp (DESIGN 4d).
    @raise Invalid_argument if the stripe shape is wrong (block count
    or block size). *)

val cache_capacity : int
(** How many stripes' timestamps a coordinator caches for order
    elision; adding one more empties the cache first.
    Tests only: test_register writes past it to check the cache's bound. *)

val read_blocks : t -> stripe:int -> int -> len:int -> Bytes.t array outcome
(** [read_blocks t ~stripe j0 ~len] reads the contiguous data blocks
    [j0 .. j0+len-1] (in [0, m)) in one protocol operation: the paper's
    read-block, extended to a range as in its footnote 2. A single
    block is a range of [len = 1]; [len = m] is {!read_stripe}.

    The fast path is one round, whatever [len], that asks the range's
    members for their blocks. When one of them is suspected, or does
    not answer within the RPC grace period while the other replies
    show every status true at one version, the read is
    {e re-targeted}: it re-issues the Read at the first [m] members (in
    position order) that are not suspected and, after a silent round,
    answered it, and decodes the range from their blocks — the
    fast-read-stripe argument, so nothing is written. Only when a round
    shows a refused status or two versions (a partial write) does the
    read run the paper's section 4 recovery, which writes the stripe
    back at a new timestamp.
    @raise Invalid_argument if the range is out of bounds. *)

val write_blocks : t -> stripe:int -> int -> Bytes.t array -> unit outcome
(** [write_blocks t ~stripe j0 news] writes the contiguous data blocks
    starting at position [j0] in one protocol operation: the paper's
    write-block, extended to a range as in its footnote 2. A single
    block is a range of length 1; [Array.length news = m] is
    {!write_stripe}.

    The fast path is one Order&Read round fetching the range's current
    contents, then one Modify round that updates the range and folds
    every change into each parity block: naively every member receives
    the old and new blocks; with {!Config.t.optimized_modify} (section
    5.2) an in-range member receives its new block, a parity member
    the folded change for its row, and the other members no payload.
    Any fast-path failure runs the paper's slow path at the same
    timestamp: reconstruct the stripe, patch the range, store it. When
    one of the range's members is suspected, the write skips the fast
    path's Order&Read, which could not complete without it.
    @raise Invalid_argument if the range is out of bounds or a block
    has the wrong size. *)

val recover : t -> stripe:int -> Bytes.t array outcome
(** Expose the recovery procedure directly (used by tests and by
    brick-rebuild tooling): reconstructs the most recent complete
    version and writes it back at a fresh timestamp. *)

val scrub : t -> stripe:int -> int list outcome
(** [scrub t ~stripe] audits the stripe's newest version end to end:
    it gathers every replica's current block, searches for the
    consistent codeword, and rewrites the stripe if any block
    disagrees with it — repairing silent media corruption (bit rot)
    that the normal read path, which trusts timestamps, cannot see.
    Returns the positions that were found corrupted (empty on a clean
    stripe). Identification is sound while at most [(n - m) / 2] blocks
    of the current version are corrupt — the classic Reed-Solomon
    error-correction bound: beyond it several codewords explain the
    observed blocks equally well. The scrub also refreshes the stripe
    at a new timestamp, so it doubles as the re-sync pass a recovered
    brick runs. *)

val suspects : t -> int list
(** The members this coordinator currently routes around, sorted. A
    member joins when it misses a call that targeted it (a read target,
    or a block write's addressed member) and leaves as soon as it
    appears in any reply to this coordinator; a coordinator crash
    empties the set. While it is empty the protocol is exactly the
    paper's: no extra random draws, no extra state changes. Counted in
    the metrics registry as ["coord.suspects"] (members marked) and
    ["coord.retargets"] (re-targeted reads).
    Tests only: test_register checks which bricks a degraded read routes
    around. *)

val hint_retry : t -> unit
(** Flag the {e next} operation started on this coordinator as one its
    caller will retry if it aborts: its observability span then ends
    with outcome [Retry] instead of [Abort]. The hint is consumed
    synchronously when the operation starts (before any suspension
    point), so it cannot leak across interleaved fibers. Used by
    {!with_retries} and by clients running their own retry loops. *)

val with_retries : ?attempts:int -> t -> (unit -> 'a outcome) -> 'a outcome
(** [with_retries t f] runs [f] and re-runs it after an abort, up to
    [attempts] times (default 3) in total. Retrying is the client-side
    protocol the paper assumes: each attempt is a fresh operation with
    a fresh timestamp, and because the coordinator's clock has
    observed the replicas' timestamps during the failed attempt, a
    retry that lost only to a stale clock succeeds immediately.
    Genuine write-write conflicts may still abort. [`Unavailable] is
    returned immediately without further attempts: a deadline expiry
    means a quorum is presumed unreachable, and a retry would only
    burn its own deadline against the same dead bricks. *)
