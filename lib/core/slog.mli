(** The per-process persistent log of timestamped block versions
    (paper section 4.2).

    The log is a set of [(timestamp, block-or-bot)] pairs recording the
    history of updates to this process's block of the stripe. A pair
    with value bot ([None]) is a timestamp-only marker written when a
    block-level write updates other blocks of the stripe.

    The initial log is [{(LowTS, nil)}] where [nil] — the register's
    initial value — is concretely an all-zero block, matching virtual-
    disk semantics (reading an unwritten stripe returns zeroes).

    The three query functions are the paper's [max-ts], [max-block]
    and [max-below]. {!gc} implements the section 5.1 trimming rule:
    once a write with timestamp [ts] is known complete, every entry
    strictly older than [ts] can go — except that the newest entry is
    always retained so that [max-ts] never moves backwards.

    Each pair carries a content checksum. Queries scan newest-first,
    verify every entry they consult and stop at the first intact one
    that answers them; a damaged entry reads as absent. *)

type t

val create : block_size:int -> t
(** Fresh log holding only [(LowTS, nil)].
    @raise Invalid_argument if [block_size <= 0]. *)

val add : t -> Timestamp.t -> Bytes.t option -> unit
(** [add t ts b] inserts the pair, stamped with a content checksum.
    Re-inserting an existing intact timestamp is a no-op (set
    semantics, making retransmitted requests idempotent) and does not
    make the entry tearable again — no physical write occurred;
    re-inserting over a checksum-damaged record replaces it — this is
    how recovery and scrub repair detected corruption in place.
    @raise Invalid_argument on a sentinel timestamp or a block of the
    wrong size. *)

val mem : t -> Timestamp.t -> bool

val find : t -> Timestamp.t -> Bytes.t option option
(** [find t ts] is [Some value] if an entry exists ([value] itself
    being [None] for a bot marker). *)

val checksum : Bytes.t option -> int
(** The checksum stamped on each entry: the block's CRC32C
    ({!Crc32c.bytes}, in [0, 0xffffffff]), which changes on every
    single-bit error and every error burst of at most 32 bits. A bot
    marker hashes to a fixed tag above [0xffffffff], so it can never
    equal a block's checksum. *)

val max_ts : t -> Timestamp.t
(** Highest timestamp among the log's intact entries, bot markers
    included; [LowTS] if every entry is checksum-damaged. *)

val top_ts : t -> Timestamp.t
(** Highest timestamp in the log, intact or not, with no entry
    verified; [LowTS] for an empty log (a log that {!gc} emptied after
    every entry was damaged). Always [max_ts t <= top_ts t], so a
    timestamp above [top_ts t] is above [max_ts t] and has no entry,
    whatever the entries' checksums say. *)

val max_block : t -> Timestamp.t * Bytes.t
(** The intact non-bot entry with the highest timestamp. If every real
    entry is checksum-damaged the log reads as an unwritten register,
    [(LowTS, nil)] — the quorum then repairs this process as long as
    at most [f] members are in that state. *)

val head : t -> Timestamp.t * (Timestamp.t * Bytes.t)
(** [head t] is [(max_ts t, max_block t)], found in one newest-first
    descent: an entry that answers both is verified once. *)

val max_below : t -> Timestamp.t -> (Timestamp.t * Bytes.t option) option
(** [max_below t ts] is [Some (lts, content)] where [lts] is the
    highest timestamp in the log strictly smaller than [ts] — bot
    markers included — and [content] is the newest non-bot block at or
    below [lts] (in well-formed histories it always exists). [None] if
    the log has no entry below [ts].

    Including markers in [lts] deliberately deviates from the paper's
    literal wording ("the non-bot value with the highest timestamp
    smaller than ts"): a marker [(ts', bot)] records that this
    process's block content at stripe version [ts'] is its newest real
    block below [ts'], so the version a reply describes is [lts], not
    the content's own write time. The appendix proof relies on exactly
    this (a Modify that logs bot still counts as a store event for the
    written value); with the literal reading, a recovery running after
    a {e complete} block-level write and a later partial stripe write
    would fail to see the block-write's version group, descend past
    it, and roll back a completed operation — violating strict
    linearizability whenever [n - m + 1 < m]. See DESIGN.md. *)

val max_and_below :
  t -> Timestamp.t -> Timestamp.t * (Timestamp.t * Bytes.t option) option
(** [max_and_below t ts] is [(max_ts t, max_below t ts)]. With
    [ts = HighTS] both come from one newest-first descent, so the
    newest entry is verified once. Unlike {!head}, the second answer
    keeps {!max_below}'s shape: [None] on a log with no intact entry,
    and no block on a marker-only log, where {!head} gives the shared
    nil block. *)

val gc : t -> before:Timestamp.t -> int
(** [gc t ~before] removes entries with timestamp < [before], except
    the newest entry of the log and the newest non-bot entry (so
    {!max_ts} and {!max_block} stay defined). Returns the number of
    entries removed. *)

val size : t -> int
val entries : t -> (Timestamp.t * Bytes.t option) list
(** Newest first; for tests and debugging. *)

val block_size : t -> int

val corrupt_newest : t -> unit
(** Flip a bit in the newest intact non-bot entry {e and} restamp its
    checksum — simulated silent corruption below the checksum's radar
    (bad RAM at write time, firmware writing wrong bits with a valid
    CRC). Invisible to single-replica reads; only {!val:Volume.scrub}'s
    cross-brick decode can catch it. A no-op when no intact real entry
    exists: it never adds an entry. *)

val damage_newest : t -> Timestamp.t option
(** Corrupt the newest intact non-bot entry {e detectably}: its stored
    checksum stops matching, modeling a latent sector error or bit rot
    that the read path catches. The entry then reads as absent
    everywhere until some [add] (recovery, scrub) rewrites it. Returns
    the damaged timestamp, or [None] if no intact real entry exists. *)

val tear_last : t -> Timestamp.t option
(** Tear the most recent {!add} that physically wrote an entry — the
    half-written record a crash in mid-write leaves behind. The entry
    fails its checksum and reads as absent. Each written entry can be
    torn at most once, and only while it is still the latest; deduped
    no-op adds are never torn ([None] otherwise). *)

val checksum_errors : t -> int
(** Number of stored records currently failing their checksum. *)
