(** Client-directed erasure coding without quorums or versioning — the
    related-work baseline of the paper's section 6 (Amiri, Gibson and
    Golding's highly-concurrent shared storage, reduced to its storage
    model).

    Clients write encoded blocks directly to storage devices, which
    overwrite in place: no ordering phase, no version log, no quorum
    intersection. This is cheap (one round trip per write, no parity
    read-modify-write bookkeeping beyond the code itself) but unsafe
    under combined failures. The paper's example: with a 2-of-3 code,
    if a client crashes after updating a single data device and a
    second device then fails terminally, the surviving blocks mix two
    stripe versions and decoding returns {e garbage} — neither the old
    nor the new stripe. The X6 bench constructs exactly that run and
    contrasts it with the quorum protocol, which returns the old
    stripe.

    This module exists to demonstrate the failure; it is intentionally
    the naive design. *)

type t

val create :
  ?seed:int -> ?block_size:int -> m:int -> n:int -> unit -> t
(** A cluster of [n] storage devices holding one [m]-of-[n] encoded
    stripe per register index ({!Core.Config.default_codec}), on a
    sim {!Core.Cluster.Substrate}. *)

val block_size : t -> int
val runtime : t -> Runtime.t

type 'a outcome = ('a, [ `Failed ]) result

val write : t -> reg:int -> Bytes.t array -> unit outcome
(** Write a stripe of [m] data blocks: encode and send each encoded
    block to its device, waiting for every live device to ack. Must
    run inside a fiber. If a device is down its block is simply not
    updated — the client has no way to tell a slow device from a dead
    one, which is precisely the assumption the paper rejects. *)

val write_prefix : t -> reg:int -> devices:int -> Bytes.t array -> unit
(** Deliver the write's blocks to only the first [devices] devices and
    then stop — the client crashed mid-write. (Fault injection used by
    benches and tests; runs the simulation internally.) *)

val read : t -> reg:int -> Bytes.t array outcome
(** Collect blocks from the first [m] live devices and decode. With
    mixed-version blocks this silently returns garbage: the protocol
    has no version information to detect the mix. *)

val crash_device : t -> int -> unit
(** Permanent device failure. *)

val run : ?horizon:float -> t -> unit
val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
