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
  ?block_size:int -> m:int -> n:int -> unit -> t
(** A cluster of [n] storage devices holding one [m]-of-[n] encoded
    stripe ({!Core.Config.default_codec}), on a sim
    {!Core.Cluster.Substrate}. *)

type 'a outcome = ('a, [ `Failed ]) result

val write : t -> Bytes.t array -> unit outcome
(** Write a stripe of [m] data blocks: encode and send each encoded
    block to its device, waiting for every live device to ack. Must
    run inside a fiber. If a device is down its block is simply not
    updated — the client has no way to tell a slow device from a dead
    one, which is precisely the assumption the paper rejects. *)

val write_first : t -> Bytes.t array -> unit
(** Deliver the write's block to device 0 only and then stop — the
    client crashed after updating a single device, the paper's
    example. (Fault injection used by benches and tests; it bypasses
    the network.) *)

val read : t -> Bytes.t array outcome
(** Collect blocks from the first [m] live devices and decode. With
    mixed-version blocks this silently returns garbage: the protocol
    has no version information to detect the mix. *)

val crash_device : t -> int -> unit
(** Permanent device failure. *)

val run_op : t -> (unit -> 'a) -> 'a option
