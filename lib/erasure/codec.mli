(** Deterministic m-out-of-n erasure codes (paper section 2.1).

    A codec turns a stripe of [m] equal-sized data blocks into [n]
    encoded blocks ([n > m]); the first [m] encoded blocks are the data
    blocks themselves (the codes are systematic) and the remaining
    [n - m] are parity blocks. The original stripe can be reconstructed
    from any [m] of the [n] encoded blocks.

    Three constructions are provided, mirroring the codes the paper
    discusses:
    - {!rs}: Cauchy Reed-Solomon, any [m < n <= 256];
    - {!parity}: single XOR parity (RAID-5), [n = m + 1];
    - {!replication}: mirroring as the degenerate case [m = 1].

    All three satisfy the paper's three primitives [encode], [decode]
    and [modify].

    Every codec is compiled against one {!Gf256.Kernel} implementation,
    chosen at construction: {!Gf256.Kernel.default} (the CPU probe's
    choice) unless {!rs}'s [?kernel] names another. All kernels compute
    byte-identical results; see {!kernel_name}. *)

type t
(** An m-of-n codec. Codecs are immutable and can be shared freely. *)

val rs : ?kernel:Gf256.Kernel.impl -> m:int -> n:int -> unit -> t
(** [rs ~m ~n ()] is a systematic Cauchy Reed-Solomon code. Any square
    submatrix of a Cauchy matrix is invertible, so any [m] of the [n]
    blocks suffice to decode.
    @raise Invalid_argument unless [1 <= m < n <= 256], or if [?kernel]
    names an unavailable kernel. *)

val parity : m:int -> unit -> t
(** [parity ~m ()] is the [m]-of-[m+1] XOR parity code (RAID-5 across
    bricks). @raise Invalid_argument unless [m >= 1]. *)

val replication : n:int -> unit -> t
(** [replication ~n ()] is 1-of-[n] mirroring: every encoded block is a
    copy of the single data block.
    @raise Invalid_argument unless [n >= 2]. *)

val m : t -> int
(** Number of data blocks per stripe. *)

val n : t -> int
(** Total number of encoded blocks per stripe. *)

val kernel_name : t -> string
(** [Gf256.Kernel.name (kernel t)]; stamped into benchmark metadata and
    workload statistics. *)

val coeff : t -> row:int -> col:int -> Gf256.Field.t
(** [coeff t ~row ~col] is the generator-matrix entry used to weight
    data block [col] in encoded block [row].
    Tests only: test_erasure checks the generator matrix with it. *)

val encode : t -> Bytes.t array -> Bytes.t array
(** [encode t stripe] maps [m] data blocks to [n] encoded blocks; the
    first [m] entries of the result are (copies of) the original data
    blocks, the rest are parity.
    @raise Invalid_argument if the stripe does not have exactly [m]
    blocks of equal positive length. *)

val encode_into : t -> Bytes.t array -> into:Bytes.t array -> unit
(** [encode_into t stripe ~into] is {!encode} writing into the [n]
    caller-provided blocks of [into] (each the stripe's block length)
    instead of allocating. A data slot [into.(i)] ([i < m]) may be the
    very same buffer as [stripe.(i)] — the self-copy is skipped — which
    lets callers ship data blocks without duplicating them. Parity slots
    must not alias any stripe block. The caller owns [into] and must not
    hand the same buffers to a second operation while the first result
    is still live.
    @raise Invalid_argument on shape or length mismatch. *)

val decode : t -> (int * Bytes.t) list -> Bytes.t array
(** [decode t blocks] reconstructs the [m] data blocks from any [m]
    pairs [(index, block)] where [index] identifies the encoded block's
    position in [0, n).

    The result aliases the input: a data block that is among the
    inputs is returned as it is, not copied, and only an erased data
    position gets a fresh buffer. Neither the inputs nor the result
    may be mutated while the other is in use; the protocol layer only
    decodes log blocks and read replies, which nothing mutates.

    Decoding consults a bounded per-codec LRU cache of decode plans
    keyed by the (sorted) index set, so repeated decodes over the same
    surviving set skip matrix inversion; see {!plan_cache_stats}.
    @raise Invalid_argument if fewer or more than [m] blocks are given,
    if an index repeats or is out of range, or if block sizes differ. *)

val decode_into : t -> (int * Bytes.t) list -> into:Bytes.t array -> unit
(** [decode_into t blocks ~into] is {!decode} writing the [m] data
    blocks into the caller-provided buffers of [into] (each the input
    block length). [into] buffers must not alias any input block.
    @raise Invalid_argument on shape or length mismatch. *)

val modify :
  t -> data_idx:int -> parity_idx:int ->
  old_data:Bytes.t -> new_data:Bytes.t -> old_parity:Bytes.t -> Bytes.t
(** [modify t ~data_idx ~parity_idx ~old_data ~new_data ~old_parity] is
    the paper's [modifyi,j]: the new value of parity block [parity_idx]
    (in [0, n - m)) after data block [data_idx] (in [0, m)) changes from
    [old_data] to [new_data]. Equivalent to re-encoding the whole
    stripe, but needs only the one old parity block and the old and new
    data block.
    @raise Invalid_argument on out-of-range indices or size mismatch. *)

val delta_into : old_data:Bytes.t -> new_data:Bytes.t -> into:Bytes.t -> unit
(** [delta_into ~old_data ~new_data ~into] writes the XOR difference of
    two blocks into the caller-provided buffer [into] (which may be
    [new_data] itself for an in-place update, but must not be
    [old_data]). A replica applies a bandwidth-optimized fold (paper
    section 5.2) to its parity block with it.
    @raise Invalid_argument on length mismatch. *)

val fold_into :
  t -> parity_idx:int -> j0:int -> olds:Bytes.t array ->
  news:Bytes.t array -> parity:Bytes.t -> unit
(** [fold_into t ~parity_idx ~j0 ~olds ~news ~parity] folds the write
    of the contiguous data blocks [j0 .. j0 + k - 1] ([k] the length of
    [news]) from [olds] to [news] into parity block [parity_idx] (in
    [0, n - m)) in place. Over GF(2^8), [c * (old + new)] equals
    [c * old + c * new], so each old block and then each new block is
    multiply-accumulated straight into [parity] and no delta buffer is
    built. Folding into a copy of the old parity block gives the new
    one, as re-encoding the changed stripe would; folding into a zeroed
    buffer gives the section 5.2 pre-folded change of one parity row.
    Every index and size is checked before [parity] is touched. No
    block of [olds] or [news] may alias [parity].
    @raise Invalid_argument if [parity_idx] is out of range, [olds] and
    [news] differ in length, the range leaves [0, m), or a block's
    length differs from [parity]'s. *)

val reset_plan_cache : t -> unit
(** Drops every memoized decode plan and zeroes the hit/miss counters.
    Exposed for benchmarks (cached vs uncached comparisons) and tests;
    plans are rebuilt on demand, so this never affects results. *)

val plan_cache_stats : t -> int * int * int
(** [(hits, misses, entries)] for the decode-plan cache since codec
    construction (or the last {!reset_plan_cache}). *)
