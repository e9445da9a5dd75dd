(** CRC32C (Castagnoli), the version log's entry checksum.

    The standard iSCSI/ext4 CRC: reflected polynomial [0x82F63B78],
    initial value and final xor [0xFFFFFFFF], so ["123456789"] hashes
    to [0xe3069283]. It changes on every single-bit error and on every
    error burst of at most 32 bits; a random corruption escapes it with
    probability 2{^-32}.

    On x86-64 CPUs with SSE4.2 the [crc32] instruction computes it,
    8 bytes per step; elsewhere a portable slicing-by-8 table loop
    computes the same value. The choice is made once, when the module
    initialises, from a CPU probe. *)

val bytes : Bytes.t -> int
(** [bytes b] is the CRC32C of all of [b], in [0, 0xffffffff]. *)

val kernel : string
(** The path {!bytes} takes on this machine: ["sse4.2"] or
    ["portable"]. Benchmarks stamp it in their metadata. *)

val portable : Bytes.t -> int
(** The portable path, whatever {!kernel} is, so tests and the
    benchmark gate can check it against the hardware path. *)
