(** CRC32C (Castagnoli), the version log's entry checksum.

    The standard iSCSI/ext4 CRC: reflected polynomial [0x82F63B78],
    initial value and final xor [0xFFFFFFFF], so ["123456789"] hashes
    to [0xe3069283]. It changes on every single-bit error and on every
    error burst of at most 32 bits; a random corruption escapes it with
    probability 2{^-32}.

    Three paths compute the same value. On x86-64 CPUs with AVX-512F
    and VPCLMULQDQ, carry-less multiplies fold four 512-bit
    accumulators forward 256 bytes per step, and the [crc32]
    instruction reduces the folded state and hashes the tail. With
    SSE4.2 alone the [crc32] instruction runs as three independent
    chains over adjacent chunks of the buffer, merged by zero-byte shift
    tables, so its latency does not serialize the loop. Elsewhere a
    portable slicing-by-8 table loop runs. The choice is made once,
    when the module initialises, from a CPU probe. *)

val bytes : Bytes.t -> int
(** [bytes b] is the CRC32C of all of [b], in [0, 0xffffffff]. *)

val kernel : string
(** The path {!bytes} takes on this machine: ["vpclmulqdq"],
    ["sse4.2"] or ["portable"]. Benchmarks stamp it in their
    metadata. *)

val paths : (string * (Bytes.t -> int)) list
(** Every path this machine can run, named as {!kernel} names them,
    slowest first: ["portable"] (the oracle), then ["sse4.2"] and
    ["vpclmulqdq"] where the CPU has them. Tests check each against
    the portable path, and the benchmark times each. *)
