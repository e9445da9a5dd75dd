(** GF(2^8) slice kernels: the scalar oracle and one C path.

    Every implementation computes the same linear maps over byte
    slices:

    - [Scalar] — byte-at-a-time log/exp reference; the oracle the C
      path is tested against.
    - [C_portable] — the C stubs' portable nibble-table loop
      (SIMD level 0). Always available.
    - [C_simd] — the same C entry points and SPLIT(8,4) tables, run at
      the SIMD level the CPU probe reported (SSSE3/AVX2 [pshufb], NEON
      [tbl], AVX-512BW + GFNI [vgf2p8affineqb]; 16–64 bytes per step).
      Only {!available} when {!simd_level} [> 0].

    Codecs pick an implementation once at construction via {!select}
    and bake it into precomputed {!mul} and {!rows} operators, so the
    hot paths never branch on kernel choice or allocate tables. The
    operators are immutable: one codec may be used from several domains
    at once. *)

type impl = Scalar | C_portable | C_simd

val all : impl list
(** Every implementation, in ascending order of expected speed. *)

val name : impl -> string
(** ["scalar"], ["c_portable"], ["c_simd"]. *)

val available : impl -> bool
(** Whether the implementation can run on this machine: [C_simd]
    requires {!simd_level} [> 0], the others always can. *)

val available_impls : unit -> impl list

val simd_level : int
(** The CPU probe of the C stubs: 0 = no usable SIMD (or a non-SIMD
    build), 1 = SSSE3 or NEON (16 B/step), 2 = AVX2 (32 B/step),
    3 = AVX-512BW + GFNI (64 B/step). *)

val simd_levels : int list
(** Every SIMD level this machine can run, [1 .. simd_level]. *)

val with_simd_level : int -> (unit -> 'a) -> 'a
(** For tests: [with_simd_level l f] runs [f] with [C_simd] resolving
    to level [l] instead of {!simd_level} for every {!mul} and {!rows}
    built inside [f] (codecs built inside [f] included), so each lower
    level is checked against [Scalar] on a machine that probes higher.
    Not for use while other domains build kernels.
    @raise Invalid_argument unless [l] is in {!simd_levels}. *)

val default : unit -> impl
(** The kernel a codec gets when none is requested: [C_simd] if
    available, else [C_portable]. *)

val select : ?impl:impl -> unit -> impl
(** Resolve the kernel for a new codec ([?impl] wins over {!default}).
    @raise Invalid_argument if the requested kernel is unavailable. *)

(** {1 Single-coefficient multipliers}

    A {!mul} is one precomputed coefficient: its 32-byte SPLIT(8,4) pair
    and its GFNI bit matrix are resolved at construction, so applying it
    is allocation-free. *)

type mul

val make_mul : impl -> Field.t -> mul
(** @raise Invalid_argument if the coefficient is out of range. *)

val mul_acc : mul -> dst:Bytes.t -> src:Bytes.t -> unit
(** [dst.(i) <- dst.(i) + c * src.(i)]. [c = 0] is a no-op, [c = 1]
    takes the wide-XOR path under the C kernels.
    @raise Invalid_argument on length mismatch. *)

val mul_set : mul -> dst:Bytes.t -> src:Bytes.t -> unit
(** [dst.(i) <- c * src.(i)].
    Tests only: test_gf256 checks every kernel's overwrite form against
    [scalar] with it.
    @raise Invalid_argument on length mismatch. *)

(** {1 Fused row-group application}

    A {!rows} is a precompiled r x k coefficient matrix: dsts.(p)
    [<-] (or [+=]) sum over j of [coeffs.(p).(j) * srcs.(j)]. Rows with
    at most one nonzero coefficient are served by blit / zero-fill /
    single-coefficient passes under every kernel; the dense remainder
    goes to one fused C call (or the scalar loop). This is the shape of
    erasure encode (all parity rows in one call per stripe) and of
    cached decode plans. *)

type rows

val make_rows : impl -> Field.t array array -> rows
(** Precompile a non-empty, non-ragged coefficient matrix.
    @raise Invalid_argument on a malformed matrix. *)

val apply_rows : ?acc:bool -> rows -> srcs:Bytes.t array -> dsts:Bytes.t array -> unit
(** Apply the map. With [~acc:true] every row accumulates into the
    existing destination bytes instead of overwriting them. [srcs] and
    [dsts] must not alias each other (data slots of a stripe are never
    parity slots, so codec callers satisfy this for free).
    Tests only: test_gf256 passes [?acc] to check the accumulating form
    of every kernel.
    @raise Invalid_argument on arity or length mismatch. *)
