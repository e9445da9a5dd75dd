(** Arithmetic in the Galois field GF(2^8).

    Elements are represented as integers in [0, 255]. Addition is XOR;
    multiplication is polynomial multiplication modulo the primitive
    polynomial [x^8 + x^4 + x^3 + x^2 + 1] (0x11d), the polynomial
    conventionally used by Reed-Solomon coders. All operations are
    implemented with precomputed log/antilog tables, so they cost one or
    two array accesses. *)

type t = int
(** A field element; invariant: [0 <= x <= 255]. *)

val add : t -> t -> t
(** [add a b] is the field sum (XOR). *)

val sub : t -> t -> t
(** [sub a b] equals [add a b]: in characteristic 2 addition is its own
    inverse. Tests only: test_gf256 checks the field laws with it. *)

val mul : t -> t -> t
(** [mul a b] is the field product. *)

val div : t -> t -> t
(** [div a b] is [mul a (inv b)].
    Tests only: test_gf256 checks the field laws with it.
    @raise Division_by_zero if [b = 0]. *)

val inv : t -> t
(** [inv a] is the multiplicative inverse of [a].
    @raise Division_by_zero if [a = 0]. *)

val pow : t -> int -> t
(** [pow a k] is [a] raised to the [k]'th power ([k >= 0]).
    [pow 0 0] is [1] by convention.
    Tests only: test_gf256 checks the field laws (squares, exponent
    sums, Frobenius) with it. *)

val exp_table : int -> t
(** [exp_table i] is the [i mod 255]'th power of the generator 2; exposed
    for table-driven coders and tests. [i] must be non-negative.
    Tests only: test_gf256 checks that 2 generates the multiplicative
    group with it. *)

val log_table : t -> int
(** [log_table a] is the discrete logarithm of [a] base 2.
    Tests only: test_gf256 checks the exp/log round trip with it.
    @raise Invalid_argument if [a = 0]. *)

val mul_slice : dst:Bytes.t -> src:Bytes.t -> t -> unit
(** [mul_slice ~dst ~src c] sets [dst.(i) <- dst.(i) + c * src.(i)] for
    every byte index [i]. The [c = 1] case — plain XOR, what delta
    computation and identity rows need — runs 64 bits at a time; other
    coefficients take a byte-at-a-time loop over {!split_tables}. Bulk
    multiplication belongs to {!Gf256.Kernel}.
    @raise Invalid_argument if the buffers have different lengths or
    [c] is out of range. *)

val split_tables : string
(** The SPLIT(8,4) table pairs of all 256 coefficients, 32 bytes each
    (8 KiB), built once at module initialisation. The pair for [c]
    starts at byte [32 * c]: its bytes [0..15] hold [c * v] for the low
    nibble [v], bytes [16..31] hold [c * (v lsl 4)] for the high
    nibble, so [c * s] is the XOR of the bytes at [32 * c + (s land 15)]
    and [32 * c + 16 + (s lsr 4)]. This is the layout the C kernels of
    {!Gf256.Kernel} consume. Immutable, so any domain may read it. *)

val check_element : t -> unit
(** [check_element a] raises [Invalid_argument] unless [0 <= a <= 255].
    Called by {!mul}, {!inv} and {!div}, so scalar entry points reject
    out-of-range integers instead of reading out of table bounds. *)
