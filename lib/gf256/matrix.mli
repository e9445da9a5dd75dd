(** Dense matrices over GF(2^8).

    Used to build and invert erasure-code generator matrices. Matrices
    are small (at most [n x m] for an m-of-n code), so the simple
    row-major representation and cubic Gaussian elimination are fine. *)

type t
(** A matrix over GF(2^8); immutable from the outside. *)

val create : rows:int -> cols:int -> t
(** [create ~rows ~cols] is the all-zero matrix of the given shape.
    Tests only: test_gf256 checks shape validation and singular inputs
    with it.
    @raise Invalid_argument if a dimension is non-positive. *)

val init : rows:int -> cols:int -> (int -> int -> Field.t) -> t
(** [init ~rows ~cols f] fills position [(r, c)] with [f r c]. *)

val identity : int -> t
(** [identity n] is the [n x n] identity matrix.
    Tests only: test_gf256 checks {!invert} against it. *)

val rows : t -> int
(** Tests only: test_gf256 checks {!sub_rows}'s shape with it. *)

val get : t -> int -> int -> Field.t
(** [get a r c] is the element at row [r], column [c].
    @raise Invalid_argument on out-of-range indices. *)

val mul : t -> t -> t
(** [mul a b] is the matrix product.
    Tests only: test_gf256 checks {!invert} with it.
    @raise Invalid_argument if the inner dimensions disagree. *)

val sub_rows : t -> int list -> t
(** [sub_rows a rs] is the matrix made of the rows of [a] listed in
    [rs], in order. *)

val invert : t -> t option
(** [invert a] is the inverse of square matrix [a], or [None] if [a] is
    singular.
    @raise Invalid_argument if [a] is not square. *)

val cauchy : xs:Field.t array -> ys:Field.t array -> t
(** [cauchy ~xs ~ys] is the Cauchy matrix with element
    [(i, j) = 1 / (xs.(i) + ys.(j))]. All [xs] and [ys] together must be
    pairwise distinct; every square submatrix of a Cauchy matrix is
    invertible, which is what makes it suitable for MDS code
    construction.
    @raise Invalid_argument if an [x] equals a [y] (division by zero). *)

val equal : t -> t -> bool
(** Tests only: test_gf256 checks {!invert} with it. *)
