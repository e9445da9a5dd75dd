(** m-quorum systems (paper section 2.2 and Appendix A).

    An m-quorum system over [n] processes is a set of quorums such that
    any two quorums intersect in at least [m] processes, and for every
    set of [f] faulty processes some quorum avoids them all. Theorem 2
    shows such a system exists iff [n >= 2f + m], and Lemma 3 shows the
    canonical choice [{ Q : |Q| >= n - f }] is then itself an m-quorum
    system — that canonical system is what this module implements. *)

type t
(** Parameters of a concrete m-quorum system. *)

val create : n:int -> m:int -> t
(** [create ~n ~m] is the canonical m-quorum system over [n] processes
    tolerating the maximum [f = (n - m) / 2] faults.
    @raise Invalid_argument unless [1 <= m <= n]. *)

val create_f : n:int -> m:int -> f:int -> t
(** Like {!create} but with an explicit fault bound [f].
    Tests only: test_quorum checks quorum sizes for an explicit [f] with
    it.
    @raise Invalid_argument if [n < 2 * f + m] (no system exists,
    Theorem 2) or [f < 0]. *)

val f : t -> int

val quorum_size : t -> int
(** [quorum_size t = n - f]: the number of replies a coordinator must
    gather. *)

val is_quorum : t -> int list -> bool
(** [is_quorum t members] holds when the (distinct, in-range) process
    ids form a quorum, i.e. there are at least [n - f] of them.
    Tests only: test_quorum checks that the live complement of f faults
    is a quorum. *)

val exists : n:int -> m:int -> f:int -> bool
(** Theorem 2: an m-quorum system over [n] processes tolerating [f]
    faults exists iff [n >= 2f + m].
    Tests only: test_quorum checks the existence condition against
    {!create_f}. *)

val max_f : n:int -> m:int -> int
(** The largest tolerable [f] for given [n] and [m]:
    [(n - m) / 2] rounded down.
    Tests only: test_quorum checks the largest tolerable [f] for the
    paper's geometries. *)

val check_intersection : t -> int list -> int list -> bool
(** [check_intersection t q1 q2] verifies [|q1 ∩ q2| >= m]; used by
    property tests over the CONSISTENCY property.
    Tests only: test_quorum checks the m-quorum intersection property
    with it. *)

val pp : Format.formatter -> t -> unit
