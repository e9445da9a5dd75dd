(** Data-layout schemes: which bricks store the n blocks of each
    stripe (paper sections 1.1 and 3).

    Spreading consecutive stripes over different brick subsets both
    balances load and makes stripe-level conflicts between unrelated
    logical blocks unlikely (section 3's layout remark). All schemes
    are deterministic functions of the stripe number, mirroring FAB's
    replicated layout tables: every brick can compute every stripe's
    members locally. This module is the one place that knows them;
    {!Config} tabulates them once per stripe range. *)

type kind =
  | Fixed
      (** Stripe [s] always uses bricks [0 .. n-1]; requires
          [bricks = n]. The layout used for single-register tests. *)
  | Rotating
      (** Stripe [s] uses bricks [(s + i) mod bricks]; parity roles
          rotate across bricks like RAID-5 left-symmetric layout. *)
  | Random of int
      (** Seeded pseudo-random placement: stripe [s] uses a uniformly
          shuffled [n]-subset of the bricks, matching the "random data
          striping" assumed by the paper's reliability analysis. *)

val default : bricks:int -> n:int -> kind
(** [Fixed] when [bricks = n], [Rotating] otherwise. *)

val make : kind -> bricks:int -> n:int -> int -> Simnet.Net.addr array
(** [make kind ~bricks ~n] is the layout function: [stripe -> members].
    Index [i] of the result stores encoded block [i].
    Tests only: test_fab checks the three placements through it;
    {!table} is what {!Config} uses.
    @raise Invalid_argument if [n > bricks], or [Fixed] with
    [bricks <> n]. *)

val table :
  kind ->
  bricks:int ->
  n:int ->
  stripes:int option ->
  Simnet.Net.addr array array
(** The members of every distinct row of a range of [stripes] stripes
    ([None]: unbounded), in order: stripe [s] of the range uses row
    [s mod rows]. One row for [Fixed], [bricks] for [Rotating] (its
    period), one per stripe for [Random].
    @raise Invalid_argument as {!make}, or on [Random] with
    [stripes = None]. *)
