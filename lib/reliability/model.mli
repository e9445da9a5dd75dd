(** System-level MTTDL and storage overhead for the redundancy schemes
    the paper compares (section 1.2, figures 2 and 3).

    The model follows the paper's argument: with data randomly striped
    across all bricks, a system of [n_bricks] bricks using a scheme
    that survives [tolerated] concurrent brick failures loses data as
    soon as [tolerated + 1] bricks are simultaneously dead — with many
    stripes, every failure combination hits some stripe. System MTTDL
    is therefore the absorption time of the brick-level Markov chain
    over the whole system. Brick-internal redundancy (RAID-0 vs
    RAID-5) changes the rate at which a brick {e terminally} loses its
    data. *)

type brick_kind =
  | R0  (** Brick stripes internally without redundancy. *)
  | R5  (** Brick uses internal RAID-5 groups. *)
  | Reliable_r5
      (** Conventional high-end array: RAID-5 internals built from
          high-MTTF components (the striping baseline of figure 2). *)

type scheme =
  | Striping  (** No redundancy across bricks. *)
  | Replication of int  (** [Replication k]: k-way mirroring. *)
  | Erasure of int * int  (** [Erasure (m, n)]: m-of-n coding. *)

val cross_overhead : scheme -> float
(** Raw-to-logical capacity ratio across bricks: 1, k, or n/m.
    Tests only: test_reliability checks the cross-brick overhead with
    it. *)

val storage_overhead : Params.t -> scheme -> brick_kind -> float
(** Total raw capacity consumed per byte of logical capacity. *)

val brick_terminal_rate : Params.t -> brick_kind -> float
(** Rate (per hour) at which one brick permanently loses its data:
    internal-array data loss plus chassis loss.
    Tests only: test_reliability checks the brick kinds' ordering with
    it. *)

val bricks_needed :
  Params.t -> scheme -> brick_kind -> logical_tb:float -> int
(** Number of bricks to provide [logical_tb] of logical capacity. *)

val tolerated : scheme -> int
(** Concurrent brick failures survived: 0, k-1, or n-m. *)

val mttdl_years :
  Params.t -> scheme -> brick_kind -> logical_tb:float -> float
(** System mean time to data loss in years. *)
