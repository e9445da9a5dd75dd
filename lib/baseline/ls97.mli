(** Replication-based atomic register in the style of Lynch-Shvartsman
    [9] / ABD — the baseline of the paper's Table 1.

    Every replica stores a full copy of the register value together
    with a tag (timestamp). Both operations are two-phase over
    majority quorums:

    - {e read}: query a majority for (value, tag); pick the highest
      tag; write the winning pair back to a majority; return it.
    - {e write}: query a majority for the highest tag; store the new
      value with a higher tag at a majority.

    Cost profile (Table 1, "LS97" columns): both operations take 4
    delta and 4n messages; a read performs n disk reads (every replica
    returns its copy) and n disk writes (the write-back), moving 2nB
    on the wire; a write performs n disk writes and moves nB. Tags
    live in NVRAM.

    Unlike the paper's algorithm, this baseline provides {e plain}
    linearizability: a partial write can surface at any later time
    (the write-back of a read completes it), and storage overhead is a
    factor n instead of n/m. The benches quantify both contrasts. *)

type t
(** A cluster of [n] bricks emulating replicated registers. *)

val create :
  ?backend:Core.Cluster.backend ->
  ?block_size:int ->
  n:int ->
  unit ->
  t
(** [create ~n ()] builds the cluster on a {!Core.Cluster.Substrate}
    (default backend [Sim]); tolerates [f = (n - 1) / 2] crashed
    bricks. Tear an mc cluster down with {!shutdown}.
    Tests only: test_baseline's "LS97 on mc" case passes [~backend]. *)

val runtime : t -> Runtime.t

type 'a outcome = ('a, [ `Aborted ]) result

val read : t -> coord:int -> reg:int -> Bytes.t outcome
(** Must run inside a fiber (see {!run_op}). The result is the current
    register value; an unwritten register reads as zeroes. *)

val write : t -> coord:int -> reg:int -> Bytes.t -> unit outcome
(** @raise Invalid_argument on a block of the wrong size. *)

val run : ?horizon:float -> t -> unit
(** Tests only: test_baseline drives a timed partial write with it. *)

val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
(** Tests only: test_baseline bounds the stalled majority-down read with
    [?horizon]. *)

val crash : t -> int -> unit
(** Tests only: test_baseline crashes replicas with it (majority loss,
    partial writes). *)

val recover : t -> int -> unit
(** Tests only: test_baseline brings crashed replicas back with it. *)

val shutdown : t -> unit
(** Tests only: test_baseline tears down its mc cluster with it. *)

val snapshot : t -> Metrics.Snapshot.t
