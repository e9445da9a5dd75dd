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
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?block_size:int ->
  n:int ->
  unit ->
  t
(** [create ~n ()] builds the cluster on a {!Core.Cluster.Substrate}
    (default backend [Sim]); tolerates [f = (n - 1) / 2] crashed
    bricks. Tear an mc cluster down with {!shutdown}. *)

val n : t -> int
val block_size : t -> int
val metrics : t -> Metrics.Registry.t
val runtime : t -> Runtime.t
val bricks : t -> Brick.t array

type 'a outcome = ('a, [ `Aborted ]) result

val read : t -> coord:int -> reg:int -> Bytes.t outcome
(** Must run inside a fiber (see {!run_op}). The result is the current
    register value; an unwritten register reads as zeroes. *)

val write : t -> coord:int -> reg:int -> Bytes.t -> unit outcome
(** @raise Invalid_argument on a block of the wrong size. *)

val run : ?horizon:float -> t -> unit
val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
val crash : t -> int -> unit
val recover : t -> int -> unit
val shutdown : t -> unit
val snapshot : t -> Metrics.Snapshot.t
