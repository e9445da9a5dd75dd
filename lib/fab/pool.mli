(** A FAB brick pool hosting multiple logical volumes.

    The paper's system view (section 1.1): "FAB presents the client
    with a number of logical volumes, each of which can be accessed as
    if it were a disk". A pool owns the bricks, the network and the
    replica processes once; each volume carved out of it has its own
    capacity, erasure-code geometry (m, n) and layout policy, mapped
    onto a disjoint range of global stripe ids. Stripes of different
    volumes share bricks but nothing else — register instances remain
    fully independent, so a heavily written volume cannot corrupt (or
    even slow, beyond brick contention) its neighbours.

    All volumes share the pool's block size. *)

type t

val create :
  ?backend:Core.Cluster.backend -> ?block_size:int -> bricks:int -> unit -> t
(** [create ~bricks ()] is an empty pool of [bricks] bricks on
    [backend] (default [Sim]), with defaults as in {!Volume.create}
    for every volume carved out of it. Tear an mc pool down with
    [Core.Cluster.shutdown (cluster t)].
    Tests only: test_fab passes [?backend] and [?block_size] to run
    pools on mc and with small blocks. *)

val cluster : t -> Core.Cluster.t
val bricks : t -> int

val create_volume :
  t ->
  name:string ->
  m:int ->
  n:int ->
  stripes:int ->
  unit ->
  Volume.t
(** Carve a new volume out of the pool: [stripes * m] logical blocks
    erasure-coded m-of-n over the pool's bricks with
    {!Core.Config.default_codec}, on the next free stripe ids
    ({!Core.Config.add_range}). Layout: {!Core.Layout.default}
    ([Rotating], or [Fixed] when the pool has exactly [n] bricks).
    @raise Invalid_argument if [n] exceeds the pool's brick count, the
    name is already taken, or the geometry is invalid. *)

val find_volume : t -> string -> Volume.t option
(** Tests only: test_fab looks volumes up by name with it. *)

val volume_names : t -> string list
(** Sorted. *)

val delete_volume : t -> string -> bool
(** Forget the volume's name. Its stripe-id range stays bound to its
    policy and is never reused, so an operation still in flight on the
    volume completes; the replicas' logs for the range become garbage.
    Returns [false] if no such volume.
    Tests only: test_fab checks that an operation in flight survives a
    delete. *)

val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
