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
  ?backend:Core.Cluster.backend ->
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?block_size:int ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?op_retries:int ->
  ?pipeline_window:int ->
  bricks:int ->
  unit ->
  t
(** [create ~bricks ()] is an empty pool of [bricks] bricks on
    [backend] (default [Sim]). Optional knobs as in {!Volume.create};
    they apply to every volume carved out of the pool. Tear an mc pool
    down with [Core.Cluster.shutdown (cluster t)]. *)

val cluster : t -> Core.Cluster.t
val bricks : t -> int
val block_size : t -> int

val create_volume :
  t ->
  name:string ->
  m:int ->
  n:int ->
  ?layout:Core.Layout.kind ->
  stripes:int ->
  unit ->
  Volume.t
(** Carve a new volume out of the pool: [stripes * m] logical blocks
    erasure-coded m-of-n over the pool's bricks with
    {!Core.Config.default_codec}, on the next free stripe ids
    ({!Core.Config.add_range}). Default layout: {!Core.Layout.default}
    ([Rotating], or [Fixed] when the pool has exactly [n] bricks).
    @raise Invalid_argument if [n] exceeds the pool's brick count, the
    name is already taken, or the geometry is invalid. *)

val find_volume : t -> string -> Volume.t option
val volume_names : t -> string list
(** Sorted. *)

val delete_volume : t -> string -> bool
(** Forget the volume's name. Its stripe-id range stays bound to its
    policy and is never reused, so an operation still in flight on the
    volume completes; the replicas' logs for the range become garbage.
    Returns [false] if no such volume. *)

val run : ?horizon:float -> t -> unit
val run_op : ?horizon:float -> t -> (unit -> 'a) -> 'a option
