(** A FAB logical volume: a virtual disk striped over bricks.

    The volume divides its logical block address space into stripes of
    [m] blocks; stripe [s] holds logical blocks [s*m .. s*m + m - 1]
    and is one storage-register instance placed on [n] bricks by a
    {!Core.Layout}. Register instances share nothing and run in
    parallel, exactly as the paper prescribes (section 4).

    Clients address the volume like a disk: read or write [count]
    blocks starting at an LBA, through a coordinator module on any
    brick. The volume decomposes a request into full-stripe operations
    where it covers whole stripes and block operations elsewhere —
    the small-write/full-write distinction whose cost the paper's
    section 1.2 discusses. *)

type t

val create :
  ?backend:Core.Cluster.backend ->
  ?seed:int ->
  ?net_config:Simnet.Net.config ->
  ?bricks:int ->
  ?layout:Core.Layout.kind ->
  ?block_size:int ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?pipeline_window:int ->
  m:int ->
  n:int ->
  stripes:int ->
  unit ->
  t
(** [create ~m ~n ~stripes ()] is a volume of [stripes * m] logical
    blocks on [backend] (default [Sim]), the cluster's one range of
    stripes ({!Core.Config.add_range}). Defaults: [bricks = n],
    {!Core.Layout.default} ([Fixed] when [bricks = n], [Rotating]
    otherwise); other defaults as in {!Core.Cluster.create}.
    Constituent register operations are retried up to 3 times on
    abort, the client retry loop every disk driver runs; a volume made
    with {!of_cluster} sets its own bound ([~op_retries:1] surfaces
    raw aborts, as the abort-rate experiments do).

    A request spanning several stripes dispatches its per-stripe
    operations concurrently, at most [pipeline_window] (default 8) in
    flight; [~pipeline_window:1] recovers strictly serial extent
    order. [deadline] is forwarded to {!Core.Cluster.create}.

    Tests only: test_fab passes [?layout] to run a volume on a
    [Random] placement. *)

val of_cluster :
  cluster:Core.Cluster.t ->
  m:int ->
  stripes:int ->
  block_size:int ->
  op_retries:int ->
  ?pipeline_window:int ->
  stripe_offset:int ->
  unit ->
  t
(** A volume that is a view onto stripes an existing cluster already
    binds: the global stripe ids [stripe_offset .. stripe_offset +
    stripes - 1]. Used by {!Pool}; most callers want {!create}.
    @raise Invalid_argument if [stripes <= 0], [pipeline_window < 1],
    the view's first or last stripe is bound to no range or has
    another [m], or [block_size] is not the cluster's. *)

val stripe_offset : t -> int
(** Tests only: test_fab checks where a pool volume's stripes start. *)

val cluster : t -> Core.Cluster.t

val codec : t -> Erasure.Codec.t
(** The erasure codec of this volume's stripes (a volume is uniform:
    every stripe uses the same codec instance). Exposed so tools can
    report the selected GF(2^8) kernel and decode-plan cache behavior. *)

val capacity_blocks : t -> int
val block_size : t -> int

val stripe_of_lba : t -> int -> int * int
(** [(stripe, index-within-stripe)] of a logical block address.
    Tests only: test_fab and test_chaos map LBAs to stripes with it.
    @raise Invalid_argument if out of range. *)

type 'a outcome = ('a, [ `Aborted | `Unavailable ]) result
(** [`Aborted]: a register operation kept losing timestamp races;
    retrying later is reasonable. [`Unavailable]: a configured
    per-operation deadline expired with a quorum presumed unreachable
    (more than [n - q] bricks down or partitioned away); retries are
    not attempted — the condition clears only when bricks recover or
    the partition heals. *)

val read : t -> coord:int -> lba:int -> count:int -> Bytes.t outcome
(** Read [count] logical blocks; must run inside a fiber. Aborts if
    any constituent register operation aborts (no partial data is
    returned). *)

val write : t -> coord:int -> lba:int -> Bytes.t -> unit outcome
(** Write data (length a positive multiple of the block size) starting
    at [lba]; must run inside a fiber. Constituent per-stripe
    operations are dispatched concurrently (bounded by the pipeline
    window); an abort may leave any subset of the spanned stripes
    applied, like a failed multi-sector disk write — each stripe is
    still individually atomic and linearizable. *)

val run : ?horizon:float -> t -> unit
val run_op : t -> (unit -> 'a) -> 'a option
(** Drive the simulation; see {!Core.Cluster}. *)

val scrub : t -> coord:int -> (int * int list) list outcome
(** Audit every stripe for silent corruption and repair what is found;
    returns the (volume-local stripe, corrupted block positions) pairs
    that needed repair. Must run inside a fiber. The periodic
    background scrub every disk array runs.
    Tests only: test_fab and test_chaos repair planted corruption with
    it. *)

val rebuild_brick : t -> brick:int -> coord:int -> int outcome
(** Re-synchronize a recovered brick: for every stripe stored on it,
    run the recovery procedure so the brick's log regains the newest
    complete version. Returns the number of stripes touched. Must run
    inside a fiber. This is the maintenance operation a FAB
    administrator runs after replacing a brick. *)
