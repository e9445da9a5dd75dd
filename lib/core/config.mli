(** Shared configuration of a storage-register deployment.

    One [Config.t] describes a set of bricks jointly serving many
    stripes. Each stripe is governed by a {!policy}: its erasure
    codec, its m-quorum system and the bricks storing its blocks.
    Policies live in a table of stripe ranges, each bound to one
    m-of-n code and one {!Layout.kind}; a range's rows are built and
    validated once, when it is added, and a lookup allocates nothing.
    A single-volume deployment has one unbounded range from stripe 0
    ({!Cluster.create}); a FAB brick pool adds one bounded range per
    logical volume ({!Fab.Pool}). Every brick (replicas and
    coordinators) reads the same table, mirroring FAB's replicated
    volume-layout metadata. *)

type policy = private {
  codec : Erasure.Codec.t;  (** Shared by every stripe of the range. *)
  mq : Quorum.Mquorum.t;
  members : Simnet.Net.addr array;
      (** Index [i] stores encoded block [i] (data for [i < m], parity
          for [i >= m]). *)
  member_list : Simnet.Net.addr list;  (** [members] as a list. *)
  positions : int option array;
      (** Brick [b] stores block [i] iff [positions.(b) = Some i]. *)
}

type range
(** A run of stripe ids bound to one code and layout. *)

type t = private {
  bricks : int;  (** Addresses [0 .. bricks-1]. *)
  ranges : range array Atomic.t;
      (** In stripe order; grown by {!add_range} while other domains
          read it. *)
  block_size : int;
  runtime : Runtime.t;
      (** The execution substrate every layer schedules on: the
          deterministic simulator or the multicore backend. *)
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
      (** Observability hub shared by every layer of the deployment; a
          fresh (disabled) hub by default. *)
  gc_enabled : bool;
      (** Send asynchronous garbage-collection messages after complete
          writes (paper section 5.1). *)
  optimized_modify : bool;
      (** Use the bandwidth-optimized Modify payloads of block-range
          writes (section 5.2): its new block to each in-range data
          process, its folded parity change to each parity process,
          nothing to the other data processes. *)
  deadline : float option;
      (** Per-operation deadline in sim-time units. With [Some d],
          every coordinator operation that has not completed [d] after
          its (possibly retried) attempt started fails fast with
          [`Unavailable] instead of retransmitting forever — the
          behavior when more than [n - quorum_size] bricks are
          unreachable. [None] (default) is the paper's model: wait
          forever. *)
  unsafe_skip_order : bool;
      (** Deliberately WRONG protocol variant for harness validation:
          replicas ignore the order phase entirely — Read and
          Order&Read answer [status = true] without checking (or
          recording) the order promise, and Write/Modify skip the
          [ts >= ord_ts] store barrier. Without the Order&Read
          sample-and-promise a recovery whose sample predates a
          concurrently completing write can roll the stripe back over
          it at a higher timestamp, erasing a completed write — a
          strict-linearizability violation the chaos harness must
          catch and shrink. Never enable outside tests. *)
}

val create :
  bricks:int ->
  block_size:int ->
  runtime:Runtime.t ->
  rpc:(Message.t, Message.t) Quorum.Rpc.t ->
  metrics:Metrics.Registry.t ->
  ?obs:Obs.t ->
  ?gc_enabled:bool ->
  ?optimized_modify:bool ->
  ?deadline:float ->
  ?unsafe_skip_order:bool ->
  unit ->
  t
(** A deployment over [bricks] bricks with an empty range table.
    @raise Invalid_argument if [block_size <= 0] or [deadline <= 0]. *)

val default_codec : m:int -> n:int -> Erasure.Codec.t
(** The codec of every m-of-n range: [replication] when [m = 1], XOR
    [parity] when [n = m + 1], Reed-Solomon otherwise. *)

val add_range :
  t -> ?layout:Layout.kind -> m:int -> n:int -> ?stripes:int -> unit -> int
(** Bind the next [stripes] stripe ids, after every range so far, to
    {!default_codec}[ ~m ~n] laid out by [layout] (default
    {!Layout.default}); omit [stripes] for an unbounded range. Returns
    the range's first stripe id. A range is never unbound, so its ids
    are never reused. Safe to call while other domains look policies
    up.
    @raise Invalid_argument if [stripes <= 0], the code or layout is
    invalid (see {!Layout.table}), or an unbounded range already holds
    every later id. *)

val codec : t -> stripe:int -> Erasure.Codec.t
val m : t -> stripe:int -> int
val quorum_size : t -> stripe:int -> int

val fault_bound : t -> stripe:int -> int
(** The stripe's quorum-system fault bound [f = n - quorum_size]. *)

val members : t -> stripe:int -> Simnet.Net.addr list
val members_array : t -> stripe:int -> Simnet.Net.addr array

val pos_of_addr : t -> stripe:int -> Simnet.Net.addr -> int option
(** The block position a brick holds for a stripe, per the policy;
    the address must be one of the deployment's bricks. *)
