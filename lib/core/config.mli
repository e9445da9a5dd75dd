(** Shared configuration of a storage-register deployment.

    One [Config.t] describes a set of bricks jointly serving many
    stripes. Each stripe is governed by a {!policy} — its erasure
    codec, its m-quorum parameters and the addresses of the bricks
    storing its blocks. A single-volume deployment uses one uniform
    policy; a FAB brick pool hosting several logical volumes with
    different redundancy schemes maps disjoint stripe ranges to
    different policies ({!Fab.Pool}). Every brick — replicas and
    coordinators — holds the same configuration, mirroring FAB's
    replicated volume-layout metadata. *)

type policy = {
  codec : Erasure.Codec.t;
  mq : Quorum.Mquorum.t;
  members : Simnet.Net.addr array;
      (** Index [i] stores encoded block [i] (data for [i < m], parity
          for [i >= m]). *)
}

val make_policy :
  codec:Erasure.Codec.t ->
  mq:Quorum.Mquorum.t ->
  members:Simnet.Net.addr array ->
  policy
(** @raise Invalid_argument if the codec's (m, n), the quorum system's
    (m, n) and the member count disagree. *)

type t = {
  policy_of : int -> policy;  (** stripe -> its policy *)
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
  policy_of:(int -> policy) ->
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
(** [policy_of stripe] gives each stripe's codec, quorum system and
    members: one policy for every stripe in a uniform deployment, or
    per-stripe ones in a multi-volume brick pool.
    @raise Invalid_argument if [block_size <= 0] or [deadline <= 0]. *)

val policy : t -> stripe:int -> policy
val codec : t -> stripe:int -> Erasure.Codec.t
val m : t -> stripe:int -> int
val n : t -> stripe:int -> int
val quorum_size : t -> stripe:int -> int

val fault_bound : t -> stripe:int -> int
(** The stripe's quorum-system fault bound [f = n - quorum_size]. *)

val members : t -> stripe:int -> Simnet.Net.addr list
val members_array : t -> stripe:int -> Simnet.Net.addr array

val pos_of_addr : t -> stripe:int -> Simnet.Net.addr -> int option
(** The block position a brick holds for a stripe, per the policy. *)
