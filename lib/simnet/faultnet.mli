(** The one fault model for both backends (DESIGN 4i).

    The paper's section 2 network is a set of fair-loss channels that
    may drop, reorder and partition. Every message on either backend
    takes one verdict from {!decide} between the RPC layer and the
    fabric — {!Net}'s delay model on the simulator, the destination
    mailbox on the multicore backend: a per-message drop probability,
    network partitions, directed dead links, and added delay/jitter.

    Atomicity contract: the entire fault configuration is one immutable
    snapshot in an [Atomic.t]. A sender reads it exactly once per
    message ({!decide}), so concurrent senders always observe an
    internally consistent fault state — never a partition from one
    nemesis event combined with the drop rate of another. Mutators are
    serialized and publish a whole new snapshot.

    All mutators and {!decide} are safe from any domain, including a
    timer callback on an mc worker. *)

type t

type verdict =
  | Deliver  (** pass the message through now *)
  | Dropped  (** random loss (counted) *)
  | Cut  (** suppressed by a partition or dead link (counted) *)
  | Delay of float  (** deliver after this much extra time *)

type stats = {
  delivered : int;  (** messages passed through (including delayed) *)
  dropped : int;  (** random losses *)
  cut : int;  (** partition / dead-link suppressions *)
  delayed : int;  (** delivered messages that were delayed *)
}

type state = {
  drop : float;
  delay : float;
  jitter : float;
  groups : int array option;
  downed : (int * int) list;
}
(** One immutable fault-configuration snapshot. *)

val create : seed:int -> n:int -> t
(** A healthy fabric over addresses [0 .. n-1]: no drops, no
    partition, no delay. [seed] starts the lock-free sampler that
    draws drops and jitter; on the simulator the same seed gives the
    same draws, and a healthy fabric draws nothing at all.
    @raise Invalid_argument if [n <= 0]. *)

val decide : t -> src:int -> dst:int -> verdict
(** The send-path hook: one atomic snapshot read plus (at most) two
    lock-free uniform samples. Counts the verdict into {!stats}. *)

val set_drop : t -> float -> unit
(** @raise Invalid_argument unless [0 <= p < 1] (fair loss). *)

val set_delay : t -> delay:float -> jitter:float -> unit
(** Added one-way delay in the runtime's time unit (delta on the
    simulator, seconds on the multicore backend); extra delay uniform
    in [0, jitter). [~delay:0. ~jitter:0.] restores immediate
    delivery. @raise Invalid_argument on negative values. *)

val partition : t -> int list list -> unit
(** [partition t groups] splits the fabric: messages flow only within
    a group. Addresses not listed form an implicit extra group.
    Messages already in flight are unaffected.
    @raise Invalid_argument if an address appears in two groups. *)

val heal : t -> unit
(** Remove any partition (dead links and drop rate are untouched). *)

val set_link_down : t -> src:int -> dst:int -> bool -> unit
(** Kill or revive the directed link [src -> dst]. *)

val reset : t -> drop:float -> unit
(** Return the whole configuration to health in one atomic publish:
    no partition, no dead links, no delay, drop probability [drop]
    (the nemesis's base rate). *)

val stats : t -> stats
(** Monotone verdict counters since {!create}; chaos tests assert
    faults were actually injected and heals actually heal with
    these. *)

val snapshot : t -> state
(** The current configuration snapshot (tests/debugging). *)
