(** The simulated channel (paper section 2's model): the sim backend's
    delivery under {!Quorum.Fabric}.

    Channels between processes deliver each message after a one-way
    delay, may drop messages independently with a fixed probability,
    and may reorder them (through delay jitter). Channels never
    corrupt messages. Fair loss holds as long as the drop probability
    is below 1: a message retransmitted forever gets through
    infinitely often, which is what the paper's [quorum()] primitive
    builds on.

    The [config] is the fault-free channel. Injected faults, message
    counters and message events live one layer up, in the fabric both
    backends share: it takes the {!Faultnet} verdict, then asks this
    channel whether it {!lost} the message and, if not, to {!carry}
    it. The channel itself only emits per-destination [Queue_depth]
    samples of its in-flight messages. *)

type addr = int
(** Process address in [0, n). *)

type config = {
  delay : float;  (** Base one-way delay, the paper's delta. *)
  jitter : float;
      (** Extra delay drawn uniformly from [0, jitter]; a positive
          jitter makes reordering possible. *)
  drop : float;  (** Independent per-message drop probability. *)
}

val default_config : config
(** delay = 1.0, jitter = 0., drop = 0. — the deterministic setting
    used for cost accounting (latency in units of delta). *)

type t
(** A channel over addresses [0 .. n-1] on one engine. *)

val create : ?obs:Obs.t -> Dessim.Engine.t -> config:config -> n:int -> t
(** [create engine ~config ~n] is the channel. [obs] (default a fresh,
    disabled hub) receives the [Queue_depth] samples.
    @raise Invalid_argument unless [n > 0], [0 <= drop < 1] (fair
    loss), [delay >= 0] and [jitter >= 0]. *)

val lost : t -> bool
(** One draw of the channel's own loss (from the engine's rng, only
    when [drop > 0]). *)

val carry : t -> dst:addr -> delay:float -> (unit -> unit) -> unit
(** [carry t ~dst ~delay deliver] runs [deliver] as an engine event
    after the channel's delay plus a jitter draw plus [delay] (a
    {!Faultnet.Delay} verdict's extra). *)
