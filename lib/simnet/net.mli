(** Simulated message-passing network (paper section 2's model).

    Channels between processes deliver each message after a one-way
    delay, may drop messages independently with a fixed probability,
    and may reorder them (through delay jitter). Channels never
    corrupt messages. Fair loss holds as long as the drop probability
    is below 1: a message retransmitted forever gets through
    infinitely often, which is what the paper's [quorum()] primitive
    builds on.

    The [config] is the fault-free channel. Injected faults — network
    splits, dead links, extra loss and delay — come from the network's
    {!Faultnet}, the same fault model the multicore backend uses: each
    message takes one {!Faultnet.decide} verdict before this channel
    model applies its own delay and loss.

    The network counts messages and payload bytes into a
    {!Metrics.Registry} under the names ["net.msgs"] and
    ["net.bytes"] (plus ["net.drops"] for every lost message, whether
    the channel or a fault verdict lost it, and ["net.drops.dead"] for
    messages to unregistered or crashed destinations); Table 1
    reproductions read those counters. When the deployment's {!Obs.t}
    hub is enabled the network additionally emits [Msg_send] /
    [Msg_recv] / [Msg_drop] events attributed to the sending
    operation, and per-destination [Queue_depth] samples. *)

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

type 'msg t
(** A network carrying messages of type ['msg]. *)

val create :
  ?metrics:Metrics.Registry.t -> ?obs:Obs.t -> Dessim.Engine.t ->
  config:config -> faults:Faultnet.t -> n:int -> 'msg t
(** [create engine ~config ~faults ~n] is a network over addresses
    [0 .. n-1] whose sends consult [faults]. The default [obs] hub is
    a fresh, disabled one.
    @raise Invalid_argument unless [0 <= drop < 1] (fair loss),
    [delay >= 0] and [jitter >= 0]. *)

val register : 'msg t -> addr -> (src:addr -> 'msg -> unit) -> unit
(** [register t a handler] installs the message handler for address
    [a], replacing any previous one. Messages to an address without a
    handler are dropped (models a process that never came up) and
    counted under ["net.drops.dead"]. *)

val count_dead_drop : 'msg t -> unit
(** Bump ["net.drops.dead"]: a message that reached a registered
    handler which turned out to be dead (crashed process). The RPC
    layer calls this, since only it can see a handler decline. *)

val send :
  ?background:bool ->
  ?ctx:Obs.ctx ->
  ?info:string ->
  'msg t -> src:addr -> dst:addr -> bytes_on_wire:int -> 'msg -> unit
(** [send t ~src ~dst ~bytes_on_wire msg] queues [msg] for delivery.
    With [~background:true] the message is counted under
    ["net.msgs.bg"] / ["net.bytes.bg"] instead of the foreground
    counters — used for asynchronous garbage collection, which Table 1
    excludes from operation costs.
    [bytes_on_wire] is the accounted payload size — the register layer
    passes the number of block bytes carried, matching the paper's
    bandwidth unit B. Sending to a crashed or cut-off process
    is allowed; the message is just lost or ignored. A
    {!Faultnet.Delay} verdict adds its delay to the channel's.
    [ctx] attributes the emitted observability events to an operation
    and phase; [info] is a short human label for the message (shown in
    traces), defaulting to ["msg"]. *)

val n : 'msg t -> int

val obs : 'msg t -> Obs.t
(** The observability hub events are emitted to. *)
