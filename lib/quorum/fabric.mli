(** The one send path of every deployment, above the backend's
    delivery: both backends count, fault and trace a message here, the
    same way.

    A send counts the message under ["net.msgs"] / ["net.bytes"] (or
    ["net.msgs.bg"] / ["net.bytes.bg"] for background traffic, which
    Table 1 excludes from operation costs), takes one
    {!Simnet.Faultnet.decide} verdict, then the channel's own [lost]
    draw, and counts every lost message under ["net.drops"]. When the
    [obs] hub is enabled it emits [Msg_send] (and [Msg_drop]) at the
    sender, and [Msg_recv] at the destination when the message is
    delivered, each attributed to the sending operation's context. A
    delivered message reaches the destination's registered handler;
    one to an address with no handler is counted under
    ["net.drops.dead"].

    Delivery is the backend's: [carry ~dst ~delay deliver] must run
    [deliver] at [dst] no sooner than [delay] (a {!Simnet.Faultnet.Delay}
    verdict's extra, else 0) from now, and run the deliveries of one
    destination one at a time. The sim backend passes
    {!Simnet.Net.carry} (an engine event after the channel's delay);
    the mc backend a per-brick mailbox drained by one receive loop. *)

val create :
  now:(unit -> float) ->
  ?metrics:Metrics.Registry.t ->
  ?obs:Obs.t ->
  faults:Simnet.Faultnet.t ->
  n:int ->
  lost:(unit -> bool) ->
  carry:(dst:int -> delay:float -> (unit -> unit) -> unit) ->
  unit ->
  'msg Rpc.transport
(** [create ~now ~faults ~n ~lost ~carry ()] is a transport over
    addresses [0 .. n-1]; [now] stamps its events. Sends reject an
    address out of range or a negative size with [Invalid_argument].
    @raise Invalid_argument if [n <= 0]. *)
