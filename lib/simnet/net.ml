type addr = int

type config = { delay : float; jitter : float; drop : float }

let default_config = { delay = 1.0; jitter = 0.; drop = 0. }

type 'msg t = {
  engine : Dessim.Engine.t;
  n : int;
  config : config;
  faults : Faultnet.t;
  handlers : (src:addr -> 'msg -> unit) option array;
  msgs : Metrics.Counter.t;
  bytes : Metrics.Counter.t;
  bg_msgs : Metrics.Counter.t;
  bg_bytes : Metrics.Counter.t;
  drops : Metrics.Counter.t;
  drops_dead : Metrics.Counter.t;
  obs : Obs.t;
  inflight : int array;  (* messages queued for delivery, per destination *)
}

let create ?(metrics = Metrics.Registry.create ()) ?(obs = Obs.create ())
    engine ~config ~faults ~n =
  if n <= 0 then invalid_arg "Simnet.Net.create: n <= 0";
  if config.drop < 0. || config.drop >= 1. then
    invalid_arg "Simnet.Net.create: need 0 <= drop < 1 for fair loss";
  if config.delay < 0. || config.jitter < 0. then
    invalid_arg "Simnet.Net.create: negative delay";
  {
    engine;
    n;
    config;
    faults;
    handlers = Array.make n None;
    msgs = Metrics.Registry.counter metrics "net.msgs";
    bytes = Metrics.Registry.counter metrics "net.bytes";
    bg_msgs = Metrics.Registry.counter metrics "net.msgs.bg";
    bg_bytes = Metrics.Registry.counter metrics "net.bytes.bg";
    drops = Metrics.Registry.counter metrics "net.drops";
    drops_dead = Metrics.Registry.counter metrics "net.drops.dead";
    obs;
    inflight = Array.make n 0;
  }

let n t = t.n
let obs t = t.obs

let check_addr t a =
  if a < 0 || a >= t.n then invalid_arg "Simnet.Net: address out of range"

let register t a handler =
  check_addr t a;
  t.handlers.(a) <- Some handler

let send ?(background = false) ?(ctx = Obs.no_ctx) ?info t ~src ~dst
    ~bytes_on_wire msg =
  check_addr t src;
  check_addr t dst;
  if bytes_on_wire < 0 then invalid_arg "Simnet.Net.send: negative size";
  Metrics.Counter.incr (if background then t.bg_msgs else t.msgs);
  Metrics.Counter.incr ~by:(float_of_int bytes_on_wire)
    (if background then t.bg_bytes else t.bytes);
  let rng = Dessim.Engine.rng t.engine in
  (* The fault verdict first (cuts are checked at send time: a message
     sent across one is lost, like a frame into an unplugged switch
     port), then the base channel's own loss. *)
  let verdict = Faultnet.decide t.faults ~src ~dst in
  let dropped =
    match verdict with
    | Faultnet.Dropped | Faultnet.Cut -> true
    | Faultnet.Deliver | Faultnet.Delay _ ->
        t.config.drop > 0. && Random.State.float rng 1.0 < t.config.drop
  in
  if dropped then Metrics.Counter.incr t.drops;
  let observing = Obs.enabled t.obs in
  let label = match info with Some l -> l | None -> "msg" in
  if observing then begin
    let now = Dessim.Engine.now t.engine in
    Obs.emit t.obs
      {
        Obs.time = now;
        actor = Obs.Brick src;
        op = ctx.Obs.op;
        phase = ctx.Obs.phase;
        kind = Obs.Msg_send { dst; bytes = bytes_on_wire; label; bg = background };
      };
    if dropped then
      Obs.emit t.obs
        {
          Obs.time = now;
          actor = Obs.Brick src;
          op = ctx.Obs.op;
          phase = ctx.Obs.phase;
          kind = Obs.Msg_drop { dst; bytes = bytes_on_wire; bg = background };
        }
  end;
  if not dropped then begin
    let delay =
      t.config.delay
      +. (if t.config.jitter > 0. then Random.State.float rng t.config.jitter
          else 0.)
      +. match verdict with Faultnet.Delay d -> d | _ -> 0.
    in
    t.inflight.(dst) <- t.inflight.(dst) + 1;
    if observing then
      Obs.emit t.obs
        {
          Obs.time = Dessim.Engine.now t.engine;
          actor = Obs.Brick dst;
          op = -1;
          phase = None;
          kind = Obs.Queue_depth { depth = t.inflight.(dst) };
        };
    ignore
      (Dessim.Engine.schedule t.engine ~delay (fun () ->
           t.inflight.(dst) <- t.inflight.(dst) - 1;
           if Obs.enabled t.obs then
             Obs.emit t.obs
               {
                 Obs.time = Dessim.Engine.now t.engine;
                 actor = Obs.Brick dst;
                 op = ctx.Obs.op;
                 phase = ctx.Obs.phase;
                 kind = Obs.Msg_recv { src; label };
               };
           match t.handlers.(dst) with
           | Some handler -> handler ~src msg
           | None -> Metrics.Counter.incr t.drops_dead))
  end

let count_dead_drop t = Metrics.Counter.incr t.drops_dead
