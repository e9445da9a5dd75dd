type addr = int

type config = { delay : float; jitter : float; drop : float }

let default_config = { delay = 1.0; jitter = 0.; drop = 0. }

type t = {
  engine : Dessim.Engine.t;
  config : config;
  obs : Obs.t;
  inflight : int array;  (* messages queued for delivery, per destination *)
}

let create ?(obs = Obs.create ()) engine ~config ~n =
  if n <= 0 then invalid_arg "Simnet.Net.create: n <= 0";
  if config.drop < 0. || config.drop >= 1. then
    invalid_arg "Simnet.Net.create: need 0 <= drop < 1 for fair loss";
  if config.delay < 0. || config.jitter < 0. then
    invalid_arg "Simnet.Net.create: negative delay";
  { engine; config; obs; inflight = Array.make n 0 }

let lost t =
  t.config.drop > 0.
  && Random.State.float (Dessim.Engine.rng t.engine) 1.0 < t.config.drop

let carry t ~dst ~delay deliver =
  let delay =
    t.config.delay
    +. (if t.config.jitter > 0. then
          Random.State.float (Dessim.Engine.rng t.engine) t.config.jitter
        else 0.)
    +. delay
  in
  t.inflight.(dst) <- t.inflight.(dst) + 1;
  if Obs.enabled t.obs then
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
         deliver ()))
