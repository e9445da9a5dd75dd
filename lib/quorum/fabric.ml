module Faultnet = Simnet.Faultnet

let create ~now ?(metrics = Metrics.Registry.create ()) ?(obs = Obs.create ())
    ~faults ~n ~lost ~carry () =
  if n <= 0 then invalid_arg "Quorum.Fabric.create: n <= 0";
  let handlers = Array.make n None in
  let counter = Metrics.Registry.counter metrics in
  let msgs = counter "net.msgs" in
  let bytes = counter "net.bytes" in
  let bg_msgs = counter "net.msgs.bg" in
  let bg_bytes = counter "net.bytes.bg" in
  let drops = counter "net.drops" in
  let drops_dead = counter "net.drops.dead" in
  let check_addr a =
    if a < 0 || a >= n then invalid_arg "Quorum.Fabric: address out of range"
  in
  let event ~time ~actor (ctx : Obs.ctx) kind =
    { Obs.time; actor; op = ctx.op; phase = ctx.phase; kind }
  in
  let send ~background ~ctx ~info ~src ~dst ~bytes_on_wire msg =
    check_addr src;
    check_addr dst;
    if bytes_on_wire < 0 then invalid_arg "Quorum.Fabric.send: negative size";
    Metrics.Counter.incr (if background then bg_msgs else msgs);
    Metrics.Counter.incr ~by:(float_of_int bytes_on_wire)
      (if background then bg_bytes else bytes);
    (* The fault verdict first (cuts are checked at send time: a
       message sent across one is lost, like a frame into an unplugged
       switch port), then the channel's own loss. *)
    let verdict = Faultnet.decide faults ~src ~dst in
    let dropped =
      match verdict with
      | Faultnet.Dropped | Faultnet.Cut -> true
      | Faultnet.Deliver | Faultnet.Delay _ -> lost ()
    in
    if dropped then Metrics.Counter.incr drops;
    let label = match info with Some l -> l | None -> "msg" in
    if Obs.enabled obs then begin
      let time = now () in
      let actor = Obs.Brick src in
      Obs.emit obs
        (event ~time ~actor ctx
           (Obs.Msg_send { dst; bytes = bytes_on_wire; label; bg = background }));
      if dropped then
        Obs.emit obs
          (event ~time ~actor ctx
             (Obs.Msg_drop { dst; bytes = bytes_on_wire; bg = background }))
    end;
    if not dropped then
      carry ~dst
        ~delay:(match verdict with Faultnet.Delay d -> d | _ -> 0.)
        (fun () ->
          if Obs.enabled obs then
            Obs.emit obs
              (event ~time:(now ()) ~actor:(Obs.Brick dst) ctx
                 (Obs.Msg_recv { src; label }));
          match handlers.(dst) with
          | Some handler -> handler ~src msg
          | None -> Metrics.Counter.incr drops_dead)
  in
  {
    Rpc.xn = n;
    xobs = obs;
    xsend = send;
    xregister =
      (fun addr handler ->
        check_addr addr;
        handlers.(addr) <- Some handler);
    xdead_drop = (fun () -> Metrics.Counter.incr drops_dead);
  }
