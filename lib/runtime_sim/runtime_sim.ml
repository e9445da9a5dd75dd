(* The deterministic backend: Dessim's engine plus the runtime's task
   handler. A woken task is continued inline, inside whoever opened
   its gate, and a yielding task is re-queued as a 0-delay engine
   event, so a run is a pure function of the engine's seed. *)

module Engine = Dessim.Engine

let of_engine engine =
  let sched =
    {
      Runtime.Task.resume = Runtime.Task.continue;
      requeue =
        (fun k ->
          ignore
            (Engine.schedule engine ~delay:0. (fun () ->
                 Runtime.Task.continue k true)));
    }
  in
  let handler =
    Runtime.Task.handler sched ~retc:ignore ~exnc:(function
      | Runtime.Cancelled -> ()
      | exn -> raise exn)
  in
  {
    Runtime.name = "sim";
    now = (fun () -> Engine.now engine);
    rng = (fun () -> Engine.rng engine);
    spawn = (fun f -> Effect.Deep.match_with f () handler);
    timer =
      (fun ~delay f ->
        let ev = Engine.schedule engine ~delay f in
        { Runtime.tcancel = (fun () -> Engine.cancel engine ev) });
    gate = Runtime.Task.gate ~threads:false;
  }
