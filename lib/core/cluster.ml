module Faultnet = Simnet.Faultnet

(* Multicore backend plumbing. [boxes] elements are swapped on brick
   restart (crash closes a box; recover installs a fresh one), so the
   send path re-reads the array on every message: a send racing a
   restart lands in either the closed old box (lost — the brick was
   down) or the new one. [exits.(i)] is the gate the address's current
   receive loop opens when it drains out and exits; recover awaits it
   before installing the replacement mailbox. [lifecycle] serializes
   crash/recover state flips. *)
type mc_net = {
  pool : Runtime_mc.t;
  fnet : Faultnet.t;
  boxes :
    (int * (Message.t, Message.t) Quorum.Rpc.envelope) Runtime.Mailbox.t
    array;
  exits : Runtime.gate option array;
  handlers :
    (src:int -> (Message.t, Message.t) Quorum.Rpc.envelope -> unit) option
    array;
  lifecycle : Mutex.t;
  mutable rcoords : Coordinator.t array;
      (* per-brick recovery coordinators (pids offset past the brick
         range so their timestamps never collide with client
         coordinators'); filled once wiring completes *)
}

(* Both backends carry the deployment's one fault model: the sim
   network consults it inside [Net.send], the mc transport in
   [mc_transport]'s send. *)
type backend = Sim of Faultnet.t | Mc of mc_net

type t = {
  engine : Dessim.Engine.t;
  runtime : Runtime.t;
  backend : backend;
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
  cfg : Config.t;
  bricks : Brick.t array;
  replicas : Replica.t array;
  coordinators : Coordinator.t array;
}

let default_codec ~m ~n =
  if m = 1 then Erasure.Codec.replication ~n ()
  else if n = m + 1 then Erasure.Codec.parity ~m ()
  else Erasure.Codec.rs ~m ~n ()

(* Shared wiring: engine, network, RPC, bricks, replicas and
   coordinators around a configuration built by [make_cfg]. *)
let wire ~seed ~net_config ~nbricks ~retry_every ?retry_backoff
    ?retry_cap ~make_cfg () =
  let engine = Dessim.Engine.create ~seed () in
  let runtime = Runtime_sim.of_engine engine in
  let metrics = Metrics.Registry.create () in
  let obs = Obs.create () in
  (* Sample the engine's event-queue depth only when someone listens:
     the unobserved engine keeps its one-branch-per-event fast path. *)
  Obs.on_enable obs (fun () ->
      Dessim.Engine.set_observer engine
        (Some
           (fun ~now ~pending ->
             if Obs.enabled obs then
               Obs.emit obs
                 {
                   Obs.time = now;
                   actor = Obs.Sim;
                   op = -1;
                   phase = None;
                   kind = Obs.Queue_depth { depth = pending };
                 })));
  let faults = Faultnet.create ~seed ~n:nbricks in
  let net =
    Simnet.Net.create ~metrics ~obs engine ~config:net_config ~faults
      ~n:nbricks
  in
  let rpc =
    Quorum.Rpc.create ~rt:runtime ~transport:(Quorum.Rpc.of_net net) ~metrics
      ~req_bytes:Message.bytes_on_wire ~rep_bytes:Message.bytes_on_wire
      ~req_label:Message.label ~rep_label:Message.label ?retry_every
      ?retry_backoff ?retry_cap
      ~grace:(net_config.Simnet.Net.delay +. net_config.Simnet.Net.jitter)
      ()
  in
  let cfg = make_cfg ~runtime ~rpc ~metrics ~obs in
  let bricks =
    Array.init nbricks (fun id -> Brick.create ~metrics ~obs runtime ~id)
  in
  let replicas = Array.map (fun b -> Replica.create cfg ~brick:b) bricks in
  let coordinators =
    Array.map
      (fun b ->
        Coordinator.create cfg ~brick:b
          ~clock:(Clock.create ~now:runtime.Runtime.now ~pid:(Brick.id b)))
      bricks
  in
  {
    engine;
    runtime;
    backend = Sim faults;
    rpc;
    metrics;
    obs;
    cfg;
    bricks;
    replicas;
    coordinators;
  }

let create ?(seed = 42) ?(net_config = Simnet.Net.default_config) ?bricks
    ?layout ?(block_size = 1024) ?gc_enabled
    ?optimized_modify ?deadline ?unsafe_skip_order ?retry_every
    ?retry_backoff ?retry_cap ~m ~n () =
  let nbricks = match bricks with Some b -> b | None -> n in
  if nbricks < n then invalid_arg "Core.Cluster.create: bricks < n";
  let layout =
    match layout with
    | Some f -> f
    | None ->
        if nbricks = n then fun _ -> Array.init n (fun i -> i)
        else fun s -> Array.init n (fun i -> (s + i) mod nbricks)
  in
  let codec = default_codec ~m ~n in
  let mq = Quorum.Mquorum.create ~n ~m in
  wire ~seed ~net_config ~nbricks ~retry_every ?retry_backoff
    ?retry_cap
    ~make_cfg:(fun ~runtime ~rpc ~metrics ~obs ->
      Config.create ~codec ~mq ~block_size ~runtime ~rpc ~metrics ~layout
        ~obs ?gc_enabled ?optimized_modify ?deadline ?unsafe_skip_order ())
    ()

let create_policied ?(seed = 42) ?(net_config = Simnet.Net.default_config)
    ?(block_size = 1024) ?gc_enabled ?optimized_modify
    ?deadline ?unsafe_skip_order ?retry_every ?retry_backoff
    ?retry_cap ~bricks:nbricks ~policy_of () =
  if nbricks < 1 then invalid_arg "Core.Cluster.create_policied: no bricks";
  wire ~seed ~net_config ~nbricks ~retry_every ?retry_backoff
    ?retry_cap
    ~make_cfg:(fun ~runtime ~rpc ~metrics ~obs ->
      Config.create_policied ~policy_of ~block_size ~runtime ~rpc ~metrics
        ~obs ?gc_enabled ?optimized_modify ?deadline ?unsafe_skip_order ())
    ()

(* --- multicore deployment ------------------------------------------ *)

(* Spawn the receive loop for one address. The loop captures its
   mailbox by value: when [crash] closes it the loop drains the
   stragglers (into a dead handler — the RPC layer drops them) and
   exits, opening [exits.(addr)] so [recover] knows the old
   generation is gone and a replacement loop can take over the
   address. *)
let mc_spawn_loop rt (mc : mc_net) addr =
  let box = mc.boxes.(addr) in
  let exit_gate = rt.Runtime.gate () in
  mc.exits.(addr) <- Some exit_gate;
  Runtime_mc.spawn_daemon mc.pool (fun () ->
      let rec loop () =
        match Runtime.Mailbox.recv box with
        | None -> () (* closed: brick crash or cluster shutdown *)
        | Some (src, msg) ->
            (match mc.handlers.(addr) with
            | None -> ()
            | Some h -> (
                try h ~src msg with
                | Runtime.Cancelled -> ()
                | exn ->
                    Printf.eprintf "cluster(mc): handler %d raised %s\n%!"
                      addr (Printexc.to_string exn)));
            loop ()
      in
      loop ();
      exit_gate.Runtime.open_ ())

(* In-process transport for the multicore backend: one mailbox per
   address, one daemon receive loop per registered address. The loop
   serializes the address's handler invocations — replica state needs
   no further locking — while loops of different bricks run on
   different pool threads, in parallel across domains. Every send
   consults the {!Faultnet} snapshot, so the chaos stack can drop,
   cut, or delay messages on this backend too. *)
let mc_transport rt pool ~metrics ~n =
  let msgs = Metrics.Registry.counter metrics "net.msgs" in
  let bytes = Metrics.Registry.counter metrics "net.bytes" in
  let msgs_bg = Metrics.Registry.counter metrics "net.msgs.bg" in
  let bytes_bg = Metrics.Registry.counter metrics "net.bytes.bg" in
  let drops = Metrics.Registry.counter metrics "net.drops" in
  let dead = Metrics.Registry.counter metrics "net.drops.dead" in
  let mc =
    {
      pool;
      (* No seed to take here: mc runs promise no determinism. *)
      fnet = Faultnet.create ~seed:0 ~n;
      boxes = Array.init n (fun _ -> Runtime.Mailbox.create rt);
      exits = Array.make n None;
      handlers = Array.make n None;
      lifecycle = Mutex.create ();
      rcoords = [||];
    }
  in
  let xregister addr h =
    let fresh = mc.handlers.(addr) = None in
    mc.handlers.(addr) <- Some h;
    if fresh then mc_spawn_loop rt mc addr
  in
  let xsend ~background ~ctx:_ ~info:_ ~src ~dst ~bytes_on_wire msg =
    Metrics.Counter.incr (if background then msgs_bg else msgs);
    Metrics.Counter.incr
      ~by:(float_of_int bytes_on_wire)
      (if background then bytes_bg else bytes);
    match Faultnet.decide mc.fnet ~src ~dst with
    | Faultnet.Deliver -> Runtime.Mailbox.send mc.boxes.(dst) (src, msg)
    | Faultnet.Dropped | Faultnet.Cut -> Metrics.Counter.incr drops
    | Faultnet.Delay d ->
        (* Delayed delivery rides the timer wheel; Mailbox.send never
           blocks, so running it inline on the timer thread is safe. *)
        ignore
          (Runtime.timer rt ~delay:d (fun () ->
               Runtime.Mailbox.send mc.boxes.(dst) (src, msg)))
  in
  let transport =
    {
      Quorum.Rpc.xn = n;
      xobs = Obs.create ();
      xsend;
      xregister;
      xdead_drop = (fun () -> Metrics.Counter.incr dead);
    }
  in
  (transport, mc)

let create_mc ?(domains = 1) ?bricks ?layout ?(block_size = 1024) ?gc_enabled
    ?optimized_modify ?deadline ?unsafe_skip_order
    ?(retry_every = 0.05) ?retry_backoff ?retry_cap ~m ~n () =
  let nbricks = match bricks with Some b -> b | None -> n in
  if nbricks < n then invalid_arg "Core.Cluster.create_mc: bricks < n";
  let layout =
    match layout with
    | Some f -> f
    | None ->
        if nbricks = n then fun _ -> Array.init n (fun i -> i)
        else fun s -> Array.init n (fun i -> (s + i) mod nbricks)
  in
  let pool = Runtime_mc.create ~domains () in
  let runtime = Runtime_mc.runtime pool in
  let metrics = Metrics.Registry.create () in
  let obs = Obs.create () in
  let transport, mc = mc_transport runtime pool ~metrics ~n:nbricks in
  let transport = { transport with Quorum.Rpc.xobs = obs } in
  let rpc =
    Quorum.Rpc.create ~rt:runtime ~transport ~metrics
      ~req_bytes:Message.bytes_on_wire ~rep_bytes:Message.bytes_on_wire
      ~req_label:Message.label ~rep_label:Message.label ~retry_every
      ?retry_backoff ?retry_cap
      ~grace:(retry_every /. 4.) ()
  in
  let codec = default_codec ~m ~n in
  let mq = Quorum.Mquorum.create ~n ~m in
  let cfg =
    Config.create ~codec ~mq ~block_size ~runtime ~rpc ~metrics ~layout ~obs
      ?gc_enabled ?optimized_modify ?deadline ?unsafe_skip_order ()
  in
  let bricks =
    Array.init nbricks (fun id -> Brick.create ~metrics ~obs runtime ~id)
  in
  let replicas = Array.map (fun b -> Replica.create cfg ~brick:b) bricks in
  let coordinators =
    Array.map
      (fun b ->
        Coordinator.create cfg ~brick:b
          ~clock:(Clock.create ~now:runtime.Runtime.now ~pid:(Brick.id b)))
      bricks
  in
  (* Recovery coordinators: [recover] replays the paper's section 4
     recovery reads through these after a brick restart. Their clock
     pids sit past the brick range so a recovery write-back can never
     mint the same (time, pid) timestamp as a concurrently running
     client coordinator. *)
  mc.rcoords <-
    Array.map
      (fun b ->
        Coordinator.create cfg ~brick:b
          ~clock:
            (Clock.create ~now:runtime.Runtime.now ~pid:(nbricks + Brick.id b)))
      bricks;
  (* Placeholder engine so the record keeps its sim-facing field;
     nothing ever runs on it on this backend. *)
  let engine = Dessim.Engine.create ~seed:0 () in
  {
    engine;
    runtime;
    backend = Mc mc;
    rpc;
    metrics;
    obs;
    cfg;
    bricks;
    replicas;
    coordinators;
  }

let run ?(horizon = 100_000.) t =
  match t.backend with
  | Sim _ ->
      Dessim.Engine.run ~until:(Dessim.Engine.now t.engine +. horizon)
        t.engine
  | Mc { pool; _ } -> Runtime_mc.await_idle pool

let await_quiesce t =
  match t.backend with
  | Sim _ -> run t
  | Mc { pool; _ } -> Runtime_mc.await_idle pool

let try_quiesce ?timeout t =
  match t.backend with
  | Sim _ ->
      run t;
      true
  | Mc { pool; _ } -> (
      match timeout with
      | None ->
          Runtime_mc.await_idle pool;
          true
      | Some s -> Runtime_mc.try_await_idle pool ~timeout:s)

let shutdown t =
  match t.backend with
  | Sim _ -> ()
  | Mc { pool; boxes; _ } ->
      Array.iter Runtime.Mailbox.close boxes;
      Runtime_mc.shutdown pool;
      (* Materialize the runtime's hot-path counters so snapshots and
         benchmark reports see them alongside the protocol metrics.
         reset+incr: shutdown is idempotent, the stats are absolutes. *)
      let set name v =
        let c = Metrics.Registry.counter t.metrics name in
        Metrics.Counter.reset c;
        Metrics.Counter.incr ~by:v c
      in
      let ws = Runtime_mc.wheel_stats pool in
      set "runtime.wheel.max_depth" (float_of_int ws.Runtime_mc.max_depth);
      set "runtime.wheel.fired" (float_of_int ws.Runtime_mc.fired);
      set "runtime.wheel.purged" (float_of_int ws.Runtime_mc.purged);
      set "runtime.wheel.wakeups" (float_of_int ws.Runtime_mc.wakeups);
      let ss = Runtime_mc.sched_stats pool in
      let sched f = float_of_int (Array.fold_left (fun a s -> a + f s) 0 ss) in
      set "runtime.sched.resumed" (sched (fun s -> s.Runtime_mc.resumed));
      set "runtime.sched.parks" (sched (fun s -> s.Runtime_mc.parks));
      set "runtime.sched.wakeups" (sched (fun s -> s.Runtime_mc.wakeups));
      let batches, drained =
        Array.fold_left
          (fun (b, m) box ->
            let b', m' = Runtime.Mailbox.drain_stats box in
            (b + b', m + m'))
          (0, 0) boxes
      in
      set "runtime.mailbox.drain.batches" (float_of_int batches);
      set "runtime.mailbox.drain.msgs" (float_of_int drained)

let is_mc t = match t.backend with Sim _ -> false | Mc _ -> true

let spawn ?(coord = 0) t f =
  Runtime.spawn t.runtime (fun () -> f t.coordinators.(coord))

let run_op ?(coord = 0) ?horizon t f =
  let result = ref None in
  spawn ~coord t (fun c -> result := Some (f c));
  run ?horizon t;
  !result

(* Crash on the sim backend is exactly the historic behavior (flip the
   brick; the deterministic network models the rest). On mc it is a
   real process death: run the crash hooks (cancelling the brick's
   pending quorum calls), then close its mailbox so the receive loop
   drains out and exits — messages sent while down land in a closed
   box and are lost, like frames to a dead host. *)
let crash t i =
  match t.backend with
  | Sim _ -> Brick.crash t.bricks.(i)
  | Mc mc ->
      Mutex.lock mc.lifecycle;
      if Brick.is_alive t.bricks.(i) then begin
        Brick.crash t.bricks.(i);
        Runtime.Mailbox.close mc.boxes.(i)
      end;
      Mutex.unlock mc.lifecycle

(* Section 4 recovery replay: after a restart, read every stripe the
   brick hosts through its recovery coordinator. Each read samples a
   quorum, completes the most recent ongoing timestamp it finds, and
   writes the reconstructed version back at a fresh timestamp — the
   paper's recovery path, run proactively instead of waiting for the
   next client read. Best-effort: `Aborted/`Unavailable just mean
   another fault is still active; the next read retries. Only run
   under a deadline — without one a quorum call retransmits forever
   and the recovery task could never finish. *)
let mc_resync t (mc : mc_net) i =
  match t.cfg.Config.deadline with
  | None -> ()
  | Some _ ->
      let c = mc.rcoords.(i) in
      List.iter
        (fun stripe ->
          match Coordinator.recover c ~stripe with
          | Ok _ | Error (`Aborted | `Unavailable) -> ()
          | exception Runtime.Cancelled -> ())
        (Replica.stripes t.replicas.(i))

(* Recover on mc is asynchronous (a restart takes time, and this is
   called from nemesis timer callbacks, which must never block): a
   spawned task awaits the dead receive loop's exit, installs a fresh
   mailbox, respawns the loop, marks the brick alive, and replays the
   recovery reads. [try_quiesce]/[await_quiesce] wait for it — the
   task is non-daemon. *)
let recover t i =
  match t.backend with
  | Sim _ -> Brick.recover t.bricks.(i)
  | Mc mc ->
      if not (Brick.is_alive t.bricks.(i)) then
        Runtime.spawn t.runtime (fun () ->
            (match mc.exits.(i) with
            | Some g -> ( try g.Runtime.await () with Runtime.Cancelled -> ())
            | None -> ());
            Mutex.lock mc.lifecycle;
            let dead = not (Brick.is_alive t.bricks.(i)) in
            if dead then begin
              mc.boxes.(i) <- Runtime.Mailbox.create t.runtime;
              if mc.handlers.(i) <> None then
                mc_spawn_loop t.runtime mc i;
              Brick.recover t.bricks.(i)
            end;
            Mutex.unlock mc.lifecycle;
            if dead then mc_resync t mc i)

let faultnet t = match t.backend with Sim f -> f | Mc mc -> mc.fnet
let snapshot t = Metrics.Snapshot.take t.metrics
