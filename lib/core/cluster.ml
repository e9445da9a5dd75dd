module Faultnet = Simnet.Faultnet

type backend = Sim | Mc of { domains : int }

module Substrate = struct
  (* Multicore delivery: one mailbox of pending deliveries per
     address, drained by one daemon receive loop. [boxes] elements are
     swapped on brick restart (crash closes a box; recover installs a
     fresh one), so a send re-reads the array on every message: a send
     racing a restart lands in either the closed old box (lost — the
     brick was down) or the new one. [exits.(i)] is the gate the
     address's current receive loop opens when it drains out and
     exits; recover awaits it before installing the replacement
     mailbox. [lifecycle] serializes crash/recover state flips. *)
  type loops = {
    pool : Runtime_mc.t;
    boxes : (unit -> unit) Runtime.Mailbox.t array;
    exits : Runtime.gate option array;
    lifecycle : Mutex.t;
  }

  type on = On_sim of Dessim.Engine.t * Simnet.Net.t | On_mc of loops

  type t = {
    runtime : Runtime.t;
    faults : Faultnet.t;
    metrics : Metrics.Registry.t;
    obs : Obs.t;
    n : int;
    net_config : Simnet.Net.config;
    on : on;
  }

  (* Spawn the receive loop for one address. The loop captures its
     mailbox by value: when [crash] closes it the loop drains the
     stragglers (into a dead replica — the RPC layer drops them) and
     exits, opening [exits.(addr)] so [recover] knows the old
     generation is gone and a replacement loop can take over the
     address. The loop serializes the address's deliveries — replica
     state needs no further locking — while loops of different bricks
     run in parallel across domains. *)
  let spawn_loop rt l addr =
    let box = l.boxes.(addr) in
    let exit_gate = rt.Runtime.gate () in
    l.exits.(addr) <- Some exit_gate;
    Runtime_mc.spawn_daemon l.pool (fun () ->
        let rec loop () =
          match Runtime.Mailbox.recv box with
          | None -> () (* closed: brick crash or cluster shutdown *)
          | Some deliver ->
              (try deliver () with
              | Runtime.Cancelled -> ()
              | exn ->
                  Printf.eprintf "cluster(mc): handler %d raised %s\n%!" addr
                    (Printexc.to_string exn));
              loop ()
        in
        loop ();
        exit_gate.Runtime.open_ ())

  let create ?(backend = Sim) ?(seed = 42)
      ?(net_config = Simnet.Net.default_config) ~n () =
    if n < 1 then invalid_arg "Core.Cluster: no bricks";
    let metrics = Metrics.Registry.create () in
    let obs = Obs.create () in
    let faults = Faultnet.create ~seed ~n in
    let runtime, on =
      match backend with
      | Sim ->
          let engine = Dessim.Engine.create ~seed () in
          (* Sample the engine's event-queue depth only when someone
             listens: the unobserved engine keeps its
             one-branch-per-event fast path. *)
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
          let net = Simnet.Net.create ~obs engine ~config:net_config ~n in
          (Runtime_sim.of_engine engine, On_sim (engine, net))
      | Mc { domains } ->
          let pool = Runtime_mc.create ~domains () in
          let rt = Runtime_mc.runtime pool in
          let l =
            {
              pool;
              boxes = Array.init n (fun _ -> Runtime.Mailbox.create rt);
              exits = Array.make n None;
              lifecycle = Mutex.create ();
            }
          in
          for addr = 0 to n - 1 do
            spawn_loop rt l addr
          done;
          (rt, On_mc l)
    in
    { runtime; faults; metrics; obs; n; net_config; on }

  let runtime t = t.runtime
  let metrics t = t.metrics
  let obs t = t.obs
  let faults t = t.faults
  let is_mc t = match t.on with On_sim _ -> false | On_mc _ -> true

  (* Time-valued RPC knobs are delta units on sim and wall-clock
     seconds on mc, hence the per-backend defaults: sim waits out one
     channel delay past a bare quorum and keeps the RPC layer's
     retransmission default; mc retransmits every 50 ms. *)
  let rpc t ~req_bytes ~rep_bytes ?req_label ?rep_label ?retry_every
      ?retry_backoff ?retry_cap () =
    let lost, carry, retry_every, grace =
      match t.on with
      | On_sim (_, net) ->
          ( (fun () -> Simnet.Net.lost net),
            Simnet.Net.carry net,
            retry_every,
            t.net_config.delay +. t.net_config.jitter )
      | On_mc l ->
          (* A crashed brick's mailbox is closed: count what it refuses
             as sim counts a delivery to a dead process. *)
          let send dst deliver =
            if not (Runtime.Mailbox.send l.boxes.(dst) deliver) then
              Metrics.Registry.incr t.metrics "net.drops.dead"
          in
          let every = Option.value retry_every ~default:0.05 in
          ( (fun () -> false),
            (fun ~dst ~delay deliver ->
              if delay > 0. then
                (* Mailbox.send never blocks, so running it inline in
                   a timer callback on a worker is safe. *)
                ignore
                  (Runtime.timer t.runtime ~delay (fun () -> send dst deliver))
              else send dst deliver),
            Some every,
            every /. 4. )
    in
    let transport =
      Quorum.Fabric.create ~now:t.runtime.Runtime.now ~metrics:t.metrics
        ~obs:t.obs ~faults:t.faults ~n:t.n ~lost ~carry ()
    in
    Quorum.Rpc.create ~rt:t.runtime ~transport ~metrics:t.metrics ~req_bytes
      ~rep_bytes ?req_label ?rep_label ?retry_every ?retry_backoff ?retry_cap
      ~grace ()

  let run ?(horizon = 100_000.) t =
    match t.on with
    | On_sim (engine, _) ->
        Dessim.Engine.run ~until:(Dessim.Engine.now engine +. horizon) engine
    | On_mc l -> Runtime_mc.await_idle l.pool

  let try_quiesce ?timeout t =
    match (t.on, timeout) with
    | On_mc l, Some s -> Runtime_mc.try_await_idle l.pool ~timeout:s
    | _ ->
        run t;
        true

  let run_op ?horizon t f =
    let result = ref None in
    Runtime.spawn t.runtime (fun () -> result := Some (f ()));
    run ?horizon t;
    !result

  let shutdown t =
    match t.on with
    | On_sim _ -> ()
    | On_mc l ->
        Array.iter Runtime.Mailbox.close l.boxes;
        Runtime_mc.shutdown l.pool;
        (* Materialize the runtime's hot-path counters so snapshots and
           benchmark reports see them alongside the protocol metrics.
           reset+incr: shutdown is idempotent, the stats are
           absolutes. *)
        let set name v =
          let c = Metrics.Registry.counter t.metrics name in
          Metrics.Counter.reset c;
          Metrics.Counter.incr ~by:v c
        in
        let ws = Runtime_mc.timer_stats l.pool in
        set "runtime.wheel.max_depth" (float_of_int ws.Runtime_mc.max_depth);
        set "runtime.wheel.fired" (float_of_int ws.Runtime_mc.fired);
        set "runtime.wheel.purged" (float_of_int ws.Runtime_mc.purged);
        set "runtime.wheel.wakeups" (float_of_int ws.Runtime_mc.wakeups);
        let ss = Runtime_mc.sched_stats l.pool in
        let sched f =
          float_of_int (Array.fold_left (fun a s -> a + f s) 0 ss)
        in
        set "runtime.sched.resumed" (sched (fun s -> s.Runtime_mc.resumed));
        set "runtime.sched.parks" (sched (fun s -> s.Runtime_mc.parks));
        set "runtime.sched.wakeups" (sched (fun s -> s.Runtime_mc.wakeups));
        let batches, drained =
          Array.fold_left
            (fun (b, m) box ->
              let b', m' = Runtime.Mailbox.drain_stats box in
              (b + b', m + m'))
            (0, 0) l.boxes
        in
        set "runtime.mailbox.drain.batches" (float_of_int batches);
        set "runtime.mailbox.drain.msgs" (float_of_int drained)

  (* Crash on sim flips the brick; the deterministic channel models
     the rest. On mc it is a real process death: run the crash hooks
     (cancelling the brick's pending quorum calls), then close its
     mailbox so the receive loop drains out and exits — messages sent
     while down land in a closed box and are lost, like frames to a
     dead host. *)
  let crash t brick =
    match t.on with
    | On_sim _ -> Brick.crash brick
    | On_mc l ->
        Mutex.lock l.lifecycle;
        if Brick.is_alive brick then begin
          Brick.crash brick;
          Runtime.Mailbox.close l.boxes.(Brick.id brick)
        end;
        Mutex.unlock l.lifecycle

  (* Recover on mc is asynchronous (a restart takes time, and this is
     called from nemesis timer callbacks, which must never block): a
     spawned task awaits the dead receive loop's exit, installs a fresh
     mailbox, respawns the loop, marks the brick alive, then runs
     [resync]. [try_quiesce] waits for it — the task is non-daemon. *)
  let recover t brick ~resync =
    match t.on with
    | On_sim _ -> Brick.recover brick
    | On_mc l ->
        let i = Brick.id brick in
        if not (Brick.is_alive brick) then
          Runtime.spawn t.runtime (fun () ->
              (match l.exits.(i) with
              | Some g -> ( try g.Runtime.await () with Runtime.Cancelled -> ())
              | None -> ());
              Mutex.lock l.lifecycle;
              let dead = not (Brick.is_alive brick) in
              if dead then begin
                l.boxes.(i) <- Runtime.Mailbox.create t.runtime;
                spawn_loop t.runtime l i;
                Brick.recover brick
              end;
              Mutex.unlock l.lifecycle;
              if dead then resync ())

  let engine t =
    match t.on with
    | On_sim (engine, _) -> engine
    | On_mc _ -> invalid_arg "Core.Cluster: no engine on the mc backend"
end

type t = {
  substrate : Substrate.t;
  runtime : Runtime.t;
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
  cfg : Config.t;
  bricks : Brick.t array;
  replicas : Replica.t array;
  coordinators : Coordinator.t array;
  recoverers : Coordinator.t array;
}

let default_codec ~m ~n =
  if m = 1 then Erasure.Codec.replication ~n ()
  else if n = m + 1 then Erasure.Codec.parity ~m ()
  else Erasure.Codec.rs ~m ~n ()

(* The stripe policies and brick count: one uniform m-of-n policy over
   [layout], or a caller's per-stripe [policy_of] over [bricks]. *)
let placement ?bricks ?layout ?policy_of ?m ?n () =
  match (policy_of, m, n) with
  | Some policy_of, None, None ->
      let nbricks =
        match bricks with
        | Some b -> b
        | None -> invalid_arg "Core.Cluster.create: policy_of needs bricks"
      in
      (nbricks, policy_of)
  | None, Some m, Some n ->
      let nbricks = Option.value bricks ~default:n in
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
      let policy_of stripe =
        Config.make_policy ~codec ~mq ~members:(layout stripe)
      in
      (* Validate eagerly on a representative stripe. *)
      ignore (policy_of 0);
      (nbricks, policy_of)
  | _ -> invalid_arg "Core.Cluster.create: give ~m and ~n, or ~policy_of"

let create ?backend ?seed ?net_config ?bricks ?layout ?policy_of
    ?(block_size = 1024) ?gc_enabled ?optimized_modify ?deadline
    ?unsafe_skip_order ?retry_every ?retry_backoff ?retry_cap ?m ?n () =
  let nbricks, policy_of = placement ?bricks ?layout ?policy_of ?m ?n () in
  let substrate = Substrate.create ?backend ?seed ?net_config ~n:nbricks () in
  let runtime = Substrate.runtime substrate in
  let metrics = Substrate.metrics substrate in
  let obs = Substrate.obs substrate in
  let rpc =
    Substrate.rpc substrate ~req_bytes:Message.bytes_on_wire
      ~rep_bytes:Message.bytes_on_wire ~req_label:Message.label
      ~rep_label:Message.label ?retry_every ?retry_backoff ?retry_cap ()
  in
  let cfg =
    Config.create ~policy_of ~block_size ~runtime ~rpc ~metrics ~obs
      ?gc_enabled ?optimized_modify ?deadline ?unsafe_skip_order ()
  in
  let bricks =
    Array.init nbricks (fun id -> Brick.create ~metrics ~obs runtime ~id)
  in
  let replicas = Array.map (fun b -> Replica.create cfg ~brick:b) bricks in
  let coordinator ~pid b =
    Coordinator.create cfg ~brick:b
      ~clock:(Clock.create ~now:runtime.Runtime.now ~pid)
  in
  let coordinators = Array.map (fun b -> coordinator ~pid:(Brick.id b) b) bricks in
  (* Recovery coordinators (mc only): [recover] replays the paper's
     section 4 recovery reads through these after a brick restart.
     Their clock pids sit past the brick range so a recovery write-back
     can never mint the same (time, pid) timestamp as a concurrently
     running client coordinator. *)
  let recoverers =
    if Substrate.is_mc substrate then
      Array.map (fun b -> coordinator ~pid:(nbricks + Brick.id b) b) bricks
    else [||]
  in
  {
    substrate;
    runtime;
    rpc;
    metrics;
    obs;
    cfg;
    bricks;
    replicas;
    coordinators;
    recoverers;
  }

(* Kept for vdbench's call site; the vdbench revision on ROADMAP
   switches it to [create ~backend] and deletes this alias. *)
let create_mc ~domains = create ~backend:(Mc { domains })

let run ?horizon t = Substrate.run ?horizon t.substrate
let await_quiesce t = Substrate.run t.substrate
let try_quiesce ?timeout t = Substrate.try_quiesce ?timeout t.substrate
let shutdown t = Substrate.shutdown t.substrate
let is_mc t = Substrate.is_mc t.substrate
let sim_engine t = Substrate.engine t.substrate

let spawn ?(coord = 0) t f =
  Runtime.spawn t.runtime (fun () -> f t.coordinators.(coord))

let run_op ?(coord = 0) ?horizon t f =
  Substrate.run_op ?horizon t.substrate (fun () -> f t.coordinators.(coord))

let crash t i = Substrate.crash t.substrate t.bricks.(i)

(* Section 4 recovery replay after an mc restart: read every stripe
   the brick hosts through its recovery coordinator. Each read samples
   a quorum, completes the most recent ongoing timestamp it finds, and
   writes the reconstructed version back at a fresh timestamp — the
   paper's recovery path, run eagerly instead of waiting for the next
   client read as sim does (DESIGN 4i). Best-effort: `Aborted /
   `Unavailable just mean another fault is still active; the next read
   retries. Only run under a deadline — without one a quorum call
   retransmits forever and the recovery task could never finish. *)
let resync t i () =
  match t.cfg.Config.deadline with
  | None -> ()
  | Some _ ->
      let c = t.recoverers.(i) in
      List.iter
        (fun stripe ->
          match Coordinator.recover c ~stripe with
          | Ok _ | Error (`Aborted | `Unavailable) -> ()
          | exception Runtime.Cancelled -> ())
        (Replica.stripes t.replicas.(i))

let recover t i =
  Substrate.recover t.substrate t.bricks.(i) ~resync:(resync t i)

let faultnet t = Substrate.faults t.substrate
let snapshot t = Metrics.Snapshot.take t.metrics
