module Cluster = Core.Cluster
module Faultnet = Simnet.Faultnet

type t = {
  cluster : Cluster.t;
  base_drop : float;
  time_scale : float;
  lock : Mutex.t;
  mutable timers : Runtime.timer list;
  mutable skewed : (int * float) list;
      (* coordinator, and its clock's skew before the plan's first
         [Skew] on it *)
  mutable applied : (float * Plan.fault) list;
  mutable restored : bool;
}

let emit_fault cl fault =
  let obs = cl.Cluster.obs in
  if Obs.enabled obs then
    Obs.emit obs
      {
        Obs.time = Runtime.now cl.Cluster.runtime;
        actor = Obs.Sim;
        op = -1;
        phase = None;
        kind = Obs.Fault { label = Plan.fault_label fault };
      }

(* Tear the most recent append on every stripe log the brick holds,
   then crash it: what a power cut in mid-write leaves behind. *)
let torn_crash cl i =
  let replica = cl.Cluster.replicas.(i) in
  List.iter
    (fun stripe ->
      match Core.Replica.log replica ~stripe with
      | Some slog -> ignore (Core.Slog.tear_last slog)
      | None -> ())
    (Core.Replica.stripes replica);
  Cluster.crash cl i

let on_log cl brick stripe f =
  match Core.Replica.log cl.Cluster.replicas.(brick) ~stripe with
  | Some slog -> f slog
  | None -> ()

(* Which plan faults have no faithful multicore implementation, and
   why: the storage faults mutate a brick's stripe logs from a nemesis
   timer callback, outside the brick's receive loop; on mc that
   callback can run on one worker while the brick's live replica
   handlers run on another. Every other variant executes on mc. *)
let fault_error cl fault =
  if not (Cluster.is_mc cl) then None
  else
    match fault with
    | Plan.Torn_crash _ ->
        Some
          "torn-crash: storage faults mutate stripe logs from outside \
           the brick's receive loop and would race live handlers on mc \
           (sim only)"
    | Plan.Bit_rot _ ->
        Some
          "bit-rot: storage faults mutate stripe logs from outside the \
           brick's receive loop and would race live handlers on mc \
           (sim only)"
    | Plan.Sector_error _ ->
        Some
          "sector-error: storage faults mutate stripe logs from \
           outside the brick's receive loop and would race live \
           handlers on mc (sim only)"
    | Plan.Crash _ | Plan.Recover _ | Plan.Partition _ | Plan.Heal
    | Plan.Drop _ | Plan.Link_down _ | Plan.Link_up _ | Plan.Slow _
    | Plan.Skew _ ->
        None

(* Apply one fault to the environment. Network faults go through the
   deployment's Faultnet on either backend; [time_scale] converts a
   [Slow]'s and a [Skew]'s plan units into runtime time units. The
   sim-only faults never reach here on mc: install/inject reject them
   first. *)
let apply_env ~time_scale cl fault =
  let fnet = Cluster.faultnet cl in
  match fault with
  | Plan.Crash i -> Cluster.crash cl i
  | Plan.Recover i -> Cluster.recover cl i
  | Plan.Partition groups -> Faultnet.partition fnet groups
  | Plan.Heal -> Faultnet.heal fnet
  | Plan.Drop p -> Faultnet.set_drop fnet p
  | Plan.Link_down (src, dst) -> Faultnet.set_link_down fnet ~src ~dst true
  | Plan.Link_up (src, dst) -> Faultnet.set_link_down fnet ~src ~dst false
  | Plan.Slow (d, j) ->
      Faultnet.set_delay fnet ~delay:(d *. time_scale)
        ~jitter:(j *. time_scale)
  | Plan.Skew (i, skew) ->
      Core.Clock.set_skew
        (Core.Coordinator.clock cl.Cluster.coordinators.(i))
        (skew *. time_scale)
  | Plan.Torn_crash i -> torn_crash cl i
  | Plan.Bit_rot (brick, stripe) ->
      on_log cl brick stripe Core.Slog.corrupt_newest
  | Plan.Sector_error (brick, stripe) ->
      on_log cl brick stripe (fun slog -> ignore (Core.Slog.damage_newest slog))

let apply t fault =
  Mutex.lock t.lock;
  (* A timer can race [restore]: the timer fires, [restore] wins the
     lock, cancels (too late) and heals, then the callback runs. The
     [restored] check makes the race harmless. *)
  if t.restored then Mutex.unlock t.lock
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        (match fault with
        | Plan.Skew (i, _) ->
            if not (List.mem_assoc i t.skewed) then
              t.skewed <-
                ( i,
                  Core.Clock.skew
                    (Core.Coordinator.clock
                       t.cluster.Cluster.coordinators.(i)) )
                :: t.skewed
        | _ -> ());
        apply_env ~time_scale:t.time_scale t.cluster fault;
        t.applied <-
          (Runtime.now t.cluster.Cluster.runtime, fault) :: t.applied;
        emit_fault t.cluster fault)

let validate_events ~lenient ~rt ~plan_name cluster events =
  List.filter
    (fun { Plan.fault; _ } ->
      match fault_error cluster fault with
      | None -> true
      | Some msg ->
          if lenient then begin
            Printf.eprintf "chaos: nemesis: skipping [%s] on %s: %s\n%!"
              (Plan.fault_label fault) (Runtime.name rt) msg;
            false
          end
          else
            invalid_arg
              (Printf.sprintf "Chaos.Nemesis.install: plan %S: %s"
                 plan_name msg))
    events

let install ?(base_drop = 0.) ?(time_scale = 1.) ?(lenient = false) plan
    cluster =
  let n = Array.length cluster.Cluster.bricks in
  if Plan.max_brick plan >= n then
    invalid_arg
      (Printf.sprintf
         "Chaos.Nemesis.install: plan %S touches brick %d, deployment \
          has %d"
         plan.Plan.name (Plan.max_brick plan) n);
  if not (time_scale > 0.) then
    invalid_arg "Chaos.Nemesis.install: time_scale must be > 0";
  let rt = cluster.Cluster.runtime in
  let events =
    validate_events ~lenient ~rt ~plan_name:plan.Plan.name cluster
      plan.Plan.events
  in
  let now0 = Runtime.now rt in
  (* Plan times are relative to install on mc (the pool's clock started
     at pool creation, not at install) and absolute engine time on sim,
     where installing at engine time 0 makes the two readings agree —
     and keeps sim delays byte-identical to the pre-runtime nemesis. *)
  let epoch = if Cluster.is_mc cluster then now0 else 0. in
  let t =
    {
      cluster;
      base_drop;
      time_scale;
      lock = Mutex.create ();
      timers = [];
      skewed = [];
      applied = [];
      restored = false;
    }
  in
  (* The fault closures capture [t], so [t] itself must be the record
     handed to [restore]: rebuilding it with [{ t with timers }] would
     leave restore looking at an empty [skewed] list while the closures
     mutate the original's. *)
  let now_units = (now0 -. epoch) /. time_scale in
  t.timers <-
    List.map
      (fun { Plan.at; fault } ->
        Runtime.timer rt
          ~delay:(Float.max 0. ((at -. now_units) *. time_scale))
          (fun () -> apply t fault))
      events;
  t

let applied t =
  Mutex.lock t.lock;
  let l = List.rev t.applied in
  Mutex.unlock t.lock;
  l

let restore t =
  Mutex.lock t.lock;
  if t.restored then Mutex.unlock t.lock
  else begin
    t.restored <- true;
    let timers = t.timers in
    t.timers <- [];
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        List.iter Runtime.cancel timers;
        let cl = t.cluster in
        Faultnet.reset (Cluster.faultnet cl) ~drop:t.base_drop;
        List.iter
          (fun (i, skew) ->
            Core.Clock.set_skew
              (Core.Coordinator.clock cl.Cluster.coordinators.(i))
              skew)
          t.skewed;
        t.skewed <- [];
        Array.iteri
          (fun i b -> if not (Brick.is_alive b) then Cluster.recover cl i)
          cl.Cluster.bricks)
  end

let inject ?(time_scale = 1.) cluster fault =
  (match fault_error cluster fault with
  | Some msg ->
      invalid_arg (Printf.sprintf "Chaos.Nemesis.inject: %s" msg)
  | None -> ());
  apply_env ~time_scale cluster fault;
  emit_fault cluster fault
