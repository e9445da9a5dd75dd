type volume_meta = {
  name : string;
  volume : Volume.t;
  first_stripe : int;
  last_stripe : int;  (* inclusive *)
  policy_for : int -> Core.Config.policy;  (* takes the GLOBAL stripe id *)
}

type t = {
  cluster : Core.Cluster.t;
  nbricks : int;
  block_size : int;
  op_retries : int;
  pipeline_window : int;
  mutable next_stripe : int;
  mutable volumes : volume_meta list;  (* newest first *)
}

(* The pool's policy table is consulted by every replica and
   coordinator; the cluster is created around a forward reference so
   the table can grow as volumes are created. *)
let create ?backend ?seed ?net_config ?(block_size = 1024) ?gc_enabled
    ?optimized_modify ?(op_retries = 3)
    ?(pipeline_window = 8) ~bricks () =
  if bricks < 1 then invalid_arg "Fab.Pool.create: no bricks";
  if op_retries < 1 then invalid_arg "Fab.Pool.create: op_retries < 1";
  if pipeline_window < 1 then
    invalid_arg "Fab.Pool.create: pipeline_window < 1";
  let self = ref None in
  let policy_of stripe =
    match !self with
    | None -> invalid_arg "Fab.Pool: pool not initialized"
    | Some pool -> (
        let meta =
          List.find_opt
            (fun v -> stripe >= v.first_stripe && stripe <= v.last_stripe)
            pool.volumes
        in
        match meta with
        | Some v -> v.policy_for stripe
        | None ->
            invalid_arg
              (Printf.sprintf "Fab.Pool: stripe %d belongs to no volume"
                 stripe))
  in
  let cluster =
    Core.Cluster.create ?backend ?seed ?net_config ~block_size ?gc_enabled
      ?optimized_modify ~bricks ~policy_of ()
  in
  let pool =
    {
      cluster;
      nbricks = bricks;
      block_size;
      op_retries;
      pipeline_window;
      next_stripe = 0;
      volumes = [];
    }
  in
  self := Some pool;
  pool

let cluster t = t.cluster
let bricks t = t.nbricks
let block_size t = t.block_size

let find_volume t name =
  Option.map
    (fun v -> v.volume)
    (List.find_opt (fun v -> v.name = name) t.volumes)

let volume_names t =
  List.sort String.compare (List.map (fun v -> v.name) t.volumes)

let create_volume t ~name ~m ~n ?layout ~stripes () =
  if stripes <= 0 then invalid_arg "Fab.Pool.create_volume: stripes <= 0";
  if n > t.nbricks then
    invalid_arg "Fab.Pool.create_volume: n exceeds pool brick count";
  if find_volume t name <> None then
    invalid_arg
      (Printf.sprintf "Fab.Pool.create_volume: volume %S already exists" name);
  let kind =
    match layout with
    | Some k -> k
    | None -> if t.nbricks = n then Layout.Fixed else Layout.Rotating
  in
  let layout_fn = Layout.make kind ~bricks:t.nbricks ~n in
  let codec = Core.Cluster.default_codec ~m ~n in
  let mq = Quorum.Mquorum.create ~n ~m in
  let first_stripe = t.next_stripe in
  t.next_stripe <- t.next_stripe + stripes;
  let policy_for stripe =
    (* Layout schemes are a function of the volume-local stripe index,
       so a volume's placement does not depend on its allocation
       order. *)
    Core.Config.make_policy ~codec ~mq
      ~members:(layout_fn (stripe - first_stripe))
  in
  let volume =
    Volume.of_cluster ~cluster:t.cluster ~m ~stripes
      ~block_size:t.block_size ~op_retries:t.op_retries
      ~pipeline_window:t.pipeline_window ~stripe_offset:first_stripe ()
  in
  let meta =
    {
      name;
      volume;
      first_stripe;
      last_stripe = first_stripe + stripes - 1;
      policy_for;
    }
  in
  t.volumes <- meta :: t.volumes;
  volume

let delete_volume t name =
  let exists = List.exists (fun v -> v.name = name) t.volumes in
  if exists then t.volumes <- List.filter (fun v -> v.name <> name) t.volumes;
  exists

let run ?horizon t = Core.Cluster.run ?horizon t.cluster

let run_op ?horizon t f = Core.Cluster.run_op ?horizon t.cluster (fun _ -> f ())
