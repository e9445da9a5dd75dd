type t = {
  cluster : Core.Cluster.t;
  op_retries : int;
  pipeline_window : int;
  mutable volumes : (string * Volume.t) list;  (* newest first *)
}

let create ?backend ?seed ?net_config ?(block_size = 1024) ?gc_enabled
    ?optimized_modify ?(op_retries = 3)
    ?(pipeline_window = 8) ~bricks () =
  if bricks < 1 then invalid_arg "Fab.Pool.create: no bricks";
  if op_retries < 1 then invalid_arg "Fab.Pool.create: op_retries < 1";
  if pipeline_window < 1 then
    invalid_arg "Fab.Pool.create: pipeline_window < 1";
  let cluster =
    Core.Cluster.create ?backend ?seed ?net_config ~block_size ?gc_enabled
      ?optimized_modify ~bricks ()
  in
  { cluster; op_retries; pipeline_window; volumes = [] }

let cluster t = t.cluster
let bricks t = t.cluster.cfg.bricks
let block_size t = t.cluster.cfg.block_size
let find_volume t name = List.assoc_opt name t.volumes
let volume_names t = List.sort String.compare (List.map fst t.volumes)

let create_volume t ~name ~m ~n ?layout ~stripes () =
  if stripes <= 0 then invalid_arg "Fab.Pool.create_volume: stripes <= 0";
  if n > bricks t then
    invalid_arg "Fab.Pool.create_volume: n exceeds pool brick count";
  if find_volume t name <> None then
    invalid_arg
      (Printf.sprintf "Fab.Pool.create_volume: volume %S already exists" name);
  let first = Core.Config.add_range t.cluster.cfg ?layout ~m ~n ~stripes () in
  let volume =
    Volume.of_cluster ~cluster:t.cluster ~m ~stripes ~block_size:(block_size t)
      ~op_retries:t.op_retries ~pipeline_window:t.pipeline_window
      ~stripe_offset:first ()
  in
  t.volumes <- (name, volume) :: t.volumes;
  volume

(* The range stays bound: an op still in flight on the volume finishes. *)
let delete_volume t name =
  let exists = List.mem_assoc name t.volumes in
  if exists then t.volumes <- List.remove_assoc name t.volumes;
  exists

let run ?horizon t = Core.Cluster.run ?horizon t.cluster

let run_op ?horizon t f = Core.Cluster.run_op ?horizon t.cluster (fun _ -> f ())
