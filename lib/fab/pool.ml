type t = {
  cluster : Core.Cluster.t;
  mutable volumes : (string * Volume.t) list;  (* newest first *)
}

let create ?backend ?(block_size = 1024) ~bricks () =
  if bricks < 1 then invalid_arg "Fab.Pool.create: no bricks";
  let cluster = Core.Cluster.create ?backend ~block_size ~bricks () in
  { cluster; volumes = [] }

let cluster t = t.cluster
let bricks t = t.cluster.cfg.bricks
let block_size t = t.cluster.cfg.block_size
let find_volume t name = List.assoc_opt name t.volumes
let volume_names t = List.sort String.compare (List.map fst t.volumes)

let create_volume t ~name ~m ~n ~stripes () =
  if stripes <= 0 then invalid_arg "Fab.Pool.create_volume: stripes <= 0";
  if n > bricks t then
    invalid_arg "Fab.Pool.create_volume: n exceeds pool brick count";
  if find_volume t name <> None then
    invalid_arg
      (Printf.sprintf "Fab.Pool.create_volume: volume %S already exists" name);
  let first = Core.Config.add_range t.cluster.cfg ~m ~n ~stripes () in
  let volume =
    Volume.of_cluster ~cluster:t.cluster ~m ~stripes ~block_size:(block_size t)
      ~op_retries:3 ~stripe_offset:first ()
  in
  t.volumes <- (name, volume) :: t.volumes;
  volume

(* The range stays bound: an op still in flight on the volume finishes. *)
let delete_volume t name =
  let exists = List.mem_assoc name t.volumes in
  if exists then t.volumes <- List.remove_assoc name t.volumes;
  exists

let run_op ?horizon t f = Core.Cluster.run_op ?horizon t.cluster (fun _ -> f ())
