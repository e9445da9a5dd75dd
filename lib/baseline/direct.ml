type msg = Put of { block : Bytes.t } | Get | Put_r | Get_r of { block : Bytes.t }

let bytes_on_wire = function
  | Put { block } | Get_r { block } -> Bytes.length block
  | Get | Put_r -> 0

module Substrate = Core.Cluster.Substrate

type t = {
  substrate : Substrate.t;
  rpc : (msg, msg) Quorum.Rpc.t;
  bricks : Brick.t array;
  codec : Erasure.Codec.t;
  stores : Bytes.t option array;  (* per device: its block of the stripe *)
  m : int;
  n : int;
  block_size : int;
}

type 'a outcome = ('a, [ `Failed ]) result

let create ?(block_size = 1024) ~m ~n () =
  let codec = Core.Config.default_codec ~m ~n in
  let substrate = Substrate.create ~n () in
  let rpc =
    Substrate.rpc substrate ~req_bytes:bytes_on_wire ~rep_bytes:bytes_on_wire
      ()
  in
  let bricks =
    Array.init n (fun id ->
        Brick.create ~metrics:(Substrate.metrics substrate)
          (Substrate.runtime substrate) ~id)
  in
  let stores = Array.make n None in
  let t = { substrate; rpc; bricks; codec; stores; m; n; block_size } in
  Array.iteri
    (fun i _ ->
      Quorum.Rpc.serve rpc ~addr:i (fun ~src:_ ~ctx:_ msg ->
          if not (Brick.is_alive t.bricks.(i)) then None
          else
            match msg with
            | Put { block } ->
                (* Overwrite in place: the old version is gone. *)
                t.stores.(i) <- Some block;
                Brick.count_disk_write t.bricks.(i);
                Some Put_r
            | Get -> (
                match t.stores.(i) with
                | Some block ->
                    Brick.count_disk_read t.bricks.(i);
                    Some (Get_r { block })
                | None ->
                    Some (Get_r { block = Bytes.make t.block_size '\000' }))
            | Put_r | Get_r _ -> None))
    bricks;
  t

let members t = List.init t.n Fun.id
let live t = List.filter (fun i -> Brick.is_alive t.bricks.(i)) (members t)

let write t data =
  if Array.length data <> t.m then invalid_arg "Baseline.Direct.write: shape";
  let enc = Erasure.Codec.encode t.codec data in
  let targets = live t in
  if targets = [] then Error `Failed
  else begin
    let _ =
      Quorum.Rpc.call t.rpc ~coord:t.bricks.(List.hd targets) ~members:targets
        ~quorum:(List.length targets)
        (fun dst -> Put { block = enc.(dst) })
    in
    Ok ()
  end

let write_first t data =
  let enc = Erasure.Codec.encode t.codec data in
  (* The client crashes after issuing its first block update; simulate
     by delivering it directly. *)
  if Brick.is_alive t.bricks.(0) then begin
    t.stores.(0) <- Some enc.(0);
    Brick.count_disk_write t.bricks.(0)
  end

let read t =
  let targets = live t in
  if List.length targets < t.m then Error `Failed
  else begin
    let chosen = List.filteri (fun i _ -> i < t.m) targets in
    let replies =
      Quorum.Rpc.call t.rpc ~coord:t.bricks.(List.hd chosen) ~members:chosen
        ~quorum:t.m
        (fun _ -> Get)
    in
    let blocks =
      List.filter_map
        (fun (src, r) ->
          match r with Get_r { block } -> Some (src, block) | _ -> None)
        replies
    in
    if List.length blocks < t.m then Error `Failed
    else Ok (Erasure.Codec.decode t.codec blocks)
  end

let crash_device t i = Brick.crash t.bricks.(i)

let run_op t f = Substrate.run_op ~horizon:10_000. t.substrate f
