type msg =
  | Put of { reg : int; block : Bytes.t }
  | Get of { reg : int }
  | Put_r
  | Get_r of { block : Bytes.t }

let bytes_on_wire = function
  | Put { block; _ } -> Bytes.length block
  | Get_r { block } -> Bytes.length block
  | Get _ | Put_r -> 0

module Substrate = Core.Cluster.Substrate

type t = {
  substrate : Substrate.t;
  rpc : (msg, msg) Quorum.Rpc.t;
  bricks : Brick.t array;
  codec : Erasure.Codec.t;
  stores : (int, Bytes.t) Hashtbl.t array;  (* per device: reg -> block *)
  m : int;
  n : int;
  block_size : int;
}

type 'a outcome = ('a, [ `Failed ]) result

let block_size t = t.block_size
let runtime t = Substrate.runtime t.substrate

let create ?seed ?(block_size = 1024) ~m ~n () =
  let codec = Core.Config.default_codec ~m ~n in
  let substrate = Substrate.create ?seed ~n () in
  let rpc =
    Substrate.rpc substrate ~req_bytes:bytes_on_wire ~rep_bytes:bytes_on_wire
      ()
  in
  let bricks =
    Array.init n (fun id ->
        Brick.create ~metrics:(Substrate.metrics substrate)
          (Substrate.runtime substrate) ~id)
  in
  let stores = Array.init n (fun _ -> Hashtbl.create 16) in
  let t = { substrate; rpc; bricks; codec; stores; m; n; block_size } in
  Array.iteri
    (fun i _ ->
      Quorum.Rpc.serve rpc ~addr:i (fun ~src:_ ~ctx:_ msg ->
          if not (Brick.is_alive t.bricks.(i)) then None
          else
            match msg with
            | Put { reg; block } ->
                (* Overwrite in place: the old version is gone. *)
                Hashtbl.replace t.stores.(i) reg block;
                Brick.count_disk_write t.bricks.(i);
                Some Put_r
            | Get { reg } -> (
                match Hashtbl.find_opt t.stores.(i) reg with
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

let write t ~reg data =
  if Array.length data <> t.m then invalid_arg "Baseline.Direct.write: shape";
  let enc = Erasure.Codec.encode t.codec data in
  let targets = live t in
  if targets = [] then Error `Failed
  else begin
    let _ =
      Quorum.Rpc.call t.rpc ~coord:t.bricks.(List.hd targets) ~members:targets
        ~quorum:(List.length targets)
        (fun dst -> Put { reg; block = enc.(dst) })
    in
    Ok ()
  end

let write_prefix t ~reg ~devices data =
  let enc = Erasure.Codec.encode t.codec data in
  (* The client crashes after issuing the first [devices] block
     updates; simulate by delivering them directly. *)
  for i = 0 to min devices t.n - 1 do
    if Brick.is_alive t.bricks.(i) then begin
      Hashtbl.replace t.stores.(i) reg enc.(i);
      Brick.count_disk_write t.bricks.(i)
    end
  done

let read t ~reg =
  let targets = live t in
  if List.length targets < t.m then Error `Failed
  else begin
    let chosen = List.filteri (fun i _ -> i < t.m) targets in
    let replies =
      Quorum.Rpc.call t.rpc ~coord:t.bricks.(List.hd chosen) ~members:chosen
        ~quorum:t.m
        (fun _ -> Get { reg })
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

let run ?(horizon = 10_000.) t = Substrate.run ~horizon t.substrate
let run_op ?(horizon = 10_000.) t f = Substrate.run_op ~horizon t.substrate f
