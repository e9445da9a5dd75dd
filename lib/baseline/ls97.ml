module Ts = Core.Timestamp
module Clock = Core.Clock
module Substrate = Core.Cluster.Substrate

type msg =
  | Get_tag of { reg : int }
  | Get of { reg : int }
  | Put of { reg : int; value : Bytes.t; ts : Ts.t }
  | Get_tag_r of { ts : Ts.t }
  | Get_r of { value : Bytes.t; ts : Ts.t }
  | Put_r of { ts : Ts.t }

let bytes_on_wire = function
  | Get_tag _ | Get _ | Get_tag_r _ | Put_r _ -> 0
  | Put { value; _ } -> Bytes.length value
  | Get_r { value; _ } -> Bytes.length value

type replica_reg = { mutable value : Bytes.t; mutable ts : Ts.t }

type t = {
  substrate : Substrate.t;
  rpc : (msg, msg) Quorum.Rpc.t;
  bricks : Brick.t array;
  clocks : Clock.t array;
  states : (int, replica_reg) Hashtbl.t array;  (* per brick: reg -> copy *)
  n : int;
  majority : int;
  block_size : int;
}

type 'a outcome = ('a, [ `Aborted ]) result

let metrics t = Substrate.metrics t.substrate
let runtime t = Substrate.runtime t.substrate

let reg_state t brick reg =
  let tbl = t.states.(brick) in
  match Hashtbl.find_opt tbl reg with
  | Some s -> s
  | None ->
      let s = { value = Bytes.make t.block_size '\000'; ts = Ts.low } in
      Hashtbl.add tbl reg s;
      s

let handle t brick ~src:_ msg =
  if not (Brick.is_alive t.bricks.(brick)) then None
  else
    match msg with
    | Get_tag { reg } ->
        (* Tags live in NVRAM: no disk I/O to answer. *)
        Some (Get_tag_r { ts = (reg_state t brick reg).ts })
    | Get { reg } ->
        let s = reg_state t brick reg in
        Brick.count_disk_read t.bricks.(brick);
        Some (Get_r { value = s.value; ts = s.ts })
    | Put { reg; value; ts } ->
        let s = reg_state t brick reg in
        if Ts.( >= ) ts s.ts then begin
          (* A blind write, as Table 1's cost model assumes: a
             write-back with the tag the replica already holds
             rewrites the (identical) value rather than verifying
             and skipping. *)
          s.value <- value;
          s.ts <- ts;
          Brick.count_disk_write t.bricks.(brick);
          Brick.count_nvram_write t.bricks.(brick)
        end;
        Some (Put_r { ts })
    | Get_tag_r _ | Get_r _ | Put_r _ -> None

let create ?backend ?(block_size = 1024) ~n:count () =
  if count < 2 then invalid_arg "Baseline.Ls97.create: n < 2";
  let substrate = Substrate.create ?backend ~n:count () in
  let runtime = Substrate.runtime substrate in
  let rpc =
    Substrate.rpc substrate ~req_bytes:bytes_on_wire ~rep_bytes:bytes_on_wire
      ()
  in
  let bricks =
    Array.init count (fun id ->
        Brick.create ~metrics:(Substrate.metrics substrate) runtime ~id)
  in
  let clocks =
    Array.init count (fun pid -> Clock.create ~now:runtime.Runtime.now ~pid)
  in
  let states = Array.init count (fun _ -> Hashtbl.create 16) in
  let t =
    {
      substrate;
      rpc;
      bricks;
      clocks;
      states;
      n = count;
      majority = (count / 2) + 1;
      block_size;
    }
  in
  Array.iteri
    (fun i _ ->
      Quorum.Rpc.serve rpc ~addr:i (fun ~src ~ctx:_ msg -> handle t i ~src msg))
    bricks;
  t

let members t = List.init t.n Fun.id

let quorum_call t ~coord msg =
  Quorum.Rpc.call t.rpc ~coord:t.bricks.(coord) ~members:(members t)
    ~quorum:t.majority (fun _ -> msg)

(* Phase 1 of both operations: the highest (tag, value) pair a majority
   has seen. The clock observes the tags so a subsequent Put always
   proposes a strictly larger tag. *)
let max_tag replies =
  List.fold_left
    (fun acc (_, reply) ->
      match reply with
      | Get_tag_r { ts } -> Ts.max acc ts
      | Get_r { ts; _ } -> Ts.max acc ts
      | _ -> acc)
    Ts.low replies

let read t ~coord ~reg =
  let replies = quorum_call t ~coord (Get { reg }) in
  let best = max_tag replies in
  let value =
    List.find_map
      (fun (_, reply) ->
        match reply with
        | Get_r { value; ts } when Ts.equal ts best -> Some value
        | _ -> None)
      replies
  in
  match value with
  | None -> Error `Aborted  (* unreachable: some reply carries the max tag *)
  | Some value ->
      (* Phase 2: write back so the value is fixed at a majority
         before returning (this is what completes partial writes —
         plain, not strict, linearizability). *)
      let _ = quorum_call t ~coord (Put { reg; value; ts = best }) in
      Ok value

let write t ~coord ~reg value =
  if Bytes.length value <> t.block_size then
    invalid_arg "Baseline.Ls97.write: wrong block size";
  let replies = quorum_call t ~coord (Get_tag { reg }) in
  Clock.observe t.clocks.(coord) (max_tag replies);
  let ts = Clock.new_ts t.clocks.(coord) in
  let _ = quorum_call t ~coord (Put { reg; value; ts }) in
  Ok ()

let run ?horizon t = Substrate.run ?horizon t.substrate
let run_op ?horizon t f = Substrate.run_op ?horizon t.substrate f
let crash t i = Substrate.crash t.substrate t.bricks.(i)
let recover t i = Substrate.recover t.substrate t.bricks.(i) ~resync:ignore
let shutdown t = Substrate.shutdown t.substrate
let snapshot t = Metrics.Snapshot.take (metrics t)
