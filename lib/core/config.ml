type policy = {
  codec : Erasure.Codec.t;
  mq : Quorum.Mquorum.t;
  members : Simnet.Net.addr array;
  member_list : Simnet.Net.addr list;
  positions : int option array;
}

(* Stripes [first, limit) use row [(stripe - first) mod rows]. *)
type range = { first : int; limit : int; rows : policy array }

type t = {
  bricks : int;
  ranges : range array Atomic.t;
  block_size : int;
  runtime : Runtime.t;
  rpc : (Message.t, Message.t) Quorum.Rpc.t;
  metrics : Metrics.Registry.t;
  obs : Obs.t;
  gc_enabled : bool;
  optimized_modify : bool;
  deadline : float option;
  unsafe_skip_order : bool;
}

let create ~bricks ~block_size ~runtime ~rpc ~metrics
    ?(obs = Obs.create ()) ?(gc_enabled = true) ?(optimized_modify = false)
    ?deadline ?(unsafe_skip_order = false) () =
  if block_size <= 0 then invalid_arg "Core.Config: block_size <= 0";
  (match deadline with
  | Some d when not (d > 0.) ->
      invalid_arg "Core.Config: deadline must be > 0"
  | Some _ | None -> ());
  {
    bricks;
    ranges = Atomic.make [||];
    block_size;
    runtime;
    rpc;
    metrics;
    obs;
    gc_enabled;
    optimized_modify;
    deadline;
    unsafe_skip_order;
  }

let default_codec ~m ~n =
  if m = 1 then Erasure.Codec.replication ~n ()
  else if n = m + 1 then Erasure.Codec.parity ~m ()
  else Erasure.Codec.rs ~m ~n ()

let row ~bricks ~codec ~mq members =
  let positions = Array.make bricks None in
  Array.iteri (fun i a -> positions.(a) <- Some i) members;
  { codec; mq; members; member_list = Array.to_list members; positions }

(* Readers on other domains see either the old array or the new one,
   never a half-built range: ranges are copied, never mutated. *)
let add_range t ?layout ~m ~n ?stripes () =
  (match stripes with
  | Some s when s <= 0 -> invalid_arg "Core.Config.add_range: stripes <= 0"
  | Some _ | None -> ());
  let codec = default_codec ~m ~n in
  let mq = Quorum.Mquorum.create ~n ~m in
  let bricks = t.bricks in
  let kind = Option.value layout ~default:(Layout.default ~bricks ~n) in
  let rows =
    Array.map (row ~bricks ~codec ~mq) (Layout.table kind ~bricks ~n ~stripes)
  in
  let rec publish () =
    let old = Atomic.get t.ranges in
    let first =
      if Array.length old = 0 then 0 else old.(Array.length old - 1).limit
    in
    if first = max_int then
      invalid_arg "Core.Config.add_range: an unbounded range holds the rest";
    let limit = match stripes with Some s -> first + s | None -> max_int in
    let ranges = Array.append old [| { first; limit; rows } |] in
    if Atomic.compare_and_set t.ranges old ranges then first else publish ()
  in
  publish ()

let rec find ranges stripe i =
  if i = Array.length ranges then
    invalid_arg (Printf.sprintf "Core.Config: stripe %d is in no range" stripe)
  else
    let r = ranges.(i) in
    if stripe >= r.first && stripe < r.limit then
      r.rows.((stripe - r.first) mod Array.length r.rows)
    else find ranges stripe (i + 1)

let policy t ~stripe = find (Atomic.get t.ranges) stripe 0
let codec t ~stripe = (policy t ~stripe).codec
let m t ~stripe = Erasure.Codec.m (codec t ~stripe)
let quorum_size t ~stripe = Quorum.Mquorum.quorum_size (policy t ~stripe).mq
let fault_bound t ~stripe = Quorum.Mquorum.f (policy t ~stripe).mq
let members_array t ~stripe = (policy t ~stripe).members
let members t ~stripe = (policy t ~stripe).member_list

let pos_of_addr t ~stripe addr = (policy t ~stripe).positions.(addr)
