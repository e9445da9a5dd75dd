type policy = {
  codec : Erasure.Codec.t;
  mq : Quorum.Mquorum.t;
  members : Simnet.Net.addr array;
}

let make_policy ~codec ~mq ~members =
  if Erasure.Codec.m codec <> Quorum.Mquorum.m mq then
    invalid_arg "Core.Config: codec m and quorum m disagree";
  if Erasure.Codec.n codec <> Quorum.Mquorum.n mq then
    invalid_arg "Core.Config: codec n and quorum n disagree";
  if Array.length members <> Erasure.Codec.n codec then
    invalid_arg "Core.Config: member count and codec n disagree";
  { codec; mq; members }

type t = {
  policy_of : int -> policy;
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

let create ~policy_of ~block_size ~runtime ~rpc ~metrics
    ?(obs = Obs.create ()) ?(gc_enabled = true) ?(optimized_modify = false)
    ?deadline ?(unsafe_skip_order = false) () =
  if block_size <= 0 then invalid_arg "Core.Config: block_size <= 0";
  (match deadline with
  | Some d when not (d > 0.) ->
      invalid_arg "Core.Config: deadline must be > 0"
  | Some _ | None -> ());
  {
    policy_of;
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

let policy t ~stripe = t.policy_of stripe
let codec t ~stripe = (policy t ~stripe).codec
let m t ~stripe = Erasure.Codec.m (codec t ~stripe)
let n t ~stripe = Erasure.Codec.n (codec t ~stripe)
let quorum_size t ~stripe = Quorum.Mquorum.quorum_size (policy t ~stripe).mq
let fault_bound t ~stripe = Quorum.Mquorum.f (policy t ~stripe).mq
let members_array t ~stripe = (policy t ~stripe).members
let members t ~stripe = Array.to_list (members_array t ~stripe)

let pos_of_addr t ~stripe addr =
  let arr = members_array t ~stripe in
  let rec find i =
    if i >= Array.length arr then None
    else if arr.(i) = addr then Some i
    else find (i + 1)
  in
  find 0
