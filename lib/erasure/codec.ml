(* Systematic m-of-n erasure codes over GF(2^8).

   A codec is a full n x m generator matrix whose top m x m block is the
   identity. The MDS property (any m rows invertible) is guaranteed by
   construction: the parity rows form a Cauchy matrix (rs), a row of
   ones (parity, replication), and in both cases every mixed selection
   of identity and parity rows stays invertible.

   The hot paths are engineered like kernels (see DESIGN.md 4b):
   - every codec picks one Gf256.Kernel implementation at construction
     (the CPU probe's choice by default, overridable per codec) and
     precompiles its linear maps against it, so steady-state
     encode/decode never branches on kernel choice or builds a table;
   - encode applies all n - m parity rows as one fused Kernel.rows map
     per stripe, and decode memoizes its inverted submatrix as a fused
     map in a bounded LRU keyed by the sorted surviving-index set, so
     repeated degraded reads and recovery over the same survivors skip
     Gaussian elimination and table setup entirely;
   - folding a block write into parity goes through per-(parity, data)
     precompiled multipliers;
   - [encode_into]/[decode_into] write into caller-provided buffers so
     steady-state paths can reuse buffers instead of allocating per
     operation. *)

module F = Gf256.Field
module M = Gf256.Matrix
module K = Gf256.Kernel

(* A memoized decode plan: the inverse of the generator submatrix for
   one sorted set of surviving indices, precompiled as a fused kernel
   map. The single-row maps that rebuild one erased data block (one
   row of the inverse each) are compiled lazily and memoized alongside. *)
type plan = {
  p_rows : K.rows; (* m x m: survivors -> data blocks *)
  p_coeffs : int array array; (* the inverse matrix itself *)
  p_recon : K.rows option array; (* length m: survivors -> data block *)
}

type cached_plan = { plan : plan; mutable last_use : int }

type plan_cache = {
  tbl : (string, cached_plan) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  capacity : int;
  lock : Mutex.t;
      (* The cache is shared by every coordinator of a deployment; on
         the multicore backend concurrent decodes race on it. Plans
         themselves are immutable once built (the per-index recon rows
         are memoized under this same lock). *)
}

(* Big enough to hold every m-subset of common codes (C(8,5) = 56) but
   bounded so wide codes (C(14,10) = 1001 subsets) cannot pin unbounded
   memory: each plan is O(m^2) ints plus its precompiled kernel map. *)
let plan_cache_capacity = 128

type t = {
  m : int;
  n : int;
  gen : M.t;
  kernel : K.impl;
  encode_rows : K.rows; (* (n - m) x m parity map, fused *)
  delta_muls : K.mul array array; (* (n - m) x m precompiled multipliers *)
  plans : plan_cache;
}

let m t = t.m
let n t = t.n
let kernel_name t = K.name t.kernel

let coeff t ~row ~col =
  if row < 0 || row >= t.n || col < 0 || col >= t.m then
    invalid_arg "Erasure.Codec.coeff: index out of range";
  M.get t.gen row col

let systematic_generator ~m ~n parity_row =
  M.init ~rows:n ~cols:m (fun r c ->
      if r < m then if r = c then 1 else 0 else parity_row (r - m) c)

let make ?kernel ~m ~n gen =
  let kernel = K.select ?impl:kernel () in
  let parity_coeffs =
    Array.init (n - m) (fun p -> Array.init m (fun c -> M.get gen (m + p) c))
  in
  {
    m;
    n;
    gen;
    kernel;
    encode_rows = K.make_rows kernel parity_coeffs;
    delta_muls = Array.map (Array.map (K.make_mul kernel)) parity_coeffs;
    plans =
      {
        tbl = Hashtbl.create 32;
        tick = 0;
        hits = 0;
        misses = 0;
        capacity = plan_cache_capacity;
        lock = Mutex.create ();
      };
  }

let rs ?kernel ~m ~n () =
  if m < 1 || n <= m || n > 256 then
    invalid_arg "Erasure.Codec.rs: need 1 <= m < n <= 256";
  (* xs indexes parity rows, ys indexes data columns; the two index sets
     are disjoint subsets of GF(256), so the Cauchy matrix is defined. *)
  let xs = Array.init (n - m) (fun i -> m + i) in
  let ys = Array.init m (fun j -> j) in
  let c = M.cauchy ~xs ~ys in
  make ?kernel ~m ~n (systematic_generator ~m ~n (M.get c))

let parity ~m () =
  if m < 1 then invalid_arg "Erasure.Codec.parity: need m >= 1";
  let n = m + 1 in
  make ~m ~n (systematic_generator ~m ~n (fun _ _ -> 1))

let replication ~n () =
  if n < 2 then invalid_arg "Erasure.Codec.replication: need n >= 2";
  make ~m:1 ~n
    (systematic_generator ~m:1 ~n (fun _ _ -> 1))

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)
(* ------------------------------------------------------------------ *)

let check_stripe t stripe =
  if Array.length stripe <> t.m then
    invalid_arg
      (Printf.sprintf "Erasure.Codec.encode: expected %d blocks, got %d" t.m
         (Array.length stripe));
  let len = Bytes.length stripe.(0) in
  if len = 0 then invalid_arg "Erasure.Codec.encode: empty blocks";
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Erasure.Codec.encode: block size mismatch")
    stripe;
  len

let encode_into t stripe ~into =
  let len = check_stripe t stripe in
  if Array.length into <> t.n then
    invalid_arg "Erasure.Codec.encode_into: expected n output blocks";
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Erasure.Codec.encode_into: output block size mismatch")
    into;
  for i = 0 to t.m - 1 do
    (* Data slots may alias the stripe blocks themselves; skip the
       self-copy so callers can ship data blocks without duplication. *)
    if into.(i) != stripe.(i) then Bytes.blit stripe.(i) 0 into.(i) 0 len
  done;
  (* All parity rows in one fused pass over the stripe. *)
  K.apply_rows t.encode_rows ~srcs:stripe
    ~dsts:(Array.sub into t.m (t.n - t.m))

let encode t stripe =
  let len = check_stripe t stripe in
  let into =
    Array.init t.n (fun i ->
        if i < t.m then Bytes.copy stripe.(i) else Bytes.create len)
  in
  encode_into t stripe ~into;
  into

(* ------------------------------------------------------------------ *)
(* Decode plans                                                        *)
(* ------------------------------------------------------------------ *)

let check_indexed_blocks t blocks =
  if List.length blocks <> t.m then
    invalid_arg
      (Printf.sprintf "Erasure.Codec.decode: expected %d blocks, got %d" t.m
         (List.length blocks));
  let len = Bytes.length (snd (List.hd blocks)) in
  if len = 0 then invalid_arg "Erasure.Codec.decode: empty blocks";
  let seen = Array.make t.n false in
  List.iter
    (fun (idx, b) ->
      if idx < 0 || idx >= t.n then
        invalid_arg "Erasure.Codec.decode: index out of range";
      if seen.(idx) then invalid_arg "Erasure.Codec.decode: duplicate index";
      seen.(idx) <- true;
      if Bytes.length b <> len then
        invalid_arg "Erasure.Codec.decode: block size mismatch")
    blocks;
  len

let plan_key idxs = String.init (Array.length idxs) (fun i -> Char.chr idxs.(i))

let build_plan t idxs =
  let sub = M.sub_rows t.gen (Array.to_list idxs) in
  match M.invert sub with
  | None ->
      (* Impossible for our MDS constructions; defensive. *)
      invalid_arg "Erasure.Codec.decode: singular submatrix"
  | Some inv ->
      let p_coeffs =
        Array.init t.m (fun r -> Array.init t.m (fun k -> M.get inv r k))
      in
      {
        p_rows = K.make_rows t.kernel p_coeffs;
        p_coeffs;
        p_recon = Array.make t.m None;
      }

let evict_lru cache =
  let victim = ref None in
  Hashtbl.iter
    (fun key cp ->
      match !victim with
      | Some (_, lu) when lu <= cp.last_use -> ()
      | _ -> victim := Some (key, cp.last_use))
    cache.tbl;
  match !victim with
  | Some (key, _) -> Hashtbl.remove cache.tbl key
  | None -> ()

(* [idxs] must be sorted ascending (the cache key is the index set). *)
let plan_for t idxs =
  let cache = t.plans in
  Mutex.lock cache.lock;
  cache.tick <- cache.tick + 1;
  let key = plan_key idxs in
  let plan =
    match Hashtbl.find_opt cache.tbl key with
    | Some cp ->
        cache.hits <- cache.hits + 1;
        cp.last_use <- cache.tick;
        cp.plan
    | None ->
        cache.misses <- cache.misses + 1;
        let plan = build_plan t idxs in
        if Hashtbl.length cache.tbl >= cache.capacity then evict_lru cache;
        Hashtbl.replace cache.tbl key { plan; last_use = cache.tick };
        plan
  in
  Mutex.unlock cache.lock;
  plan

let reset_plan_cache t =
  Mutex.lock t.plans.lock;
  Hashtbl.reset t.plans.tbl;
  t.plans.tick <- 0;
  t.plans.hits <- 0;
  t.plans.misses <- 0;
  Mutex.unlock t.plans.lock

let plan_cache_stats t =
  Mutex.lock t.plans.lock;
  let r = (t.plans.hits, t.plans.misses, Hashtbl.length t.plans.tbl) in
  Mutex.unlock t.plans.lock;
  r

(* Sort the inputs by index so the plan key and row order are canonical
   regardless of the order blocks arrived in. *)
let sorted_inputs blocks =
  let arr = Array.of_list blocks in
  Array.sort (fun (a, _) (b, _) -> compare a b) arr;
  (Array.map fst arr, Array.map snd arr)

let decode_into t blocks ~into =
  let len = check_indexed_blocks t blocks in
  if Array.length into <> t.m then
    invalid_arg "Erasure.Codec.decode_into: expected m output blocks";
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Erasure.Codec.decode_into: output block size mismatch")
    into;
  let idxs, srcs = sorted_inputs blocks in
  let plan = plan_for t idxs in
  K.apply_rows plan.p_rows ~srcs ~dsts:into

(* ------------------------------------------------------------------ *)
(* Deltas and parity updates                                           *)
(* ------------------------------------------------------------------ *)

let delta_into ~old_data ~new_data ~into =
  let len = Bytes.length old_data in
  if Bytes.length new_data <> len || Bytes.length into <> len then
    invalid_arg "Erasure.Codec.delta_into: size mismatch";
  if into != new_data then Bytes.blit new_data 0 into 0 len;
  F.mul_slice ~dst:into ~src:old_data 1

(* Fold a range write into one parity block: c.(old + new) =
   c.old + c.new over GF(2^8), so each old block and each new block is
   multiply-accumulated straight into [parity] and no delta is built.
   Every index and size is checked before [parity] is touched. *)
let fold_into t ~parity_idx ~j0 ~olds ~news ~parity =
  if parity_idx < 0 || parity_idx >= t.n - t.m then
    invalid_arg "Erasure.Codec.fold_into: parity_idx out of range";
  let k = Array.length news in
  if Array.length olds <> k then
    invalid_arg "Erasure.Codec.fold_into: olds and news differ in length";
  if j0 < 0 || j0 + k > t.m then
    invalid_arg "Erasure.Codec.fold_into: block range out of range";
  let len = Bytes.length parity in
  for i = 0 to k - 1 do
    if Bytes.length olds.(i) <> len || Bytes.length news.(i) <> len then
      invalid_arg "Erasure.Codec.fold_into: size mismatch"
  done;
  let row = t.delta_muls.(parity_idx) in
  for i = 0 to k - 1 do
    K.mul_acc row.(j0 + i) ~dst:parity ~src:olds.(i);
    K.mul_acc row.(j0 + i) ~dst:parity ~src:news.(i)
  done

let modify t ~data_idx ~parity_idx ~old_data ~new_data ~old_parity =
  let parity = Bytes.copy old_parity in
  fold_into t ~parity_idx ~j0:data_idx ~olds:[| old_data |]
    ~news:[| new_data |] ~parity;
  parity

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)
(* ------------------------------------------------------------------ *)

(* Rebuilding erased data block [idx] from survivors is row [idx] of
   the plan's inverse; the compiled single-row map is memoized on the
   plan, so steady-state degraded reads of the same block from the
   same survivors pay no setup. *)
let recon_rows t plan ~idx =
  Mutex.lock t.plans.lock;
  let cached = plan.p_recon.(idx) in
  Mutex.unlock t.plans.lock;
  match cached with
  | Some rows -> rows
  | None ->
      let rows = K.make_rows t.kernel [| plan.p_coeffs.(idx) |] in
      Mutex.lock t.plans.lock;
      (* A racing builder produced an equivalent map; keep either. *)
      let rows =
        match plan.p_recon.(idx) with
        | Some prior -> prior
        | None ->
            plan.p_recon.(idx) <- Some rows;
            rows
      in
      Mutex.unlock t.plans.lock;
      rows

(* The code is systematic, so a surviving data block is its own
   decoding: it is returned as it is, and only an erased position gets
   a new buffer, rebuilt through its memoized reconstruction row. The
   plan is looked up either way, so the cache statistics count every
   decode. *)
let decode t blocks =
  let len = check_indexed_blocks t blocks in
  let idxs, srcs = sorted_inputs blocks in
  let plan = plan_for t idxs in
  let out = Array.make t.m None in
  Array.iteri (fun k i -> if i < t.m then out.(i) <- Some srcs.(k)) idxs;
  Array.mapi
    (fun i -> function
      | Some b -> b
      | None ->
          let d = Bytes.create len in
          K.apply_rows (recon_rows t plan ~idx:i) ~srcs ~dsts:[| d |];
          d)
    out
