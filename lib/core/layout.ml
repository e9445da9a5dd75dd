type kind = Fixed | Rotating | Random of int

(* splitmix64: a small, high-quality deterministic mixer so that the
   random layout is a pure function of (seed, stripe, position). *)
let splitmix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let shuffled_prefix ~seed ~stripe ~bricks ~n =
  let arr = Array.init bricks Fun.id in
  let state = ref (Int64.of_int ((seed * 0x1000003) lxor stripe)) in
  let next_int bound =
    state := splitmix64 !state;
    Int64.to_int (Int64.unsigned_rem !state (Int64.of_int bound))
  in
  (* Fisher-Yates over the first n slots is enough. *)
  for i = 0 to n - 1 do
    let j = i + next_int (bricks - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.sub arr 0 n

let default ~bricks ~n = if bricks = n then Fixed else Rotating

let make kind ~bricks ~n =
  if n > bricks then invalid_arg "Core.Layout.make: n > bricks";
  match kind with
  | Fixed ->
      if bricks <> n then
        invalid_arg "Core.Layout.make: Fixed needs bricks = n";
      fun _ -> Array.init n Fun.id
  | Rotating -> fun stripe -> Array.init n (fun i -> (stripe + i) mod bricks)
  | Random seed -> fun stripe -> shuffled_prefix ~seed ~stripe ~bricks ~n

let table kind ~bricks ~n ~stripes =
  let members = make kind ~bricks ~n in
  let rows =
    match (kind, stripes) with
    | Fixed, _ -> 1
    | Rotating, _ -> bricks
    | Random _, Some s -> s
    | Random _, None -> invalid_arg "Core.Layout.table: Random needs a bound"
  in
  Array.init rows members
