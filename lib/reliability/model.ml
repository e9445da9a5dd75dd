type brick_kind = R0 | R5 | Reliable_r5

type scheme = Striping | Replication of int | Erasure of int * int

let check_scheme = function
  | Striping -> ()
  | Replication k ->
      if k < 1 then invalid_arg "Reliability.Model: replication k < 1"
  | Erasure (m, n) ->
      if m < 1 || n <= m then invalid_arg "Reliability.Model: bad (m, n)"

let cross_overhead s =
  check_scheme s;
  match s with
  | Striping -> 1.
  | Replication k -> float_of_int k
  | Erasure (m, n) -> float_of_int n /. float_of_int m

let internal_overhead (p : Params.t) = function
  | R0 -> 1.
  | R5 | Reliable_r5 ->
      float_of_int p.Params.raid_group_size
      /. float_of_int (p.Params.raid_group_size - 1)

let storage_overhead p s k = cross_overhead s *. internal_overhead p k

(* Terminal data-loss rate of a single brick. An R0 brick dies with its
   first disk; an R5 brick dies when a RAID group loses a second disk
   before rebuilding, or when its chassis dies. *)
let brick_terminal_rate (p : Params.t) kind =
  let disk_mttf, chassis_mttf =
    match kind with
    | R0 | R5 -> (p.Params.disk_mttf_hours, p.Params.chassis_mttf_hours)
    | Reliable_r5 ->
        (p.Params.highend_disk_mttf_hours, p.Params.highend_chassis_mttf_hours)
  in
  let disk_rate = 1. /. disk_mttf in
  let chassis_rate = 1. /. chassis_mttf in
  match kind with
  | R0 -> (float_of_int p.Params.disks_per_brick *. disk_rate) +. chassis_rate
  | R5 | Reliable_r5 ->
      let g = p.Params.raid_group_size in
      let groups = p.Params.disks_per_brick / g in
      let group_loss_rate =
        1.
        /. Markov.mttdl ~units:g ~tolerated:1 ~lambda:disk_rate
             ~mu:(1. /. p.Params.disk_rebuild_hours)
      in
      (float_of_int (max 1 groups) *. group_loss_rate) +. chassis_rate

let brick_usable_tb p kind =
  Params.brick_raw_capacity_tb p /. internal_overhead p kind

let bricks_needed p s kind ~logical_tb =
  if logical_tb <= 0. then invalid_arg "Reliability.Model: capacity <= 0";
  let raw_needed = logical_tb *. cross_overhead s in
  int_of_float (ceil (raw_needed /. brick_usable_tb p kind))

let tolerated s =
  check_scheme s;
  match s with
  | Striping -> 0
  | Replication k -> k - 1
  | Erasure (m, n) -> n - m

let hours_per_year = 24. *. 365.25

(* ln C(n, k), computed in log space so subset counts never overflow. *)
let ln_choose n k =
  if k < 0 || k > n then neg_infinity
  else begin
    let lnfact x =
      let acc = ref 0. in
      for i = 2 to x do
        acc := !acc +. log (float_of_int i)
      done;
      !acc
    in
    lnfact n -. lnfact k -. lnfact (n - k)
  end

(* Fraction of (t+1)-subsets of the bricks whose simultaneous failure
   actually loses data. With group-granular placement, each of the G
   segment groups occupies one n-subset and exposes C(n, t+1) fatal
   (t+1)-subsets; replication (n = t+1) exposes exactly one per group,
   which is why figure 2 ranks k-way replication above E.C. with equal
   fault-tolerance. Once G C(n,t+1) reaches C(N,t+1) every combination
   is fatal and the fraction saturates at 1. *)
let fatal_fraction p s ~n_bricks ~logical_tb =
  let t = tolerated s in
  if t = 0 then 1.
  else
    let n_per_group =
      match s with
      | Striping -> 1
      | Replication k -> k
      | Erasure (_, n) -> n
    in
    let m_per_group = match s with Erasure (m, _) -> m | _ -> 1 in
    let group_logical_gb = float_of_int m_per_group *. p.Params.segment_gb in
    let groups = logical_tb *. 1024. /. group_logical_gb in
    let ln_fatal =
      log groups +. ln_choose n_per_group (t + 1)
    in
    let ln_total = ln_choose n_bricks (t + 1) in
    if ln_fatal >= ln_total then 1. else exp (ln_fatal -. ln_total)

let mttdl_years p s kind ~logical_tb =
  let t = tolerated s in
  let n_bricks = max (t + 1) (bricks_needed p s kind ~logical_tb) in
  let lambda = brick_terminal_rate p kind in
  let mu = 1. /. p.Params.brick_repair_hours in
  let base = Markov.mttdl ~units:n_bricks ~tolerated:t ~lambda ~mu in
  let frac = fatal_fraction p s ~n_bricks ~logical_tb in
  base /. frac /. hours_per_year
