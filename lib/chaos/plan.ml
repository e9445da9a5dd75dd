type fault =
  | Crash of int
  | Recover of int
  | Partition of int list list
  | Heal
  | Drop of float
  | Link_down of int * int
  | Link_up of int * int
  | Slow of float * float
  | Skew of int * float
  | Torn_crash of int
  | Bit_rot of int * int
  | Sector_error of int * int

type event = { at : float; fault : fault }
type t = { name : string; horizon : float; events : event list }

let sort_events evs =
  List.stable_sort (fun a b -> Float.compare a.at b.at) evs

let make ~name ~horizon events =
  if not (horizon > 0.) then
    invalid_arg "Chaos.Plan.make: horizon must be > 0";
  List.iter
    (fun e ->
      if not (e.at >= 0.) then
        invalid_arg "Chaos.Plan.make: event time must be >= 0";
      if e.at > horizon then
        invalid_arg "Chaos.Plan.make: event beyond horizon")
    events;
  { name; horizon; events = sort_events events }

(* %g prints floats compactly and round-trips every value we generate
   (times are written as decimal literals in plan files). *)
let fl = Printf.sprintf "%g"

let fault_label = function
  | Crash i -> Printf.sprintf "crash %d" i
  | Recover i -> Printf.sprintf "recover %d" i
  | Partition groups ->
      Printf.sprintf "partition %s"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "," (List.map string_of_int g))
              groups))
  | Heal -> "heal"
  | Drop p -> Printf.sprintf "drop %s" (fl p)
  | Link_down (s, d) -> Printf.sprintf "link-down %d %d" s d
  | Link_up (s, d) -> Printf.sprintf "link-up %d %d" s d
  | Slow (d, j) -> Printf.sprintf "slow %s %s" (fl d) (fl j)
  | Skew (i, f) -> Printf.sprintf "skew %d %s" i (fl f)
  | Torn_crash i -> Printf.sprintf "torn-crash %d" i
  | Bit_rot (b, s) -> Printf.sprintf "bit-rot %d %d" b s
  | Sector_error (b, s) -> Printf.sprintf "sector-error %d %d" b s

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "name %s\n" t.name);
  Buffer.add_string buf (Printf.sprintf "horizon %s\n" (fl t.horizon));
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "at %s %s\n" (fl e.at) (fault_label e.fault)))
    t.events;
  Buffer.contents buf

let parse_groups s =
  List.map
    (fun g ->
      List.map int_of_string
        (String.split_on_char ',' g |> List.filter (fun x -> x <> "")))
    (String.split_on_char '|' s)

let parse_fault = function
  | [ "crash"; i ] -> Crash (int_of_string i)
  | [ "recover"; i ] -> Recover (int_of_string i)
  | [ "partition"; g ] -> Partition (parse_groups g)
  | [ "heal" ] -> Heal
  | [ "drop"; p ] -> Drop (float_of_string p)
  | [ "link-down"; s; d ] -> Link_down (int_of_string s, int_of_string d)
  | [ "link-up"; s; d ] -> Link_up (int_of_string s, int_of_string d)
  | [ "slow"; d; j ] -> Slow (float_of_string d, float_of_string j)
  | [ "skew"; i; f ] -> Skew (int_of_string i, float_of_string f)
  | [ "torn-crash"; i ] -> Torn_crash (int_of_string i)
  | [ "bit-rot"; b; s ] -> Bit_rot (int_of_string b, int_of_string s)
  | [ "sector-error"; b; s ] -> Sector_error (int_of_string b, int_of_string s)
  | _ -> failwith "unknown fault"

let of_string s =
  let name = ref "unnamed" and horizon = ref None and events = ref [] in
  let err lineno line msg =
    Error (Printf.sprintf "plan line %d (%S): %s" lineno line msg)
  in
  let lines = String.split_on_char '\n' s in
  let rec go lineno = function
    | [] -> (
        match !horizon with
        | None -> Error "plan: missing horizon line"
        | Some horizon -> (
            match
              make ~name:!name ~horizon (List.rev !events)
            with
            | plan -> Ok plan
            | exception Invalid_argument m -> Error m))
    | line :: rest -> (
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) rest
        else
          let words =
            String.split_on_char ' ' trimmed
            |> List.filter (fun w -> w <> "")
          in
          match words with
          | "name" :: n :: [] ->
              name := n;
              go (lineno + 1) rest
          | "horizon" :: h :: [] -> (
              match float_of_string_opt h with
              | Some h ->
                  horizon := Some h;
                  go (lineno + 1) rest
              | None -> err lineno line "bad horizon")
          | "at" :: time :: fault -> (
              match float_of_string_opt time with
              | None -> err lineno line "bad event time"
              | Some at -> (
                  match parse_fault fault with
                  | fault ->
                      events := { at; fault } :: !events;
                      go (lineno + 1) rest
                  | exception _ -> err lineno line "bad fault"))
          | _ -> err lineno line "expected name/horizon/at")
  in
  go 1 lines

(* How a fault shows up on a report's fault-overlay track: faults with
   a clear undo open/close an interval keyed so begin and end match up;
   one-shot storage damage is a point. [Torn_crash] opens the same
   interval a plain crash does — the brick is down either way until its
   [Recover]. *)
let overlay_of_fault = function
  | Crash i | Torn_crash i -> `Begin (Printf.sprintf "crash b%d" i)
  | Recover i -> `End (Printf.sprintf "crash b%d" i)
  | Partition _ -> `Begin "partition"
  | Heal -> `End "partition"
  | Drop p -> if p > 0. then `Begin "drop" else `End "drop"
  | Link_down (s, d) -> `Begin (Printf.sprintf "link b%d-b%d" s d)
  | Link_up (s, d) -> `End (Printf.sprintf "link b%d-b%d" s d)
  | Slow (d, j) -> if d > 0. || j > 0. then `Begin "slow" else `End "slow"
  | Skew (i, f) ->
      if f <> 0. then `Begin (Printf.sprintf "skew b%d" i)
      else `End (Printf.sprintf "skew b%d" i)
  | Bit_rot (b, s) -> `Point (Printf.sprintf "bit-rot b%d/s%d" b s)
  | Sector_error (b, s) -> `Point (Printf.sprintf "sector-error b%d/s%d" b s)

let overlay_of_label label =
  match parse_fault (String.split_on_char ' ' label
                     |> List.filter (fun w -> w <> "")) with
  | fault -> overlay_of_fault fault
  | exception _ -> `Point label

let max_brick t =
  List.fold_left
    (fun acc e ->
      let touched =
        match e.fault with
        | Crash i | Recover i | Skew (i, _) | Torn_crash i -> [ i ]
        | Bit_rot (b, _) | Sector_error (b, _) -> [ b ]
        | Link_down (s, d) | Link_up (s, d) -> [ s; d ]
        | Partition groups -> List.concat groups
        | Heal | Drop _ | Slow _ -> []
      in
      List.fold_left max acc touched)
    (-1) t.events

(* ------------------------------------------------------------------ *)
(* Bundled plans (written for 5 bricks, >= 4 stripes).                 *)
(* ------------------------------------------------------------------ *)

let ev at fault = { at; fault }

let crash_storm =
  make ~name:"crash-storm" ~horizon:600.
    [
      ev 40. (Crash 1);
      ev 90. (Recover 1);
      ev 120. (Crash 2);
      ev 140. (Crash 3);
      (* two down: quorum lost on some stripes until 180 *)
      ev 180. (Recover 2);
      ev 220. (Recover 3);
      ev 260. (Crash 0);
      ev 310. (Recover 0);
      ev 340. (Torn_crash 4);
      ev 400. (Recover 4);
    ]

let rolling_partition =
  make ~name:"rolling-partition" ~horizon:600.
    [
      ev 50. (Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
      ev 110. Heal;
      ev 150. (Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ]);
      ev 210. Heal;
      ev 250. (Partition [ [ 0; 4 ]; [ 1; 2; 3 ] ]);
      ev 310. Heal;
      ev 350. (Drop 0.2);
      ev 450. (Drop 0.);
      ev 470. (Link_down (0, 3));
      ev 520. (Link_up (0, 3));
    ]

(* Every tear hits the same brick: a torn write revokes one durable
   copy of whatever version is newest on the victim, and a completed
   write is only guaranteed q = 4 of 5 durable copies. A later
   recovery samples a quorum of 4 bricks — it can miss one of the
   survivors — and needs to see m = 2 copies of the version to keep
   it. So a quiescent stripe tolerates exactly one distinct tear
   victim between writes: tears on two distinct bricks can leave a
   completed write with only 2 copies, of which a legitimate quorum
   sample sees just 1, and the resulting roll-back erases the write
   (a storage-loss outcome, not a protocol bug). Repeating brick 1
   exercises the torn-slog handling on every crash while staying
   inside that durability envelope. *)
let torn_writes =
  make ~name:"torn-writes" ~horizon:600.
    [
      ev 60. (Torn_crash 1);
      ev 110. (Recover 1);
      ev 170. (Torn_crash 1);
      ev 220. (Recover 1);
      ev 280. (Torn_crash 1);
      ev 340. (Recover 1);
      ev 400. (Crash 2);
      ev 450. (Recover 2);
    ]

let bit_rot =
  make ~name:"bit-rot" ~horizon:600.
    [
      ev 50. (Bit_rot (0, 0));
      ev 90. (Bit_rot (1, 1));
      ev 130. (Sector_error (2, 0));
      ev 170. (Bit_rot (3, 2));
      ev 210. (Sector_error (4, 1));
      ev 250. (Bit_rot (2, 3));
      ev 300. (Skew (1, 20.));
      ev 380. (Skew (1, 0.));
    ]

(* The canned plan for the multicore backend: crashes, a partition,
   background drop and slow links — every fault here has a faithful mc
   implementation (no storage faults), so the same text runs on both
   backends. *)
let mc_mixed =
  make ~name:"mc-mixed" ~horizon:600.
    [
      ev 30. (Drop 0.05);
      ev 60. (Crash 1);
      ev 120. (Recover 1);
      ev 160. (Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
      ev 230. Heal;
      ev 270. (Link_down (0, 3));
      ev 330. (Link_up (0, 3));
      ev 360. (Slow (2., 1.));
      ev 430. (Slow (0., 0.));
      ev 460. (Crash 3);
      ev 520. (Recover 3);
      ev 560. (Drop 0.);
    ]

let builtins =
  [
    ("crash-storm", crash_storm);
    ("rolling-partition", rolling_partition);
    ("torn-writes", torn_writes);
    ("bit-rot", bit_rot);
    ("mc-mixed", mc_mixed);
  ]

let builtin name = List.assoc name builtins

(* ------------------------------------------------------------------ *)
(* Randomized plans                                                    *)
(* ------------------------------------------------------------------ *)

(* Sequential non-overlapping fault episodes: each picks a fault with a
   clear undo, holds it for a random window, then undoes it before the
   next begins. Keeping episodes disjoint means a random plan never
   stacks a partition on top of a crashed majority, so the soak probes
   recovery paths rather than guaranteed-unavailable windows. Only
   mc-faithful faults are drawn — the same plan text replays on the sim
   backend for diagnosis. *)
let random ~rng ~bricks ~horizon =
  if bricks < 2 then invalid_arg "Chaos.Plan.random: bricks < 2";
  if not (horizon > 0.) then
    invalid_arg "Chaos.Plan.random: horizon must be > 0";
  let frand lo hi = lo +. Random.State.float rng (hi -. lo) in
  let events = ref [] in
  let t = ref (frand (horizon /. 20.) (horizon /. 10.)) in
  while !t < horizon *. 0.8 do
    let hold = frand (horizon /. 12.) (horizon /. 6.) in
    let fin = !t +. hold in
    if fin <= horizon then begin
      let begin_fault, end_fault =
        match Random.State.int rng 5 with
        | 0 ->
            let b = Random.State.int rng bricks in
            (Crash b, Recover b)
        | 1 ->
            let cut = 1 + Random.State.int rng (bricks - 1) in
            let left = List.init cut Fun.id
            and right = List.init (bricks - cut) (fun i -> cut + i) in
            (Partition [ left; right ], Heal)
        | 2 ->
            let s = Random.State.int rng bricks in
            let d = (s + 1 + Random.State.int rng (bricks - 1)) mod bricks in
            (Link_down (s, d), Link_up (s, d))
        | 3 -> (Drop (frand 0.02 0.25), Drop 0.)
        | _ -> (Slow (frand 0.5 3., frand 0. 2.), Slow (0., 0.))
      in
      events := ev fin end_fault :: ev !t begin_fault :: !events
    end;
    t := fin +. frand (horizon /. 20.) (horizon /. 10.)
  done;
  make
    ~name:(Printf.sprintf "random-%db" bricks)
    ~horizon (List.rev !events)
