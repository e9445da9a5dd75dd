type t = Low | Ts of { time : int; pid : int } | High

let low = Low
let high = High

let make ~time ~pid =
  if time < 0 then invalid_arg "Core.Timestamp.make: negative time";
  if pid < 0 then invalid_arg "Core.Timestamp.make: negative pid";
  Ts { time; pid }

let compare a b =
  match (a, b) with
  | Low, Low | High, High -> 0
  | Low, _ -> -1
  | _, Low -> 1
  | High, _ -> 1
  | _, High -> -1
  | Ts x, Ts y ->
      let c = Stdlib.compare x.time y.time in
      if c <> 0 then c else Stdlib.compare x.pid y.pid

let equal a b = compare a b = 0
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b

let to_string = function
  | Low -> "LowTS"
  | High -> "HighTS"
  | Ts { time; pid } -> Printf.sprintf "%d.%d" time pid
