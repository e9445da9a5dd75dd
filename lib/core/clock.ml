(* A tick is 10^-6 of a runtime time unit: 1 us on mc (seconds), 10^-6
   delta on sim. *)
let ticks_per_unit = 1e6

type t = {
  pid : int;
  now : unit -> float;
  skew : float Atomic.t;
  last : int Atomic.t;
}

let create ~now ~pid =
  { pid; now; skew = Atomic.make 0.; last = Atomic.make 0 }

(* [last] is shared by every task of the coordinator, and on mc those
   run on any domain: the CAS makes each returned time distinct and
   strictly above every earlier one, whichever domain minted it. *)
let new_ts t =
  let wall =
    int_of_float
      (Float.max 0.
         (Float.floor ((t.now () +. Atomic.get t.skew) *. ticks_per_unit)))
  in
  let rec bump () =
    let last = Atomic.get t.last in
    let time = Stdlib.max wall (last + 1) in
    if Atomic.compare_and_set t.last last time then time else bump ()
  in
  Timestamp.make ~time:(bump ()) ~pid:t.pid

let observe t = function
  | Timestamp.Ts { time; _ } ->
      let rec raise_to () =
        let last = Atomic.get t.last in
        if time > last && not (Atomic.compare_and_set t.last last time) then
          raise_to ()
      in
      raise_to ()
  | Timestamp.Low | Timestamp.High -> ()

let set_skew t skew = Atomic.set t.skew skew
let skew t = Atomic.get t.skew
