(* A clock, a seeded rng, an optional chooser and an optional observer
   over the runtime's timer queue. The queue orders events by
   (time, scheduling order), so same-instant events fire in scheduling
   order, which keeps runs deterministic; a cancel takes the event out
   at once. *)

module Q = Runtime.Timerq

type t = {
  mutable clock : float;
  q : Q.t;
  rng : Random.State.t;
  mutable chooser : (int -> int) option;
  mutable observer : (now:float -> pending:int -> unit) option;
}

type timer = Q.entry

let create ?(seed = 42) () =
  {
    clock = 0.0;
    q = Q.create ();
    rng = Random.State.make [| seed |];
    chooser = None;
    observer = None;
  }

let now t = t.clock
let rng t = t.rng
let pending t = Q.length t.q

let schedule t ~delay action =
  if delay < 0.0 then invalid_arg "Dessim.Engine.schedule: negative delay";
  Q.add t.q ~at:(t.clock +. delay) action

let cancel t ev = ignore (Q.remove t.q ev)
let set_chooser t chooser = t.chooser <- chooser

(* Fire [ev], one of the entries due at the queue's earliest instant. *)
let fire t ev =
  t.clock <- Q.next_at t.q;
  (Q.take t.q ev) ();
  true

let step_inner t =
  match t.chooser with
  | Some choose -> (
      match Q.simultaneous t.q with
      | [] -> false
      | [ ev ] -> fire t ev
      | batch ->
          let k = List.length batch in
          let idx = choose k in
          if idx < 0 || idx >= k then
            invalid_arg "Dessim.Engine: chooser index out of range";
          fire t (List.nth batch idx))
  | None -> (
      let at = Q.next_at t.q in
      match Q.pop t.q with
      | None -> false
      | Some action ->
          t.clock <- at;
          action ();
          true)

let set_observer t observer = t.observer <- observer

(* One branch per executed event when no observer is installed. *)
let step t =
  let progressed = step_inner t in
  (match t.observer with
  | None -> ()
  | Some f -> if progressed then f ~now:t.clock ~pending:(Q.length t.q));
  progressed

let run ?until t =
  let rec loop () =
    if Q.length t.q > 0 then
      match until with
      | Some limit when Q.next_at t.q > limit ->
          (* Leave future events queued but advance the clock to the
             horizon so that repeated bounded runs make progress. *)
          t.clock <- limit
      | _ ->
          ignore (step t);
          loop ()
  in
  loop ()
