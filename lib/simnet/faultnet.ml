(* The one fault model for both backends: drop probability,
   partitions, directed dead links and added delay/jitter, decided once
   per message between the RPC layer and the fabric (Net's delay model
   on sim, the destination mailbox on mc).

   Concurrency contract (DESIGN 4i): the whole fault configuration is
   one immutable [state] record held in an [Atomic.t]. Senders read it
   with a single [Atomic.get] per message, so every message sees one
   internally consistent snapshot — never half of a partition plus the
   old drop rate. Mutators serialize on [wlock] (read-modify-write,
   then [Atomic.set]); they are cheap and rare (nemesis events), while
   the send path stays lock-free.

   Verdict counters are plain atomics; chaos tests assert on them
   (faults actually injected, heals actually heal). *)

type state = {
  drop : float;  (* independent per-message drop probability *)
  delay : float;  (* added one-way delay, in runtime time units *)
  jitter : float;  (* extra delay drawn uniformly from [0, jitter) *)
  groups : int array option;  (* partition group per address *)
  downed : (int * int) list;  (* directed dead links (src, dst) *)
}

type verdict =
  | Deliver
  | Dropped  (* random loss *)
  | Cut  (* partition or dead link *)
  | Delay of float  (* deliver after this much extra time *)

type stats = { delivered : int; dropped : int; cut : int; delayed : int }

type t = {
  n : int;
  st : state Atomic.t;
  wlock : Mutex.t;
  salt : int Atomic.t;
  delivered : int Atomic.t;
  dropped : int Atomic.t;
  cut : int Atomic.t;
  delayed : int Atomic.t;
}

let healthy = { drop = 0.; delay = 0.; jitter = 0.; groups = None; downed = [] }

(* Lock-free uniform sampler: a counter stepped by a fetch-and-add and
   scrambled through a splitmix-style finalizer. Not the engine's rng
   on purpose: fault draws never perturb the stream fault-free code
   samples, and on mc they run on whatever domain sends (including
   retransmissions fired by a worker's timers). Single-threaded sim runs draw the
   same sequence for the same seed. *)
let mix x =
  let x = x lxor (x lsr 29) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 32) in
  let x = x * 0x27BB2EE687B0B0FD in
  x lxor (x lsr 31)

let create ~seed ~n =
  if n <= 0 then invalid_arg "Simnet.Faultnet.create: n <= 0";
  {
    n;
    st = Atomic.make healthy;
    wlock = Mutex.create ();
    salt = Atomic.make (mix seed);
    delivered = Atomic.make 0;
    dropped = Atomic.make 0;
    cut = Atomic.make 0;
    delayed = Atomic.make 0;
  }

let uniform t =
  let x = mix (Atomic.fetch_and_add t.salt 0x9E3779B9) in
  float_of_int (x land ((1 lsl 30) - 1)) /. 1073741824.

let check_addr t a =
  if a < 0 || a >= t.n then invalid_arg "Simnet.Faultnet: address out of range"

(* Serialized read-modify-write of the snapshot. *)
let update t f =
  Mutex.lock t.wlock;
  Atomic.set t.st (f (Atomic.get t.st));
  Mutex.unlock t.wlock

let set_drop t p =
  if p < 0. || p >= 1. then
    invalid_arg "Simnet.Faultnet.set_drop: need 0 <= p < 1 for fair loss";
  update t (fun st -> { st with drop = p })

let set_delay t ~delay ~jitter =
  if delay < 0. || jitter < 0. then
    invalid_arg "Simnet.Faultnet.set_delay: negative delay";
  update t (fun st -> { st with delay; jitter })

let partition t groups_l =
  let assignment = Array.make t.n (-1) in
  List.iteri
    (fun gid members ->
      List.iter
        (fun a ->
          check_addr t a;
          if assignment.(a) <> -1 then
            invalid_arg "Simnet.Faultnet.partition: address in two groups";
          assignment.(a) <- gid)
        members)
    groups_l;
  (* Unlisted addresses share one implicit group. *)
  let implicit = List.length groups_l in
  Array.iteri
    (fun a g -> if g = -1 then assignment.(a) <- implicit)
    assignment;
  update t (fun st -> { st with groups = Some assignment })

let heal t = update t (fun st -> { st with groups = None })

let set_link_down t ~src ~dst down =
  check_addr t src;
  check_addr t dst;
  update t (fun st ->
      let without = List.filter (fun l -> l <> (src, dst)) st.downed in
      { st with downed = (if down then (src, dst) :: without else without) })

(* One-shot return to health; [drop] is the nemesis's base probability. *)
let reset t ~drop =
  if drop < 0. || drop >= 1. then
    invalid_arg "Simnet.Faultnet.reset: need 0 <= drop < 1";
  update t (fun _ -> { healthy with drop })

let decide t ~src ~dst =
  let st = Atomic.get t.st in
  let cut =
    (match st.groups with
    | Some g -> g.(src) <> g.(dst)
    | None -> false)
    || (st.downed <> [] && List.mem (src, dst) st.downed)
  in
  if cut then begin
    Atomic.incr t.cut;
    Cut
  end
  else if st.drop > 0. && uniform t < st.drop then begin
    Atomic.incr t.dropped;
    Dropped
  end
  else begin
    Atomic.incr t.delivered;
    if st.delay > 0. || st.jitter > 0. then begin
      Atomic.incr t.delayed;
      Delay (st.delay +. (if st.jitter > 0. then uniform t *. st.jitter else 0.))
    end
    else Deliver
  end

let stats t =
  {
    delivered = Atomic.get t.delivered;
    dropped = Atomic.get t.dropped;
    cut = Atomic.get t.cut;
    delayed = Atomic.get t.delayed;
  }

let snapshot t = Atomic.get t.st
