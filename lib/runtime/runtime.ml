(* The runtime abstraction the protocol layers program against.

   A backend provides time and a scheduler for tasks; the task
   machinery itself -- the Suspend/Yield effects, the one-shot gate,
   and every blocking structure built on it (sleep, ivars, mailboxes,
   the scatter-gather join) -- is defined here, once. Two backends
   exist: Runtime_sim wraps the deterministic discrete-event engine
   (lib/dessim) and is the reproducible oracle; Runtime_mc runs tasks
   on OCaml 5 domains against the real clock. They differ only in the
   effect handler they install (see [Task]).

   Contract: on the sim backend everything runs in one thread; on mc
   gates, mailboxes and ivars are safe from any domain. On both, tasks
   are fibers that block only through this module (gate, sleep, ivar,
   mailbox, all, yield): a raw condvar wait, a busy-wait or a mutex
   held across a suspension stalls a whole mc domain. *)

exception Cancelled
(* Raised inside a task whose pending suspension was cancelled (a
   coordinator crash tearing down its quorum calls). *)

(* Assertion mode: FAB_RUNTIME_DEBUG=1 turns on mailbox and gate
   invariant checks on every operation (used by @parallel-smoke). *)
let debug =
  match Sys.getenv_opt "FAB_RUNTIME_DEBUG" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

type gate = {
  await : unit -> unit;
  open_ : unit -> unit;
  abort : unit -> unit;
  live : unit -> bool;
}

type timer = { tcancel : unit -> unit }

type t = {
  name : string;  (* "sim" | "mc" *)
  now : unit -> float;
  rng : unit -> Random.State.t;
  spawn : (unit -> unit) -> unit;
  timer : delay:float -> (unit -> unit) -> timer;
  gate : unit -> gate;
}

(* Tasks are effect-handler fibers. A task blocks by performing
   [Suspend] on a gate's state: the backend's handler registers the
   captured continuation as a waiter, and whoever settles the gate
   hands it back to the backend's [resume] (sim: continue it inline,
   inside the opener; mc: push it to its home worker's run queue).
   [Yield] hands the continuation to [requeue] (sim: a 0-delay engine
   event; mc: the back of the worker's queue). A thread outside any
   task has no handler, so its [Suspend] raises [Effect.Unhandled]:
   on mc it then waits on a condvar of its own, on sim (one thread,
   nobody left to open the gate) the await fails. *)
module Task = struct
  type k = (unit, unit) Effect.Deep.continuation
  type sched = { resume : k -> bool -> unit; requeue : k -> unit }
  type waiter = Task of sched * k | Thread of Mutex.t * Condition.t

  (* One atomic per gate: opening and aborting race by CAS, and the
     waiters registered before the winning CAS are woken by it. More
     than one task may wait (mc Cluster.recover parks two on one exit
     gate); they wake most recent first. *)
  type state = Empty of waiter list | Opened | Aborted

  type _ Effect.t +=
    | Suspend : state Atomic.t -> unit Effect.t
    | Yield : unit Effect.t

  let continue k opened =
    if opened then Effect.Deep.continue k ()
    else Effect.Deep.discontinue k Cancelled

  let wake final = function
    | Task (s, k) -> s.resume k (final == Opened)
    | Thread (m, c) -> Mutex.protect m (fun () -> Condition.broadcast c)

  (* Register [w], or wake it at once if the gate settled first. *)
  let rec add_waiter st w =
    match Atomic.get st with
    | Empty ws as s ->
        if not (Atomic.compare_and_set st s (Empty (w :: ws))) then
          add_waiter st w
    | (Opened | Aborted) as final -> wake final w

  let rec settle st final =
    match Atomic.get st with
    | Empty ws as s ->
        if Atomic.compare_and_set st s final then List.iter (wake final) ws
        else settle st final
    | Opened | Aborted -> ()

  let settled st = match Atomic.get st with Empty _ -> false | _ -> true

  let await ~threads st =
    match Atomic.get st with
    | Opened -> ()
    | Aborted -> raise Cancelled
    | Empty _ -> (
        match Effect.perform (Suspend st) with
        | () -> ()
        | exception Effect.Unhandled _ ->
            if not threads then
              invalid_arg "Runtime: gate awaited outside a task";
            let m = Mutex.create () and c = Condition.create () in
            add_waiter st (Thread (m, c));
            Mutex.protect m (fun () ->
                while not (settled st) do Condition.wait c m done);
            if Atomic.get st == Aborted then raise Cancelled)

  let gate ~threads () =
    let st = Atomic.make (Empty []) in
    {
      await = (fun () -> await ~threads st);
      open_ = (fun () -> settle st Opened);
      abort = (fun () -> settle st Aborted);
      live = (fun () -> not (settled st));
    }

  let handler s ~retc ~exnc =
    {
      Effect.Deep.retc;
      exnc;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend st ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  add_waiter st (Task (s, k)))
          | Yield -> Some (fun k -> s.requeue k)
          | _ -> None);
    }
end

(* The timer queue both backends run on: a binary min-heap on
   (due time, arm order) in which every entry records its index, so a
   removal takes the entry out at once -- the last entry fills the
   hole and sifts whichever way restores the order. The queue holds
   only pending entries, so its length is the live count and its top
   is always a live deadline. An entry that leaves drops its callback,
   so what the callback captures (a quorum call's pending state) is
   not kept alive by a handle the caller still holds. Not
   synchronized: the sim engine is one thread, and each mc worker
   guards its queue with its run-queue lock. *)
module Timerq = struct
  type entry = {
    at : float;
    seq : int;  (* arm order: breaks ties between equal [at]s *)
    mutable idx : int;  (* heap position while pending, else -1 *)
    mutable fn : unit -> unit;
  }

  type t = {
    mutable heap : entry array;
    mutable len : int;
    mutable armed : int;  (* entries ever added: the next [seq] *)
  }

  let vacant = { at = infinity; seq = max_int; idx = -1; fn = ignore }
  let create () = { heap = Array.make 64 vacant; len = 0; armed = 0 }
  let length q = q.len
  let next_at q = if q.len = 0 then infinity else q.heap.(0).at
  let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let place q i e =
    q.heap.(i) <- e;
    e.idx <- i

  let rec sift_up q i e =
    let parent = (i - 1) / 2 in
    if i > 0 && before e q.heap.(parent) then begin
      place q i q.heap.(parent);
      sift_up q parent e
    end
    else place q i e

  let rec sift_down q i e =
    let l = (2 * i) + 1 in
    if l >= q.len then place q i e
    else
      let c =
        if l + 1 < q.len && before q.heap.(l + 1) q.heap.(l) then l + 1 else l
      in
      if before q.heap.(c) e then begin
        place q i q.heap.(c);
        sift_down q c e
      end
      else place q i e

  let add q ~at fn =
    if Float.is_nan at then invalid_arg "Runtime.Timerq.add: NaN time";
    if q.len = Array.length q.heap then begin
      let bigger = Array.make (2 * q.len) vacant in
      Array.blit q.heap 0 bigger 0 q.len;
      q.heap <- bigger
    end;
    let e = { at; seq = q.armed; idx = -1; fn } in
    q.armed <- q.armed + 1;
    q.len <- q.len + 1;
    sift_up q (q.len - 1) e;
    e

  (* Unlink a pending entry and drop its callback. *)
  let unlink q e =
    let i = e.idx in
    e.idx <- -1;
    q.len <- q.len - 1;
    let last = q.heap.(q.len) in
    q.heap.(q.len) <- vacant;
    (if i < q.len then
       if i > 0 && before last q.heap.((i - 1) / 2) then sift_up q i last
       else sift_down q i last);
    e.fn <- ignore

  let remove q e =
    e.idx >= 0
    && begin
         unlink q e;
         true
       end

  let take q e =
    if e.idx < 0 then invalid_arg "Runtime.Timerq.take: entry not pending";
    let fn = e.fn in
    unlink q e;
    fn

  let pop q = if q.len = 0 then None else Some (take q q.heap.(0))

  (* The entries due at [next_at] form a subtree at the root: an entry
     due later has no earlier descendant. *)
  let simultaneous q =
    let rec collect i acc =
      if i >= q.len || q.heap.(i).at <> q.heap.(0).at then acc
      else collect ((2 * i) + 2) (collect ((2 * i) + 1) (q.heap.(i) :: acc))
    in
    List.sort (fun a b -> Int.compare a.seq b.seq) (collect 0 [])
end

let name t = t.name
let now t = t.now ()
let rng t = t.rng ()
let spawn t f = t.spawn f
let timer t ~delay f = t.timer ~delay f
let cancel (tm : timer) = tm.tcancel ()

(* Outside a task there is no peer to run: return at once. *)
let yield (_ : t) =
  try Effect.perform Task.Yield with Effect.Unhandled _ -> ()

let sleep t delay =
  let g = t.gate () in
  ignore (t.timer ~delay (fun () -> g.open_ ()));
  g.await ()

(* One-shot write-once cell: the quorum call's "waiting for replies"
   state. The filler writes the value before opening the gate, and the
   gate's own synchronization publishes it to the awaiter. *)
module Ivar = struct
  type nonrec 'a t = { g : gate; mutable v : 'a option }

  let create rt = { g = rt.gate (); v = None }

  let fill iv v =
    (match iv.v with None -> iv.v <- Some v | Some _ -> ());
    iv.g.open_ ()

  let abort iv = iv.g.abort ()

  let await iv =
    iv.g.await ();
    match iv.v with Some v -> v | None -> raise Cancelled

  let is_live iv = iv.g.live ()
end

(* Multi-producer single-consumer mailbox with batched drain
   (DESIGN 4h). Senders append to per-sender segments — striped by the
   sending domain, so concurrent senders take disjoint, uncontended
   locks — and the receiver moves whole segments into its private
   FIFO batch with O(1) [Queue.transfer]s: N queued messages cost N/batch
   lock round-trips on the receive side instead of N, and the drained
   batch is popped with no synchronization at all (single consumer).
   FIFO per sender holds because a sender task stays on one domain,
   hence always appends to the same segment queue, and transfers
   preserve segment order. Cross-sender order is unspecified.

   A receiver that finds everything empty parks on a gate and is woken
   by the first send that observes a waiter ([nwaiters] lets the send
   fast path skip the waiter lock entirely). Wake-ups may be spurious
   but are never lost: the waiter is published before the final
   locked sweep, so a sender either sees the waiter count or its
   message is seen by that sweep (the segment mutex orders the two).
   Closing wakes every blocked receiver with [None] — that is how the
   mc transport's per-brick receive loops are told to exit; messages
   already queued at close remain receivable.

   At most one task may block in [recv] at a time (the mc transport
   runs one receive loop per mailbox); senders are unrestricted. *)
module Mailbox = struct
  type waiter = { wg : gate }
  type 'a seg = { sq_lock : Mutex.t; sq : 'a Queue.t }

  let nsegs = 8 (* power of two; sender stripe = domain id land mask *)

  type nonrec 'a t = {
    rt : t;
    segs : 'a seg array;
    drained : 'a Queue.t;  (* receiver-private FIFO batch *)
    lock : Mutex.t;  (* guards waiters *)
    mutable waiters : waiter list;  (* oldest first *)
    nwaiters : int Atomic.t;  (* = List.length waiters *)
    closed : bool Atomic.t;
    batches : int Atomic.t;  (* non-empty segment transfers *)
    batched : int Atomic.t;  (* messages moved by those transfers *)
  }

  let create rt =
    {
      rt;
      segs =
        Array.init nsegs (fun _ ->
            { sq_lock = Mutex.create (); sq = Queue.create () });
      drained = Queue.create ();
      lock = Mutex.create ();
      waiters = [];
      nwaiters = Atomic.make 0;
      closed = Atomic.make false;
      batches = Atomic.make 0;
      batched = Atomic.make 0;
    }

  (* Debug invariant, checked under the waiter lock. *)
  let check t =
    if debug then assert (Atomic.get t.nwaiters = List.length t.waiters)

  let send t v =
    if Atomic.get t.closed then false
    else begin
      let seg = t.segs.((Domain.self () :> int) land (nsegs - 1)) in
      Mutex.lock seg.sq_lock;
      (* Checked again under the segment lock: a receiver that has seen
         the close sweeps every segment under its lock, so a message is
         either pushed before that sweep reaches this segment or not
         pushed at all, never left behind the receiver's [None]. *)
      let accepted = not (Atomic.get t.closed) in
      if accepted then Queue.push v seg.sq;
      Mutex.unlock seg.sq_lock;
      (* Fast path: no parked receiver, no waiter lock. *)
      if accepted && Atomic.get t.nwaiters > 0 then begin
        Mutex.lock t.lock;
        let w =
          match t.waiters with
          | w :: rest ->
              t.waiters <- rest;
              Atomic.decr t.nwaiters;
              Some w
          | [] -> None
        in
        check t;
        Mutex.unlock t.lock;
        match w with Some w -> w.wg.open_ () | None -> ()
      end;
      accepted
    end

  let transfer_seg t seg =
    let n = Queue.length seg.sq in
    if n > 0 then begin
      Queue.transfer seg.sq t.drained;
      Atomic.incr t.batches;
      ignore (Atomic.fetch_and_add t.batched n)
    end

  (* Opportunistic sweep: peek each segment without its lock (a racy
     read that may miss a message in flight) and transfer the visibly
     non-empty ones. Only an optimization — correctness rests on
     [sweep_locked]. Receiver-only. *)
  let sweep_fast t =
    Array.iter
      (fun seg ->
        if not (Queue.is_empty seg.sq) then begin
          Mutex.lock seg.sq_lock;
          transfer_seg t seg;
          Mutex.unlock seg.sq_lock
        end)
      t.segs

  (* Authoritative sweep: takes every segment lock, so it observes any
     message whose send completed before this sweep reached its
     segment — the ordering the parking protocol relies on. *)
  let sweep_locked t =
    Array.iter
      (fun seg ->
        Mutex.lock seg.sq_lock;
        transfer_seg t seg;
        Mutex.unlock seg.sq_lock)
      t.segs

  let unregister t w =
    Mutex.lock t.lock;
    if List.memq w t.waiters then begin
      t.waiters <- List.filter (fun x -> x != w) t.waiters;
      Atomic.decr t.nwaiters
    end;
    check t;
    Mutex.unlock t.lock

  (* Before paying for a park (a fresh gate, waiter bookkeeping, and
     a suspend plus resume), yield and re-sweep this many times: in
     request/reply ping-pong a same-domain sender usually runs within
     one yield, which saves the fiber switch of a park. The runtime's
     own [yield] keeps mailbox semantics identical on both backends. *)
  let spin_budget = 2

  let recv ?timeout t =
    let deadline =
      match timeout with None -> None | Some d -> Some (t.rt.now () +. d)
    in
    let rec loop spins =
      match Queue.pop t.drained with
      | v -> Some v (* hot path: no lock, no atomics *)
      | exception Queue.Empty ->
          sweep_fast t;
          if not (Queue.is_empty t.drained) then loop spins
          else if Atomic.get t.closed then begin
            (* Drain stragglers queued before (or racing) the close. *)
            sweep_locked t;
            if Queue.is_empty t.drained then None else loop spins
          end
          else if
            match deadline with
            | Some dl -> t.rt.now () >= dl
            | None -> false
          then None
          else if spins > 0 then begin
            yield t.rt;
            loop (spins - 1)
          end
          else begin
            (* Publish the waiter, then re-sweep under the segment
               locks: a sender that missed the waiter count published
               its message before our sweep locked its segment — one
               of the two checks always fires. *)
            let w = { wg = t.rt.gate () } in
            Mutex.lock t.lock;
            t.waiters <- t.waiters @ [ w ];
            Atomic.incr t.nwaiters;
            check t;
            Mutex.unlock t.lock;
            sweep_locked t;
            if
              (not (Queue.is_empty t.drained)) || Atomic.get t.closed
            then begin
              (* Consume instead of parking. If a sender already took
                 the waiter, its open_ on the retired gate is a no-op. *)
              unregister t w;
              loop spin_budget
            end
            else begin
              let tm =
                match deadline with
                | None -> None
                | Some dl ->
                    (* On expiry: claim the waiter back under the lock.
                       If it is gone a sender already woke it (the
                       message wins the race, the timeout is lost). *)
                    Some
                      (t.rt.timer ~delay:(dl -. t.rt.now ()) (fun () ->
                           Mutex.lock t.lock;
                           let mine = List.memq w t.waiters in
                           if mine then begin
                             t.waiters <-
                               List.filter (fun x -> x != w) t.waiters;
                             Atomic.decr t.nwaiters
                           end;
                           Mutex.unlock t.lock;
                           if mine then w.wg.open_ ()))
              in
              w.wg.await ();
              (match tm with Some tm -> tm.tcancel () | None -> ());
              unregister t w;
              loop spin_budget
            end
          end
    in
    loop spin_budget

  let close t =
    Atomic.set t.closed true;
    Mutex.lock t.lock;
    let ws = t.waiters in
    t.waiters <- [];
    Atomic.set t.nwaiters 0;
    Mutex.unlock t.lock;
    List.iter (fun w -> w.wg.open_ ()) ws

  let is_closed t = Atomic.get t.closed

  (* Segment queues are counted under their locks; [drained] is read
     without one (it belongs to the receiver), so with a receive loop
     in flight this is approximate — tests call it quiesced. *)
  let length t =
    let n =
      Array.fold_left
        (fun acc seg ->
          Mutex.lock seg.sq_lock;
          let k = Queue.length seg.sq in
          Mutex.unlock seg.sq_lock;
          acc + k)
        0 t.segs
    in
    n + Queue.length t.drained

  let drain_stats t = (Atomic.get t.batches, Atomic.get t.batched)
end

(* Scatter-gather join. The next index is taken under the lock and
   its child spawned at once, so launch order is input order and, on
   sim (where spawn runs the child inline to its first suspension),
   each thunk starts exactly when the previous one suspended or
   finished. A finishing child frees one slot and refills it. The
   first cancelled or failed child stops further launches; the gate
   opens when the last launched child settles, and the parent then
   re-raises Cancelled, else the first other exception. *)
let all t ?(window = max_int) thunks =
  if window < 1 then invalid_arg "Runtime.all: window < 1";
  match thunks with
  | [] -> []
  | _ ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      let results = Array.make n None in
      let lock = Mutex.create () in
      let g = t.gate () in
      let cancelled = ref false and failed = ref None in
      let active = ref 0 and next = ref 0 in
      let take () =
        Mutex.protect lock (fun () ->
            if
              !active < window && !next < n && (not !cancelled)
              && !failed = None
            then begin
              let i = !next in
              incr next;
              incr active;
              Some i
            end
            else None)
      in
      let rec launch () =
        match take () with
        | Some i ->
            t.spawn (fun () -> child i);
            launch ()
        | None -> ()
      and child i =
        let outcome =
          match thunks.(i) () with v -> Ok v | exception e -> Error e
        in
        let last =
          Mutex.protect lock (fun () ->
              decr active;
              (match outcome with
              | Ok v -> results.(i) <- Some v
              | Error Cancelled -> cancelled := true
              | Error e -> if !failed = None then failed := Some e);
              !active = 0 && (!cancelled || !failed <> None || !next >= n))
        in
        if last then g.open_ () else launch ()
      in
      launch ();
      g.await ();
      if !cancelled then raise Cancelled;
      Option.iter raise !failed;
      Array.to_list (Array.map Option.get results)
