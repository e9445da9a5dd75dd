(* The runtime abstraction the protocol layers program against.

   A backend provides time, task spawning and one-shot gates; every
   higher-level blocking structure (sleep, ivars, mailboxes, the
   scatter-gather join) is built here, once, on top of those three.
   Two backends exist: Runtime_sim wraps the deterministic
   discrete-event engine (lib/dessim) and is the reproducible oracle;
   Runtime_mc runs tasks on OCaml 5 domains against the real clock.

   Contract: on the sim backend everything runs in one thread; on mc
   gates, mailboxes and ivars are safe from any domain. On both, tasks
   are fibers that block only through this module (gate, sleep, ivar,
   mailbox, all, yield): a raw condvar wait, a busy-wait or a mutex
   held across a suspension stalls a whole mc domain. *)

exception Cancelled
(* Raised inside a task whose pending suspension was cancelled (a
   coordinator crash tearing down its quorum calls). The sim backend
   rebinds Dessim.Fiber.Cancelled to this same constructor, so a
   single handler catches both worlds. *)

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
  yield : unit -> unit;
  timer : delay:float -> (unit -> unit) -> timer;
  gate : unit -> gate;
  all : 'a. int option -> (unit -> 'a) list -> 'a list;
}

let name t = t.name
let now t = t.now ()
let rng t = t.rng ()
let spawn t f = t.spawn f
let yield t = t.yield ()
let timer t ~delay f = t.timer ~delay f
let cancel (tm : timer) = tm.tcancel ()
let all t ?window thunks = t.all window thunks

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
    if not (Atomic.get t.closed) then begin
      let seg = t.segs.((Domain.self () :> int) land (nsegs - 1)) in
      Mutex.lock seg.sq_lock;
      Queue.push v seg.sq;
      Mutex.unlock seg.sq_lock;
      (* Fast path: no parked receiver, no waiter lock. *)
      if Atomic.get t.nwaiters > 0 then begin
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
      end
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
            t.rt.yield ();
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

(* Domain-local buffer pools: free lists of [Bytes.t] keyed by exact
   length, one pool per domain ([Domain.DLS]) so acquire/release never
   contend across domains. The (uncontended) mutex is for the main
   domain, whose threads (main, timer) a systhread switch can
   interleave inside a Hashtbl operation; worker fibers never do.
   A buffer released on another domain migrates to that pool.
   Contents of an acquired buffer are arbitrary. *)
module Bufpool = struct
  type cls = { mutable bufs : Bytes.t list; mutable spare : int }
  type pool = { plock : Mutex.t; classes : (int, cls) Hashtbl.t }

  let key : pool Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { plock = Mutex.create (); classes = Hashtbl.create 8 })

  (* Bound per (domain, length) class so a burst can't pin memory. *)
  let max_per_class = 64

  let acquire len =
    let p = Domain.DLS.get key in
    Mutex.lock p.plock;
    let hit =
      match Hashtbl.find_opt p.classes len with
      | Some ({ bufs = b :: rest; _ } as c) ->
          c.bufs <- rest;
          c.spare <- c.spare - 1;
          Some b
      | Some { bufs = []; _ } | None -> None
    in
    Mutex.unlock p.plock;
    match hit with Some b -> b | None -> Bytes.create len

  let release b =
    let len = Bytes.length b in
    let p = Domain.DLS.get key in
    Mutex.lock p.plock;
    (match Hashtbl.find_opt p.classes len with
    | Some c ->
        if c.spare < max_per_class then begin
          c.bufs <- b :: c.bufs;
          c.spare <- c.spare + 1
        end
    | None -> Hashtbl.replace p.classes len { bufs = [ b ]; spare = 1 });
    Mutex.unlock p.plock
end

(* Generic scatter-gather join used by the mc backend (the sim backend
   delegates to Dessim.Fiber.all, whose scheduling the dessim-path
   tests pin down byte-for-byte). Same contract: launch in input
   order, at most [window] in flight, next thunk starts as one
   settles; a cancelled child stops further launches, the rest drain,
   then Cancelled re-raises in the caller; any other child exception
   is re-raised in the caller once every child settled. *)
let all_generic rt window thunks =
  let window = match window with None -> max_int | Some w -> w in
  if window < 1 then invalid_arg "Runtime.all: window < 1";
  match thunks with
  | [] -> []
  | _ ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      let results = Array.make n None in
      let lock = Mutex.create () in
      let g = rt.gate () in
      let cancelled = ref false in
      let failed = ref None in
      let active = ref 0 in
      let next = ref 0 in
      let settled = ref false in
      let settle_locked () =
        !active = 0 && (!cancelled || !failed <> None || !next >= n)
      in
      let rec launch_ready () =
        Mutex.lock lock;
        let batch = ref [] in
        while
          !active < window && !next < n && (not !cancelled) && !failed = None
        do
          batch := !next :: !batch;
          incr next;
          incr active
        done;
        Mutex.unlock lock;
        List.iter (fun i -> rt.spawn (fun () -> child i)) (List.rev !batch)
      and child i =
        (match thunks.(i) () with
        | v ->
            Mutex.lock lock;
            results.(i) <- Some v;
            decr active;
            Mutex.unlock lock
        | exception Cancelled ->
            Mutex.lock lock;
            cancelled := true;
            decr active;
            Mutex.unlock lock
        | exception e ->
            Mutex.lock lock;
            if !failed = None then failed := Some e;
            decr active;
            Mutex.unlock lock);
        launch_ready ();
        maybe_open ()
      and maybe_open () =
        Mutex.lock lock;
        let fire = settle_locked () && not !settled in
        if fire then settled := true;
        Mutex.unlock lock;
        if fire then g.open_ ()
      in
      launch_ready ();
      maybe_open ();
      g.await ();
      if !cancelled then raise Cancelled;
      (match !failed with Some e -> raise e | None -> ());
      Array.to_list (Array.map Option.get results)
