(* OCaml 5 multicore backend: a pool of worker domains, each running
   its tasks as effect-handler fibers, plus one timer thread driving
   wall-clock timers off a select(2) sleep with a self-pipe wakeup.

   Scheduling model (DESIGN 4g): [spawn] places the task on a domain
   chosen round-robin (work sharing), where it runs as a fiber under
   [Runtime.Task.handler]. A blocked task (mailbox recv, gate await,
   sleep) suspends its fiber and the domain runs its next queued one;
   the gate's opener pushes it back to this queue. A message between two
   tasks of one domain costs a queue push and a [continue], with no
   OS thread switch. Within one domain fibers interleave only at
   suspension points; true parallelism equals the domain count.
   Timers live in a hashed wheel (DESIGN 4h, [add_timer]). No
   determinism and no virtual time: the sim backend remains the
   oracle, this one reports the hardware. *)

(* A run-queue entry: a new task, or a fiber to continue or cancel. *)
type job =
  | Start of (unit -> unit) * bool (* daemon? *)
  | Resume of Runtime.Task.k * bool

type worker = {
  wq : job Queue.t;
  wm : Mutex.t;  (* guards wq / sleeping / parks / wakeups *)
  wc : Condition.t;  (* signalled by a push that finds the worker asleep *)
  mutable sleeping : bool;
  mutable fibers : int;  (* started, not finished; owned by the domain *)
  mutable resumed : int;  (* owned by the domain *)
  mutable parks : int;
  mutable wakeups : int;
}

(* [armed] is true until the timer is cancelled or claimed for firing,
   whichever comes first; both happen under the wheel lock. A cancel
   drops [tf] at once, so whatever the callback captures (a quorum
   call's pending state) is not kept alive by the cell waiting in its
   slot. *)
type tev = {
  at : float;
  slot : int;
  mutable armed : bool;
  mutable tf : unit -> unit;
}

let wheel_slots = 256
let wheel_mask = wheel_slots - 1

let wheel_tick = 0.001
(* 1ms granularity: a timer never fires early (the sweep tests [at]
   directly), and fires at most one select(2) wakeup after it is due —
   the wheel only bounds how coarsely the sweep walks time. *)

type wheel_stats = { max_depth : int; fired : int; purged : int; wakeups : int }

type t = {
  workers : worker array;
  rr : int Atomic.t;  (* round-robin spawn cursor *)
  lock : Mutex.t;  (* guards live / stopping *)
  idle : Condition.t;  (* signalled when live returns to 0 *)
  mutable live : int;  (* non-daemon tasks queued or running *)
  mutable stopping : bool;
  tlock : Mutex.t;  (* guards the wheel and its stats *)
  slots : tev list array;  (* slot = tick land wheel_mask *)
  slot_min : float array;  (* earliest [at] per slot; infinity if none *)
  slot_depth : int array;
  slot_live : int array;  (* armed timers neither cancelled nor fired *)
  mutable last_tick : int;  (* highest tick already swept *)
  mutable sleep_until : float;  (* when the timer thread's sleep ends *)
  mutable wmax_depth : int;
  mutable wfired : int;
  mutable wpurged : int;  (* cancelled events removed without firing *)
  mutable wwakeups : int;  (* returns of the timer thread's sleep *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  t0 : float;
  mutable domains : unit Domain.t list;
  mutable timer_thread : Thread.t option;
}

let wall () = Unix.gettimeofday ()
let now t = wall () -. t.t0

let report_exn where exn =
  Printf.eprintf "runtime_mc: uncaught exception in %s: %s\n%!" where
    (Printexc.to_string exn)

(* ---- fibers and worker domains ----------------------------------- *)

(* Signals only a sleeping worker, so never from the pushing domain. *)
let push w job =
  Mutex.lock w.wm;
  Queue.push job w.wq;
  if w.sleeping then begin
    w.sleeping <- false;
    w.wakeups <- w.wakeups + 1;
    Condition.signal w.wc
  end;
  Mutex.unlock w.wm

(* Runs each queued fiber to its next suspension, one queue batch at a
   time. A woken or yielding fiber is pushed back to this, its home
   worker (mailbox FIFO per sender needs a sender to stay on one
   domain). Sleeps only on an empty queue, and exits once the pool is
   stopping with the queue empty and none of its fibers alive. *)
let dispatcher t w =
  let sched =
    {
      Runtime.Task.resume = (fun k opened -> push w (Resume (k, opened)));
      requeue = (fun k -> push w (Resume (k, true)));
    }
  in
  let handler daemon =
    let finished () =
      w.fibers <- w.fibers - 1;
      if not daemon then begin
        Mutex.lock t.lock;
        t.live <- t.live - 1;
        if t.live = 0 then Condition.broadcast t.idle;
        Mutex.unlock t.lock
      end
    in
    Runtime.Task.handler sched ~retc:finished ~exnc:(fun exn ->
        (match exn with Runtime.Cancelled -> () | _ -> report_exn "task" exn);
        finished ())
  in
  let task_h = handler false and daemon_h = handler true in
  let run = function
    | Start (f, daemon) ->
        w.fibers <- w.fibers + 1;
        Effect.Deep.match_with f () (if daemon then daemon_h else task_h)
    | Resume (k, opened) ->
        w.resumed <- w.resumed + 1;
        Runtime.Task.continue k opened
  in
  let batch = Queue.create () in
  let rec loop () =
    Mutex.lock w.wm;
    while Queue.is_empty w.wq && not (t.stopping && w.fibers = 0) do
      w.sleeping <- true;
      w.parks <- w.parks + 1;
      Condition.wait w.wc w.wm
    done;
    w.sleeping <- false;
    Queue.transfer w.wq batch;
    Mutex.unlock w.wm;
    if not (Queue.is_empty batch) then begin
      while not (Queue.is_empty batch) do run (Queue.pop batch) done;
      loop ()
    end
  in
  loop ()

let enqueue t ~daemon f =
  if not daemon then begin
    Mutex.lock t.lock;
    t.live <- t.live + 1;
    Mutex.unlock t.lock
  end;
  (* [land max_int] keeps the index non-negative after the counter
     wraps past max_int (fetch_and_add returns min_int there, and
     min_int mod 3 = -1). *)
  let i = Atomic.fetch_and_add t.rr 1 land max_int mod Array.length t.workers in
  push t.workers.(i) (Start (f, daemon))

let set_spawn_cursor t v = Atomic.set t.rr v

(* ---- timers -------------------------------------------------------- *)

let wake_byte = Bytes.make 1 '!'

(* Both pipe ends are non-blocking. EAGAIN (pipe full) means a wakeup
   is already pending, so dropping the byte is correct. *)
let rec wake_timer t =
  match Unix.write t.pipe_w wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wake_timer t
  | exception Unix.Unix_error _ -> ()

(* Only the timer thread reads the pipe, so one static buffer is safe. *)
let drain_buf = Bytes.create 256

let drain_pipe t =
  let rec go () =
    match Unix.read t.pipe_r drain_buf 0 (Bytes.length drain_buf) with
    | 0 -> ()
    | _ -> go () (* keep reading until the pipe is empty *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> () (* EAGAIN: drained *)
  in
  go ()

let tick_of at = int_of_float (at /. wheel_tick)

(* O(1) cancel: the event leaves its slot's live count at once and its
   cell is purged lazily, at the slot's next sweep or arm. A slot whose
   live timers are all cancelled no longer sets the timer thread's
   deadline. *)
let cancel t ev =
  Mutex.lock t.tlock;
  if ev.armed then begin
    ev.armed <- false;
    ev.tf <- ignore;
    t.slot_live.(ev.slot) <- t.slot_live.(ev.slot) - 1
  end;
  Mutex.unlock t.tlock

(* O(1) arm: push onto the event's slot, bump the slot's minimum, and
   wake the timer thread only if it is asleep past the new deadline. A
   slot with no live timer holds only cancelled ones, which are dropped
   here: a slot the sweep never visits cannot pile them up. *)
let add_timer t ~delay f =
  let at = now t +. Float.max 0. delay in
  let s = tick_of at land wheel_mask in
  let ev = { at; slot = s; armed = true; tf = f } in
  Mutex.lock t.tlock;
  if t.slot_live.(s) = 0 then begin
    t.wpurged <- t.wpurged + t.slot_depth.(s);
    t.slots.(s) <- [];
    t.slot_depth.(s) <- 0;
    t.slot_min.(s) <- infinity
  end;
  t.slots.(s) <- ev :: t.slots.(s);
  t.slot_live.(s) <- t.slot_live.(s) + 1;
  t.slot_depth.(s) <- t.slot_depth.(s) + 1;
  if t.slot_depth.(s) > t.wmax_depth then t.wmax_depth <- t.slot_depth.(s);
  if at < t.slot_min.(s) then t.slot_min.(s) <- at;
  let must_wake = at < t.sleep_until in
  Mutex.unlock t.tlock;
  if must_wake then wake_timer t;
  { Runtime.tcancel = (fun () -> cancel t ev) }

(* Walk the ticks since the last sweep (clamped to one revolution —
   each slot needs scanning at most once, since dueness is tested per
   event) and collect due events. Ends on [target - 1] so the current
   tick's slot is re-swept next pass: an event due later within this
   same tick must not wait a full revolution. Called with tlock held. *)
let sweep t nw =
  let target = tick_of nw in
  let first = max (t.last_tick + 1) (target - wheel_mask) in
  let due = ref [] in
  for tick = first to target do
    let s = tick land wheel_mask in
    if t.slot_depth.(s) > 0 && t.slot_min.(s) <= nw then begin
      let keep = ref [] and kmin = ref infinity and kn = ref 0 in
      List.iter
        (fun ev ->
          if not ev.armed then t.wpurged <- t.wpurged + 1
          else if ev.at <= nw then begin
            ev.armed <- false;
            t.slot_live.(s) <- t.slot_live.(s) - 1;
            due := ev :: !due
          end
          else begin
            keep := ev :: !keep;
            incr kn;
            if ev.at < !kmin then kmin := ev.at
          end)
        t.slots.(s);
      t.slots.(s) <- !keep;
      t.slot_min.(s) <- !kmin;
      t.slot_depth.(s) <- !kn
    end
  done;
  t.last_tick <- target - 1;
  let due = List.sort (fun a b -> compare a.at b.at) !due in
  t.wfired <- t.wfired + List.length due;
  due

(* Earliest deadline across the slots holding a live timer. A slot's
   minimum can still be stale from a cancelled timer, which makes this
   conservative (earlier) by one wakeup, after which the sweep
   recomputes it. tlock held. *)
let next_deadline t =
  let best = ref infinity in
  for s = 0 to wheel_mask do
    if t.slot_live.(s) > 0 && t.slot_min.(s) < !best then best := t.slot_min.(s)
  done;
  !best

(* Timer callbacks run inline on the timer thread; the runtime's own
   callbacks (gate opens, RPC retransmissions into mailboxes) never
   block, which keeps timer latency at select(2) wakeup cost. While
   firing, [sleep_until] is -inf so callbacks arming new timers never
   write the pipe — the next deadline is recomputed right after. *)
let timer_loop t =
  let rec loop () =
    Mutex.lock t.tlock;
    if t.stopping then Mutex.unlock t.tlock
    else begin
      let nw = now t in
      let next = next_deadline t in
      let wait =
        if next = infinity then 0.25 else Float.min 0.25 (next -. nw)
      in
      t.sleep_until <- (if wait > 0. then nw +. wait else nw);
      Mutex.unlock t.tlock;
      if wait > 0. then
        (try ignore (Unix.select [ t.pipe_r ] [] [] wait)
         with Unix.Unix_error _ -> ());
      drain_pipe t;
      let nw = now t in
      Mutex.lock t.tlock;
      if wait > 0. then t.wwakeups <- t.wwakeups + 1;
      let due = sweep t nw in
      t.sleep_until <- neg_infinity;
      Mutex.unlock t.tlock;
      List.iter
        (fun ev ->
          try ev.tf () with
          | Runtime.Cancelled -> ()
          | exn -> report_exn "timer" exn)
        due;
      loop ()
    end
  in
  loop ()

let wheel_stats t =
  Mutex.lock t.tlock;
  let s =
    {
      max_depth = t.wmax_depth;
      fired = t.wfired;
      purged = t.wpurged;
      wakeups = t.wwakeups;
    }
  in
  Mutex.unlock t.tlock;
  s

(* ---- pool construction / lifecycle -------------------------------- *)

(* Domain-local rng: fibers of one domain never run concurrently, so
   an unsynchronized per-domain state is race-free; cross-domain each
   has its own. No determinism is promised on this backend. *)
let rng_key = Domain.DLS.new_key (fun () -> Random.State.make_self_init ())

let hw_cores () = Domain.recommended_domain_count ()

let runtime t =
  {
    Runtime.name = "mc";
    now = (fun () -> now t);
    rng = (fun () -> Domain.DLS.get rng_key);
    spawn = (fun f -> enqueue t ~daemon:false f);
    timer = (fun ~delay f -> add_timer t ~delay f);
    gate = Runtime.Task.gate ~threads:true;
  }

let create ?(domains = 1) () =
  if domains < 1 then invalid_arg "Runtime_mc.create: domains < 1";
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  let t =
    {
      workers =
        Array.init domains (fun _ ->
            {
              wq = Queue.create ();
              wm = Mutex.create ();
              wc = Condition.create ();
              sleeping = false;
              fibers = 0;
              resumed = 0; parks = 0; wakeups = 0;
            });
      rr = Atomic.make 0;
      lock = Mutex.create ();
      idle = Condition.create ();
      live = 0;
      stopping = false;
      tlock = Mutex.create ();
      slots = Array.make wheel_slots [];
      slot_min = Array.make wheel_slots infinity;
      slot_depth = Array.make wheel_slots 0;
      slot_live = Array.make wheel_slots 0;
      last_tick = -1;
      sleep_until = infinity (* wake on any arm until the first sleep *);
      wmax_depth = 0;
      wfired = 0;
      wpurged = 0;
      wwakeups = 0;
      pipe_r;
      pipe_w;
      t0 = wall ();
      domains = [];
      timer_thread = None;
    }
  in
  t.domains <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> dispatcher t w)) t.workers);
  t.timer_thread <- Some (Thread.create (fun () -> timer_loop t) ());
  t

let spawn_daemon t f = enqueue t ~daemon:true f

(* Wait for every non-daemon task to finish (daemon tasks — the
   transport's receive loops — are excluded, or this would never
   return). *)
let await_idle t =
  Mutex.lock t.lock;
  while t.live > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

(* Bounded variant for chaos soaks: a stuck task (a liveness bug —
   exactly what the soak hunts) must fail the run, not hang it. The
   wait is on [idle], like [await_idle]'s; a wheel timer at the
   timeout broadcasts it too, and so does [shutdown], which stops the
   timer thread. *)
let try_await_idle t ~timeout =
  let expired = ref false in
  let timer =
    add_timer t ~delay:timeout (fun () ->
        Mutex.lock t.lock;
        expired := true;
        Condition.broadcast t.idle;
        Mutex.unlock t.lock)
  in
  Mutex.lock t.lock;
  while t.live > 0 && not (!expired || t.stopping) do
    Condition.wait t.idle t.lock
  done;
  let idle = t.live = 0 in
  Mutex.unlock t.lock;
  timer.Runtime.tcancel ();
  idle

(* Stop dispatchers and the timer thread, then join the domains. The
   caller must first unblock its daemon tasks (close their mailboxes):
   a domain only terminates once every fiber it started has finished. *)
let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then Mutex.unlock t.lock
  else begin
    t.stopping <- true;
    Condition.broadcast t.idle;
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        Mutex.lock w.wm;
        Condition.broadcast w.wc;
        Mutex.unlock w.wm)
      t.workers;
    wake_timer t;
    (match t.timer_thread with Some th -> Thread.join th | None -> ());
    (* No thread is left to wake: a later arm must not write the pipe,
       which is closed below. *)
    Mutex.lock t.tlock;
    t.sleep_until <- neg_infinity;
    Mutex.unlock t.tlock;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
  end

type sched_stats = { resumed : int; parks : int; wakeups : int }

let sched_stats t =
  Array.map
    (fun (w : worker) ->
      { resumed = w.resumed; parks = w.parks; wakeups = w.wakeups })
    t.workers
