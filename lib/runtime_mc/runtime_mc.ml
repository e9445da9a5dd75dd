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
   Timers live in a [Runtime.Timerq], the queue the sim engine runs
   on too (DESIGN 4h, [add_timer]). No determinism and no virtual
   time: the sim backend remains the oracle, this one reports the
   hardware. *)

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

type timer_stats = { max_depth : int; fired : int; purged : int; wakeups : int }

type t = {
  workers : worker array;
  rr : int Atomic.t;  (* round-robin spawn cursor *)
  lock : Mutex.t;  (* guards live / stopping *)
  idle : Condition.t;  (* signalled when live returns to 0 *)
  mutable live : int;  (* non-daemon tasks queued or running *)
  mutable stopping : bool;
  tlock : Mutex.t;  (* guards the timer queue and its stats *)
  timers : Runtime.Timerq.t;
  mutable sleep_until : float;  (* when the timer thread's sleep ends *)
  mutable tmax_depth : int;
  mutable tfired : int;
  mutable tpurged : int;  (* timers cancelled before they fired *)
  mutable twakeups : int;  (* returns of the timer thread's sleep *)
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

let cancel t ev =
  Mutex.lock t.tlock;
  if Runtime.Timerq.remove t.timers ev then t.tpurged <- t.tpurged + 1;
  Mutex.unlock t.tlock

(* Wake the timer thread only if it is asleep past the new deadline.
   [Timerq.add] rejects a NaN deadline before touching the queue. *)
let add_timer t ~delay f =
  let at = now t +. Float.max 0. delay in
  Mutex.lock t.tlock;
  match Runtime.Timerq.add t.timers ~at f with
  | exception e ->
      Mutex.unlock t.tlock;
      raise e
  | ev ->
      let depth = Runtime.Timerq.length t.timers in
      if depth > t.tmax_depth then t.tmax_depth <- depth;
      let must_wake = at < t.sleep_until in
      Mutex.unlock t.tlock;
      if must_wake then wake_timer t;
      { Runtime.tcancel = (fun () -> cancel t ev) }

(* Take every timer due by [nw], earliest first: a timer never fires
   before its [at]. tlock held. *)
let take_due t nw =
  let rec go acc =
    if Runtime.Timerq.next_at t.timers > nw then List.rev acc
    else begin
      t.tfired <- t.tfired + 1;
      go (Option.get (Runtime.Timerq.pop t.timers) :: acc)
    end
  in
  go []

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
      let next = Runtime.Timerq.next_at t.timers in
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
      if wait > 0. then t.twakeups <- t.twakeups + 1;
      let due = take_due t nw in
      t.sleep_until <- neg_infinity;
      Mutex.unlock t.tlock;
      List.iter
        (fun f ->
          try f () with
          | Runtime.Cancelled -> ()
          | exn -> report_exn "timer" exn)
        due;
      loop ()
    end
  in
  loop ()

let timer_stats t =
  Mutex.lock t.tlock;
  let s =
    {
      max_depth = t.tmax_depth;
      fired = t.tfired;
      purged = t.tpurged;
      wakeups = t.twakeups;
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
      timers = Runtime.Timerq.create ();
      sleep_until = infinity (* wake on any arm until the first sleep *);
      tmax_depth = 0;
      tfired = 0;
      tpurged = 0;
      twakeups = 0;
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
   wait is on [idle], like [await_idle]'s; a timer at the
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
