(* OCaml 5 multicore backend: a pool of worker domains, each running
   its tasks as effect-handler fibers and firing its own wall-clock
   timers. A worker has one wait point: a select(2) on its own pipe,
   which pushes write, and its own alarm, a timerfd armed for its
   earliest timer.

   Scheduling model (DESIGN 4g): [spawn] places the task on a domain
   chosen round-robin (work sharing), where it runs as a fiber under
   [Runtime.Task.handler]. A blocked task (mailbox recv, gate await,
   sleep) suspends its fiber and the domain runs its next queued one;
   the gate's opener pushes it back to this queue. A message between two
   tasks of one domain costs a queue push and a [continue], with no
   OS thread switch. Within one domain fibers interleave only at
   suspension points; true parallelism equals the domain count.
   A timer goes on the [Runtime.Timerq] of the worker that arms it,
   the queue the sim engine runs on too (DESIGN 4h, [add_timer]). No
   determinism and no virtual time: the sim backend remains the
   oracle, this one reports the hardware. *)

(* A run-queue entry: a new task, or a fiber to continue or cancel. *)
type job =
  | Start of (unit -> unit) * bool (* daemon? *)
  | Resume of Runtime.Task.k * bool

(* [wm] guards the run queue, the timer queue, [sleeping]/[park_until]
   and the counters. While a worker is parked, [park_until] is its
   earliest timer and its alarm is armed for it: an arm or a cancel
   from another thread moves the alarm with the queue's minimum, under
   [wm], and wakes nobody. A push to a parked worker turns [sleeping]
   off and writes one byte to the pipe, under [wm]; so the pipe holds
   a byte exactly when a push cut a park short, and a park that ends
   with [sleeping] still set ended at a deadline. *)
type worker = {
  wq : job Queue.t;
  wm : Mutex.t;
  timers : Runtime.Timerq.t;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  alarm : Unix.file_descr;
  t0 : float;  (* the pool's *)
  mutable sleeping : bool;
  mutable park_until : float;  (* deadline of the current park *)
  mutable fibers : int;  (* started, not finished; owned by the domain *)
  mutable resumed : int;  (* owned by the domain *)
  mutable parks : int;
  mutable wakeups : int;  (* parks cut short by a push *)
  mutable max_depth : int;
  mutable fired : int;
  mutable purged : int;  (* timers cancelled before they fired *)
  mutable twakeups : int;  (* parks that ended at a deadline *)
}

type timer_stats = { max_depth : int; fired : int; purged : int; wakeups : int }

type t = {
  workers : worker array;
  rr : int Atomic.t;  (* round-robin spawn cursor *)
  lock : Mutex.t;  (* guards live / stopping *)
  mutable idle_alarms : Unix.file_descr list;  (* of idle waits *)
  mutable live : int;  (* non-daemon tasks queued or running *)
  mutable stopping : bool;
  t0 : float;
  mutable domains : unit Domain.t list;
}

let wall () = Unix.gettimeofday ()
let now t = wall () -. t.t0

let report_exn where exn =
  Printf.eprintf "runtime_mc: uncaught exception in %s: %s\n%!" where
    (Printexc.to_string exn)

(* The worker this domain runs, with its pool's worker array. *)
let self_key : (worker array * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ---- a worker's alarm -------------------------------------------- *)

external alarm_create : unit -> Unix.file_descr = "fab_mc_alarm_create"
external alarm_set : Unix.file_descr -> float -> unit = "fab_mc_alarm_set"

(* [wm] held. [at] is in [now]'s time, [infinity] disarms. *)
let set_alarm w at =
  w.park_until <- at;
  alarm_set w.alarm (w.t0 +. at)

let wake_byte = Bytes.make 1 '!'

(* [wm] held, [w.sleeping] true: the pipe is empty, so neither this
   write nor the parked worker's read of its byte can block. *)
let wake w =
  w.sleeping <- false;
  ignore (Unix.write w.pipe_w wake_byte 0 1)

(* Wakes only a parked worker, so never from the pushing domain. *)
let push w job =
  Mutex.lock w.wm;
  Queue.push job w.wq;
  if w.sleeping then begin
    w.wakeups <- w.wakeups + 1;
    wake w
  end;
  Mutex.unlock w.wm

(* ---- timers -------------------------------------------------------- *)

(* A parked worker's alarm follows its queue's minimum, so a cancelled
   deadline never ends a park. *)
let cancel w ev =
  Mutex.lock w.wm;
  if Runtime.Timerq.remove w.timers ev then begin
    w.purged <- w.purged + 1;
    if w.sleeping && Runtime.Timerq.next_at w.timers > w.park_until then
      set_alarm w (Runtime.Timerq.next_at w.timers)
  end;
  Mutex.unlock w.wm

(* The timer goes on the queue of the worker that arms it; an arm from
   outside the pool goes on worker 0. If that worker is parked past the
   new deadline, its alarm moves earlier. [Timerq.add] rejects a NaN
   deadline before touching the queue. *)
let add_timer t ~delay f =
  let w =
    match Domain.DLS.get self_key with
    | Some (ws, w) when ws == t.workers -> w
    | _ -> t.workers.(0)
  in
  let at = now t +. Float.max 0. delay in
  Mutex.lock w.wm;
  match Runtime.Timerq.add w.timers ~at f with
  | exception e ->
      Mutex.unlock w.wm;
      raise e
  | ev ->
      let depth = Runtime.Timerq.length w.timers in
      if depth > w.max_depth then w.max_depth <- depth;
      if w.sleeping && at < w.park_until then set_alarm w at;
      Mutex.unlock w.wm;
      { Runtime.tcancel = (fun () -> cancel w ev) }

let timer_stats t =
  let add (s : timer_stats) w =
    Mutex.protect w.wm (fun () ->
        {
          max_depth = max s.max_depth w.max_depth;
          fired = s.fired + w.fired;
          purged = s.purged + w.purged;
          wakeups = s.wakeups + w.twakeups;
        })
  in
  Array.fold_left add
    { max_depth = 0; fired = 0; purged = 0; wakeups = 0 }
    t.workers

(* [t.lock] held; [live] is 0 or the pool is stopping. *)
let signal_idle t = List.iter (fun a -> alarm_set a neg_infinity) t.idle_alarms

(* ---- the dispatcher ------------------------------------------------ *)

(* Each pass takes every timer due by now (a timer never fires before
   its [at]) and the whole run queue, then, with no lock held, fires
   the timers earliest first and runs each queued fiber to its next
   suspension. A woken or yielding fiber is pushed back to this, its
   home worker (mailbox FIFO per sender needs a sender to stay on one
   domain). With nothing to do the worker parks on its pipe and its
   alarm, armed for its earliest timer. It exits once the pool is
   stopping with the queue empty and none of its fibers alive; pending
   timers are dropped. *)
let dispatcher t w =
  Domain.DLS.set self_key (Some (t.workers, w));
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
        if t.live = 0 then signal_idle t;
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
  let fire f =
    try f () with Runtime.Cancelled -> () | exn -> report_exn "timer" exn
  in
  let due = Queue.create () and batch = Queue.create () in
  let byte = Bytes.create 1 in
  (* [wm] held on entry; the clock is read only when a timer is
     pending. *)
  let rec loop () =
    let nw =
      if Runtime.Timerq.length w.timers = 0 then neg_infinity else now t
    in
    while Runtime.Timerq.next_at w.timers <= nw do
      w.fired <- w.fired + 1;
      Queue.push (Option.get (Runtime.Timerq.pop w.timers)) due
    done;
    if not (Queue.is_empty due && Queue.is_empty w.wq) then begin
      Queue.transfer w.wq batch;
      Mutex.unlock w.wm;
      while not (Queue.is_empty due) do fire (Queue.pop due) done;
      while not (Queue.is_empty batch) do run (Queue.pop batch) done;
      Mutex.lock w.wm;
      loop ()
    end
    else if t.stopping && w.fibers = 0 then Mutex.unlock w.wm
    else begin
      (* Arming the alarm also clears an expiry of the last one. *)
      set_alarm w (Runtime.Timerq.next_at w.timers);
      w.sleeping <- true;
      w.parks <- w.parks + 1;
      Mutex.unlock w.wm;
      (try ignore (Unix.select [ w.pipe_r; w.alarm ] [] [] (-1.))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      Mutex.lock w.wm;
      if not w.sleeping then ignore (Unix.read w.pipe_r byte 0 1)
      else begin
        w.sleeping <- false;
        if w.park_until < infinity then w.twakeups <- w.twakeups + 1
      end;
      loop ()
    end
  in
  Mutex.lock w.wm;
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
  let t0 = wall () in
  let t =
    {
      workers =
        Array.init domains (fun _ ->
            let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
            {
              wq = Queue.create ();
              wm = Mutex.create ();
              timers = Runtime.Timerq.create ();
              pipe_r;
              pipe_w;
              alarm = alarm_create ();
              t0;
              sleeping = false;
              park_until = infinity;
              fibers = 0;
              resumed = 0; parks = 0; wakeups = 0;
              max_depth = 0; fired = 0; purged = 0; twakeups = 0;
            });
      rr = Atomic.make 0;
      lock = Mutex.create ();
      idle_alarms = [];
      live = 0;
      stopping = false;
      t0;
      domains = [];
    }
  in
  t.domains <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> dispatcher t w)) t.workers);
  t

let spawn_daemon t f = enqueue t ~daemon:true f

(* Wait for every non-daemon task to finish (daemon tasks — the
   transport's receive loops — are excluded, or this would never
   return), for [timeout] seconds at most. A stuck task (a liveness
   bug — exactly what a chaos soak hunts) must fail the soak, not hang
   it, even a task that never suspends. So no worker takes part in the
   wait: the caller reads an alarm of its own, armed for the timeout,
   which the task that brings [live] to 0 and [shutdown] set off at
   once. *)
let try_await_idle t ~timeout =
  let deadline = wall () +. timeout in
  let alarm = alarm_create () and buf = Bytes.create 8 in
  Mutex.lock t.lock;
  while t.live > 0 && (not t.stopping) && wall () < deadline do
    alarm_set alarm deadline;
    t.idle_alarms <- alarm :: t.idle_alarms;
    Mutex.unlock t.lock;
    (try ignore (Unix.read alarm buf 0 8)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Mutex.lock t.lock;
    t.idle_alarms <- List.filter (fun a -> a != alarm) t.idle_alarms
  done;
  let idle = t.live = 0 in
  Mutex.unlock t.lock;
  Unix.close alarm;
  idle

let await_idle t = ignore (try_await_idle t ~timeout:infinity)

(* Stop the dispatchers, then join the domains. The caller must first
   unblock its daemon tasks (close their mailboxes): a domain only
   terminates once every fiber it started has finished. A worker that
   has exited never parks again, so no later push, arm or cancel
   touches its pipe or alarm, and they can be closed. *)
let shutdown t =
  Mutex.lock t.lock;
  if t.stopping then Mutex.unlock t.lock
  else begin
    t.stopping <- true;
    signal_idle t;
    Mutex.unlock t.lock;
    Array.iter
      (fun w ->
        Mutex.lock w.wm;
        if w.sleeping then wake w;
        Mutex.unlock w.wm)
      t.workers;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Array.iter
      (fun w -> List.iter Unix.close [ w.pipe_r; w.pipe_w; w.alarm ])
      t.workers
  end

type sched_stats = { resumed : int; parks : int; wakeups : int }

let sched_stats t =
  Array.map
    (fun (w : worker) ->
      { resumed = w.resumed; parks = w.parks; wakeups = w.wakeups })
    t.workers
