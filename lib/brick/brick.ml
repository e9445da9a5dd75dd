type hook = int

type t = {
  id : int;
  runtime : Runtime.t;
  mutable alive : bool;
  mutable crash_count : int;
  mutable next_hook : int;
  crash_hooks : (int, unit -> unit) Hashtbl.t;
  lk : Mutex.t;  (* guards crash_hooks / next_hook (mc backend) *)
  disk_reads : Metrics.Counter.t;
  disk_writes : Metrics.Counter.t;
  nvram_writes : Metrics.Counter.t;
  obs : Obs.t;
}

let create ?(metrics = Metrics.Registry.create ()) ?(obs = Obs.create ())
    runtime ~id =
  {
    id;
    runtime;
    alive = true;
    crash_count = 0;
    next_hook = 0;
    crash_hooks = Hashtbl.create 8;
    lk = Mutex.create ();
    disk_reads = Metrics.Registry.counter metrics "disk.reads";
    disk_writes = Metrics.Registry.counter metrics "disk.writes";
    nvram_writes = Metrics.Registry.counter metrics "nvram.writes";
    obs;
  }

let id t = t.id
let is_alive t = t.alive

let crash t =
  if t.alive then begin
    t.alive <- false;
    t.crash_count <- t.crash_count + 1;
    (* Collect first: a hook may (de)register hooks while running —
       and hooks must run outside the lock, since cancelling a fiber
       or aborting an ivar re-enters brick code. *)
    Mutex.lock t.lk;
    let hooks = Hashtbl.fold (fun _ f acc -> f :: acc) t.crash_hooks [] in
    Hashtbl.reset t.crash_hooks;
    Mutex.unlock t.lk;
    List.iter (fun f -> f ()) hooks
  end

let recover t = t.alive <- true

let add_crash_hook t f =
  Mutex.lock t.lk;
  let h = t.next_hook in
  t.next_hook <- t.next_hook + 1;
  Hashtbl.replace t.crash_hooks h f;
  Mutex.unlock t.lk;
  h

let remove_crash_hook t h =
  Mutex.lock t.lk;
  Hashtbl.remove t.crash_hooks h;
  Mutex.unlock t.lk

let hook_count t =
  Mutex.lock t.lk;
  let n = Hashtbl.length t.crash_hooks in
  Mutex.unlock t.lk;
  n

let emit_io t (ctx : Obs.ctx) kind =
  Obs.emit t.obs
    {
      Obs.time = Runtime.now t.runtime;
      actor = Obs.Brick t.id;
      op = ctx.Obs.op;
      phase = ctx.Obs.phase;
      kind;
    }

let count_disk_read ?(ctx = Obs.no_ctx) t =
  Metrics.Counter.incr t.disk_reads;
  if Obs.enabled t.obs then emit_io t ctx (Obs.Io_read { blocks = 1 })

let count_disk_write ?(ctx = Obs.no_ctx) t =
  Metrics.Counter.incr t.disk_writes;
  if Obs.enabled t.obs then emit_io t ctx (Obs.Io_write { blocks = 1 })

let count_nvram_write t = Metrics.Counter.incr t.nvram_writes
let crash_count t = t.crash_count
