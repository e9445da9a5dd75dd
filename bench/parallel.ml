(* Wall-clock throughput of the FAB protocol on the OCaml 5 multicore
   backend (lib/runtime_mc): the same mixed OLTP workload is driven
   against identical m-of-n deployments at increasing worker-domain
   counts, and every row reports real ops/sec, exact-rank latency
   percentiles (pooled {!Metrics.Hist}) and the speedup over the
   one-domain run.

   Unlike every other section of this harness, time here is measured
   by the monotonic clock, not in delta units — the numbers depend on
   the machine (core count is stamped into the meta as [hw_cores]; on
   a single-core host the sweep degenerates to scheduling overhead and
   speedups near 1x are expected). Protocol behavior is identical to
   the sim backend by construction (lib/runtime); verify correctness
   there, measure wall-clock here.

   [json_out] (set by bench/main.ml's --json flag) writes
   BENCH_parallel.json; [smoke] shrinks the sweep and the op quota so
   the @parallel-smoke alias stays fast. *)

let json_out : string option ref = ref None
let smoke : bool ref = ref false

let m = 2
let n = 4
let stripes = 32

type run_result = {
  domains : int;
  ops_done : int;
  aborted : int;
  unavailable : int;
  elapsed : float; (* wall-clock seconds *)
  ops_per_sec : float;
  lat : Metrics.Hist.t; (* pooled per-op latency, seconds *)
  minor_words_per_op : float;
      (* minor-heap words allocated per completed op on the worker
         domain; meaningful (and only measured) at domains = 1, where
         every protocol task runs on that one domain. *)
  sched : float * float * float;
      (* runtime.sched.{resumed,parks,wakeups}, summed over workers *)
}

(* Read [Gc.minor_words] from inside the pool: spawned as a task so the
   counter is the worker domain's, which is where every protocol
   allocation lands when the pool has a single domain. *)
let probe_minor_words rt =
  let words = ref 0. in
  let g = rt.Runtime.gate () in
  Runtime.spawn rt (fun () ->
      words := Gc.minor_words ();
      g.Runtime.open_ ());
  g.Runtime.await ();
  !words

(* One deployment, [clients] concurrent clients of [ops] ops each.
   Every client gets its own coordinator brick, which spreads
   coordinator work over the bricks the way FAB clients spread over
   them. *)
let run_one ~domains ~clients ~ops ~block_size =
  let nbricks = max n clients in
  let cluster =
    Core.Cluster.create ~backend:(Mc { domains }) ~bricks:nbricks
      ~block_size ~m ~n ()
  in
  let volume =
    Fab.Volume.of_cluster ~cluster ~m ~stripes ~block_size ~op_retries:8
      ~pipeline_window:4 ~stripe_offset:0 ()
  in
  let rt = cluster.Core.Cluster.runtime in
  let stats = Array.init clients (fun _ -> Workload.Client.fresh_stats ()) in
  let words0 = if domains = 1 then probe_minor_words rt else 0. in
  let started = Runtime.now rt in
  for c = 0 to clients - 1 do
    let gen =
      Workload.Gen.make Workload.Gen.oltp
        ~capacity_blocks:(Fab.Volume.capacity_blocks volume)
        ~rng:(Random.State.make [| 7; c |])
    in
    Workload.Client.spawn volume ~coord:(c mod nbricks) ~gen ~ops
      ~payload_tag:(Char.chr (97 + (c mod 26)))
      stats.(c)
  done;
  Core.Cluster.await_quiesce cluster;
  let elapsed = Runtime.now rt -. started in
  let words1 = if domains = 1 then probe_minor_words rt else 0. in
  Core.Cluster.shutdown cluster;
  let counter name =
    Metrics.Counter.value
      (Metrics.Registry.counter cluster.Core.Cluster.metrics ("runtime.sched." ^ name))
  in
  let all = Workload.Client.sum stats in
  let ops_done = all.Workload.Client.ops in
  let lat = all.Workload.Client.latency in
  {
    domains;
    ops_done;
    aborted = all.Workload.Client.aborts;
    unavailable = all.Workload.Client.unavailable;
    elapsed;
    ops_per_sec =
      (if elapsed > 0. then float_of_int ops_done /. elapsed else 0.);
    lat;
    minor_words_per_op =
      (if domains = 1 && ops_done > 0 then
         (words1 -. words0) /. float_of_int ops_done
       else 0.);
    sched = (counter "resumed", counter "parks", counter "wakeups");
  }

let pct r p =
  if Metrics.Hist.count r.lat = 0 then 0. else Metrics.Hist.percentile r.lat p

(* --- contention microbenches (DESIGN 4h) ---------------------------

   Each hot path is benchmarked against its PR 8 predecessor inside
   this binary: the pending table runs at [shards:16] vs [shards:1]
   (the old single mutex), the mailbox against a verbatim copy of the
   old lock-per-message implementation. The timer wheel has no legacy
   twin — its arm/cancel churn rate and wheel stats stand alone. *)

(* PR 8's lock-per-message mailbox with direct hand-off to waiting
   receivers, kept as the batched-drain implementation's baseline. *)
module Legacy_mailbox = struct
  type 'a waiter = { wg : Runtime.gate; mutable slot : 'a option }

  type 'a t = {
    rt : Runtime.t;
    lock : Mutex.t;
    q : 'a Queue.t;
    mutable waiters : 'a waiter list;  (* oldest first *)
    mutable closed : bool;
  }

  let create rt =
    {
      rt;
      lock = Mutex.create ();
      q = Queue.create ();
      waiters = [];
      closed = false;
    }

  let send t v =
    Mutex.lock t.lock;
    if t.closed then Mutex.unlock t.lock
    else
      match t.waiters with
      | w :: rest ->
          t.waiters <- rest;
          w.slot <- Some v;
          Mutex.unlock t.lock;
          w.wg.Runtime.open_ ()
      | [] ->
          Queue.push v t.q;
          Mutex.unlock t.lock

  let recv t =
    Mutex.lock t.lock;
    if not (Queue.is_empty t.q) then begin
      let v = Queue.pop t.q in
      Mutex.unlock t.lock;
      Some v
    end
    else if t.closed then begin
      Mutex.unlock t.lock;
      None
    end
    else begin
      let w = { wg = t.rt.Runtime.gate (); slot = None } in
      t.waiters <- t.waiters @ [ w ];
      Mutex.unlock t.lock;
      w.wg.Runtime.await ();
      w.slot
    end

  let close t =
    Mutex.lock t.lock;
    t.closed <- true;
    let ws = t.waiters in
    t.waiters <- [];
    Mutex.unlock t.lock;
    List.iter (fun w -> w.wg.Runtime.open_ ()) ws
end

(* Zero-latency transport: [xsend] invokes the destination handler in
   the caller's thread, so a [call] completes during its own
   broadcast and the benchmark isolates the pending-table work (rid
   allocation, insert, per-reply bookkeeping, claim) plus the retry
   timer's arm/cancel. Handlers are stateless, so the sequential-
   delivery contract is moot here. *)
let loopback ~n =
  let handlers = Array.make n (fun ~src:_ _ -> ()) in
  {
    Quorum.Rpc.xn = n;
    xobs = Obs.create ();
    xsend =
      (fun ~background:_ ~ctx:_ ~info:_ ~src ~dst ~bytes_on_wire:_ msg ->
        handlers.(dst) ~src msg);
    xregister = (fun addr h -> handlers.(addr) <- h);
    xdead_drop = (fun () -> ());
  }

type pending_result = { calls_per_sec : float; lock_waits : float }

let micro_pending ~domains ~tasks ~iters ~shards =
  let pool = Runtime_mc.create ~domains () in
  let rt = Runtime_mc.runtime pool in
  let metrics = Metrics.Registry.create () in
  let members = [ 0; 1; 2 ] in
  let transport = loopback ~n:(3 + tasks) in
  let rpc =
    Quorum.Rpc.create ~rt ~transport ~metrics
      ~req_bytes:(fun () -> 0)
      ~rep_bytes:(fun () -> 0)
      ~shards ()
  in
  List.iter
    (fun addr -> Quorum.Rpc.serve rpc ~addr (fun ~src:_ ~ctx:_ () -> Some ()))
    members;
  (* One coordinator brick per task: the per-call crash-hook add and
     remove stay uncontended, as they are in a real deployment. *)
  let bricks = Array.init tasks (fun i -> Brick.create rt ~id:(3 + i)) in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun coord ->
      Runtime.spawn rt (fun () ->
          for _ = 1 to iters do
            ignore (Quorum.Rpc.call rpc ~coord ~members ~quorum:2 (fun _ -> ()))
          done))
    bricks;
  Runtime_mc.await_idle pool;
  let elapsed = Unix.gettimeofday () -. t0 in
  Runtime_mc.shutdown pool;
  {
    calls_per_sec = float_of_int (tasks * iters) /. Float.max 1e-9 elapsed;
    lock_waits =
      Metrics.Counter.value
        (Metrics.Registry.counter metrics "rpc.shard.contention");
  }

(* [senders] concurrent producers, one consumer; throughput is
   measured to the instant the consumer has received every message.

   Producers run under a credit window, mirroring how the transport is
   actually driven: a coordinator never has more than a quorum round's
   worth of messages outstanding, because [Rpc.call] blocks on the
   replies. After every [window] sends the producer waits for a credit
   from the consumer, carried over a per-sender ack mailbox built from
   the same implementation under test (so both variants pay for their
   own ack path). An unthrottled flood would instead measure the OS
   scheduler on an oversubscribed host: producers that never block
   burn whole timeslices while the runnable consumer waits in the run
   queue, a stall the transport's natural flow control never sees. *)
let mb_window = 256

let micro_mailbox ~domains ~senders ~iters ~legacy =
  let pool = Runtime_mc.create ~domains () in
  let rt = Runtime_mc.runtime pool in
  let total = senders * iters in
  let t0 = Unix.gettimeofday () in
  let finish = ref t0 in
  let rate () = float_of_int total /. Float.max 1e-9 (!finish -. t0) in
  if legacy then begin
    let box = Legacy_mailbox.create rt in
    let acks = Array.init senders (fun _ -> Legacy_mailbox.create rt) in
    Runtime.spawn rt (fun () ->
        let per = Array.make senders 0 in
        let rec loop n =
          if n < total then
            match Legacy_mailbox.recv box with
            | Some s ->
                per.(s) <- per.(s) + 1;
                if per.(s) mod mb_window = 0 then
                  Legacy_mailbox.send acks.(s) ();
                loop (n + 1)
            | None -> ()
        in
        loop 0;
        finish := Unix.gettimeofday ());
    for s = 0 to senders - 1 do
      Runtime.spawn rt (fun () ->
          for i = 1 to iters do
            Legacy_mailbox.send box s;
            if i mod mb_window = 0 then ignore (Legacy_mailbox.recv acks.(s))
          done)
    done;
    Runtime_mc.await_idle pool;
    Legacy_mailbox.close box;
    Array.iter Legacy_mailbox.close acks;
    Runtime_mc.shutdown pool;
    (rate (), 0.)
  end
  else begin
    let box = Runtime.Mailbox.create rt in
    let acks = Array.init senders (fun _ -> Runtime.Mailbox.create rt) in
    Runtime.spawn rt (fun () ->
        let per = Array.make senders 0 in
        let rec loop n =
          if n < total then
            match Runtime.Mailbox.recv box with
            | Some s ->
                per.(s) <- per.(s) + 1;
                if per.(s) mod mb_window = 0 then
                  ignore (Runtime.Mailbox.send acks.(s) ());
                loop (n + 1)
            | None -> ()
        in
        loop 0;
        finish := Unix.gettimeofday ());
    for s = 0 to senders - 1 do
      Runtime.spawn rt (fun () ->
          for i = 1 to iters do
            ignore (Runtime.Mailbox.send box s);
            if i mod mb_window = 0 then ignore (Runtime.Mailbox.recv acks.(s))
          done)
    done;
    Runtime_mc.await_idle pool;
    let batches, msgs = Runtime.Mailbox.drain_stats box in
    Runtime.Mailbox.close box;
    Array.iter Runtime.Mailbox.close acks;
    Runtime_mc.shutdown pool;
    ( rate (),
      if batches = 0 then 0.
      else float_of_int msgs /. float_of_int batches )
  end

type timer_result = { arms_per_sec : float; wheel : Runtime_mc.wheel_stats }

(* Deadline/backoff churn: most timers are cancelled before firing
   (like RPC retry timers on a healthy cluster), one in sixteen is
   left to expire. *)
let micro_timer ~domains ~tasks ~iters =
  let pool = Runtime_mc.create ~domains () in
  let rt = Runtime_mc.runtime pool in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to tasks do
    Runtime.spawn rt (fun () ->
        for k = 1 to iters do
          let tm =
            Runtime.timer rt
              ~delay:(0.05 +. (0.001 *. float_of_int (k land 15)))
              (fun () -> ())
          in
          if k land 15 <> 0 then Runtime.cancel tm
        done)
  done;
  Runtime_mc.await_idle pool;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Let the uncancelled tail expire so fired/purged cover the run. *)
  Unix.sleepf 0.08;
  let wheel = Runtime_mc.wheel_stats pool in
  Runtime_mc.shutdown pool;
  {
    arms_per_sec = float_of_int (tasks * iters) /. Float.max 1e-9 elapsed;
    wheel;
  }

(* One-shot microbench timings on a shared single-core container swing
   by 3x or more with scheduler luck. Each cell runs [trials] times and
   the best (least-interference) run is reported, for both the new
   implementation and its legacy twin, so the printed speedups compare
   peak against peak. *)
let trials = 3

let best_of proj f =
  let rec go k best =
    if k = 0 then best
    else
      let r = f () in
      go (k - 1) (if proj r > proj best then r else best)
  in
  go (trials - 1) (f ())

let run () =
  let sweep = if !smoke then [ 1; 2 ] else [ 1; 2; 4 ] in
  let clients = if !smoke then 2 else 4 in
  let ops = if !smoke then 15 else 150 in
  let block_size = if !smoke then 1024 else 8192 in
  let hw = Runtime_mc.hw_cores () in
  Util.section "Parallel backend (wall clock)";
  Printf.printf
    "  runtime mc: %d-of-%d code, %d clients x %d ops, %dB blocks, %d \
     hardware core%s\n"
    m n clients ops block_size hw
    (if hw = 1 then "" else "s");
  if hw < List.fold_left max 1 sweep then
    Printf.printf
    "  note: sweep exceeds the core count; speedups are bounded by %d \
     hardware core%s\n"
      hw
      (if hw = 1 then "" else "s");
  let results = List.map (fun d -> run_one ~domains:d ~clients ~ops ~block_size) sweep in
  let base = List.hd results in
  Printf.printf "  %-8s | %10s | %12s | %10s | %10s | %8s | %10s | %8s | %8s\n"
    "domains" "ops done" "ops/sec" "p50 (ms)" "p99 (ms)" "speedup"
    "resumed/op" "parks" "wakeups";
  Printf.printf "  %s\n" (String.make 107 '-');
  List.iter
    (fun r ->
      let resumed, parks, wakeups = r.sched in
      Printf.printf
        "  %-8d | %10d | %12.0f | %10.3f | %10.3f | %7.2fx | %10.1f | %8.0f | %8.0f\n"
        r.domains r.ops_done r.ops_per_sec
        (pct r 50. *. 1e3)
        (pct r 99. *. 1e3)
        (if base.ops_per_sec > 0. then r.ops_per_sec /. base.ops_per_sec
         else 0.)
        (resumed /. float_of_int (max 1 r.ops_done))
        parks wakeups)
    results;
  Printf.printf "  gc: %.0f minor words per op (1-domain run)\n"
    base.minor_words_per_op;
  (* Contention microbenches: each hot path vs its PR 8 baseline. *)
  let micro_sweep = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let mtasks = if !smoke then 2 else 4 in
  let pend_iters = if !smoke then 300 else 1500 in
  let mbox_iters = if !smoke then 4000 else 20000 in
  let tmr_iters = if !smoke then 4000 else 15000 in
  Printf.printf "\n  pending table: %d tasks x %d calls (quorum 2/3, \
                 loopback transport)\n" mtasks pend_iters;
  Printf.printf "  %-8s | %14s | %14s | %8s | %10s\n" "domains"
    "sharded c/s" "1-mutex c/s" "speedup" "lock waits";
  Printf.printf "  %s\n" (String.make 64 '-');
  let pend =
    List.map
      (fun d ->
        let cell shards =
          best_of
            (fun r -> r.calls_per_sec)
            (fun () ->
              micro_pending ~domains:d ~tasks:mtasks ~iters:pend_iters ~shards)
        in
        let sh = cell 16 in
        let si = cell 1 in
        Printf.printf "  %-8d | %14.0f | %14.0f | %7.2fx | %10.0f\n" d
          sh.calls_per_sec si.calls_per_sec
          (sh.calls_per_sec /. Float.max 1e-9 si.calls_per_sec)
          sh.lock_waits;
        (d, sh, si))
      micro_sweep
  in
  Printf.printf "\n  mailbox: %d senders x %d msgs -> 1 receiver\n" mtasks
    mbox_iters;
  Printf.printf "  %-8s | %14s | %14s | %8s | %10s\n" "domains"
    "batched m/s" "lock/msg m/s" "speedup" "batch avg";
  Printf.printf "  %s\n" (String.make 64 '-');
  let mbox =
    List.map
      (fun d ->
        let cell legacy =
          best_of fst (fun () ->
              micro_mailbox ~domains:d ~senders:mtasks ~iters:mbox_iters
                ~legacy)
        in
        let b, avg = cell false in
        let l, _ = cell true in
        Printf.printf "  %-8d | %14.0f | %14.0f | %7.2fx | %10.1f\n" d b l
          (b /. Float.max 1e-9 l)
          avg;
        (d, b, l, avg))
      micro_sweep
  in
  Printf.printf "\n  timer wheel: %d tasks x %d arms (15/16 cancelled)\n"
    mtasks tmr_iters;
  Printf.printf "  %-8s | %14s | %10s | %10s | %10s\n" "domains" "arms/s"
    "max depth" "fired" "purged";
  Printf.printf "  %s\n" (String.make 64 '-');
  let tmr =
    List.map
      (fun d ->
        let r =
          best_of
            (fun r -> r.arms_per_sec)
            (fun () -> micro_timer ~domains:d ~tasks:mtasks ~iters:tmr_iters)
        in
        Printf.printf "  %-8d | %14.0f | %10d | %10d | %10d\n" d
          r.arms_per_sec r.wheel.Runtime_mc.max_depth
          r.wheel.Runtime_mc.fired r.wheel.Runtime_mc.purged;
        (d, r))
      micro_sweep
  in
  Option.iter
    (fun path ->
      let open Obs.Json in
      let num k v = (k, F v) in
      let doc =
        ( "meta",
          O
            (Obs.Meta.standard ~runtime:"mc"
               ~domains:(List.fold_left max 1 sweep)
               ~gc_minor_words_per_op:base.minor_words_per_op
               ~extra:
                 [
                   ("tool", S "bench parallel");
                   ("m", I m);
                   ("n", I n);
                   ("stripes", I stripes);
                   ("block_size", I block_size);
                   ("clients", I clients);
                   ("ops", I ops);
                   ("hw_cores", I hw);
                   ("smoke", B !smoke);
                   ("gf_kernel", S Gf256.Kernel.(name (default ())));
                   ("simd_level", I Gf256.Kernel.simd_level);
                 ]
               ()) )
        :: List.map
             (fun r ->
               let resumed, parks, wakeups = r.sched in
               ( Printf.sprintf "domains_%d" r.domains,
                 O
                   [
                     ("domains", I r.domains);
                     ("ops_done", I r.ops_done);
                     ("aborted", I r.aborted);
                     ("unavailable", I r.unavailable);
                     num "elapsed_s" r.elapsed;
                     num "ops_per_sec" r.ops_per_sec;
                     num "p50_ms" (pct r 50. *. 1e3);
                     num "p99_ms" (pct r 99. *. 1e3);
                     num "speedup_vs_1"
                       (if base.ops_per_sec > 0. then
                          r.ops_per_sec /. base.ops_per_sec
                        else 0.);
                     num "sched_resumed" resumed;
                     num "sched_parks" parks;
                     num "sched_wakeups" wakeups;
                   ] ))
             results
        @ List.map
            (fun (d, sh, si) ->
              ( Printf.sprintf "micro_pending_d%d" d,
                O
                  [
                    ("domains", I d);
                    num "sharded_calls_per_sec" sh.calls_per_sec;
                    num "single_calls_per_sec" si.calls_per_sec;
                    num "speedup"
                      (sh.calls_per_sec /. Float.max 1e-9 si.calls_per_sec);
                    num "shard_lock_waits" sh.lock_waits;
                  ] ))
            pend
        @ List.map
            (fun (d, b, l, avg) ->
              ( Printf.sprintf "micro_mailbox_d%d" d,
                O
                  [
                    ("domains", I d);
                    num "batched_msgs_per_sec" b;
                    num "legacy_msgs_per_sec" l;
                    num "speedup" (b /. Float.max 1e-9 l);
                    num "avg_drain_batch" avg;
                  ] ))
            mbox
        @ List.map
            (fun (d, r) ->
              ( Printf.sprintf "micro_timer_d%d" d,
                O
                  [
                    ("domains", I d);
                    num "arms_per_sec" r.arms_per_sec;
                    ("wheel_max_depth", I r.wheel.Runtime_mc.max_depth);
                    ("wheel_fired", I r.wheel.Runtime_mc.fired);
                    ("wheel_purged", I r.wheel.Runtime_mc.purged);
                  ] ))
            tmr
      in
      to_file path (O doc);
      Printf.printf "  wrote %s\n" path)
    !json_out
