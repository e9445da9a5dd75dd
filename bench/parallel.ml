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
  timer_wakeups : float;  (* runtime.wheel.wakeups: timer-thread returns *)
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
      (Metrics.Registry.counter cluster.Core.Cluster.metrics ("runtime." ^ name))
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
    sched =
      (counter "sched.resumed", counter "sched.parks", counter "sched.wakeups");
    timer_wakeups = counter "wheel.wakeups";
  }

let pct r p =
  if Metrics.Hist.count r.lat = 0 then 0. else Metrics.Hist.percentile r.lat p

(* --- hot-path microbenches (DESIGN 4h) ------------------------------

   One cell per mc hot path at each domain count: the RPC pending
   table, the batched mailbox and the timer queue. DESIGN 4h records
   the comparisons that settled each structure; no alternative is
   kept in the tree just to be measured here. *)

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

let micro_pending ~domains ~tasks ~iters =
  let pool = Runtime_mc.create ~domains () in
  let rt = Runtime_mc.runtime pool in
  let members = [ 0; 1; 2 ] in
  let transport = loopback ~n:(3 + tasks) in
  let rpc =
    Quorum.Rpc.create ~rt ~transport
      ~req_bytes:(fun () -> 0)
      ~rep_bytes:(fun () -> 0)
      ()
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
  float_of_int (tasks * iters) /. Float.max 1e-9 elapsed

(* [senders] concurrent producers, one consumer; throughput is
   measured to the instant the consumer has received every message.

   Producers run under a credit window, mirroring how the transport is
   actually driven: a coordinator never has more than a quorum round's
   worth of messages outstanding, because [Rpc.call] blocks on the
   replies. After every [window] sends the producer waits for a credit
   from the consumer, carried over a per-sender ack mailbox. An
   unthrottled flood would instead measure the OS scheduler on an
   oversubscribed host: producers that never block burn whole
   timeslices while the runnable consumer waits in the run queue, a
   stall the transport's natural flow control never sees. *)
let mb_window = 256

let micro_mailbox ~domains ~senders ~iters =
  let pool = Runtime_mc.create ~domains () in
  let rt = Runtime_mc.runtime pool in
  let total = senders * iters in
  let t0 = Unix.gettimeofday () in
  let finish = ref t0 in
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
  ( float_of_int total /. Float.max 1e-9 (!finish -. t0),
    if batches = 0 then 0. else float_of_int msgs /. float_of_int batches )

type timer_result = { arms_per_sec : float; timers : Runtime_mc.timer_stats }

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
  let timers = Runtime_mc.timer_stats pool in
  Runtime_mc.shutdown pool;
  {
    arms_per_sec = float_of_int (tasks * iters) /. Float.max 1e-9 elapsed;
    timers;
  }

(* One-shot microbench timings on a shared host swing by 3x or more
   with scheduler luck. Each cell runs [trials] times and the best
   (least-interference) run is reported. *)
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
  Printf.printf
    "  %-8s | %10s | %12s | %10s | %10s | %8s | %10s | %8s | %8s | %8s\n"
    "domains" "ops done" "ops/sec" "p50 (ms)" "p99 (ms)" "speedup"
    "resumed/op" "parks" "wakeups" "timer wk";
  Printf.printf "  %s\n" (String.make 118 '-');
  List.iter
    (fun r ->
      let resumed, parks, wakeups = r.sched in
      Printf.printf
        "  %-8d | %10d | %12.0f | %10.3f | %10.3f | %7.2fx | %10.1f | %8.0f \
         | %8.0f | %8.0f\n"
        r.domains r.ops_done r.ops_per_sec
        (pct r 50. *. 1e3)
        (pct r 99. *. 1e3)
        (if base.ops_per_sec > 0. then r.ops_per_sec /. base.ops_per_sec
         else 0.)
        (resumed /. float_of_int (max 1 r.ops_done))
        parks wakeups r.timer_wakeups)
    results;
  Printf.printf "  gc: %.0f minor words per op (1-domain run)\n"
    base.minor_words_per_op;
  let micro_sweep = if !smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let mtasks = if !smoke then 2 else 4 in
  let pend_iters = if !smoke then 300 else 1500 in
  let mbox_iters = if !smoke then 4000 else 20000 in
  let tmr_iters = if !smoke then 4000 else 15000 in
  let cells title header f =
    Printf.printf "\n  %s\n" title;
    Printf.printf "  %-8s | %s\n" "domains" header;
    Printf.printf "  %s\n" (String.make 64 '-');
    List.map
      (fun d ->
        let r, line = f d in
        Printf.printf "  %-8d | %s\n" d line;
        (d, r))
      micro_sweep
  in
  let pend =
    cells
      (Printf.sprintf
         "pending table: %d tasks x %d calls (quorum 2/3, loopback transport)"
         mtasks pend_iters)
      (Printf.sprintf "%14s" "calls/s")
      (fun d ->
        let r =
          best_of Fun.id (fun () ->
              micro_pending ~domains:d ~tasks:mtasks ~iters:pend_iters)
        in
        (r, Printf.sprintf "%14.0f" r))
  in
  let mbox =
    cells
      (Printf.sprintf "mailbox: %d senders x %d msgs -> 1 receiver" mtasks
         mbox_iters)
      (Printf.sprintf "%14s | %10s" "msgs/s" "batch avg")
      (fun d ->
        let ((rate, avg) as r) =
          best_of fst (fun () ->
              micro_mailbox ~domains:d ~senders:mtasks ~iters:mbox_iters)
        in
        (r, Printf.sprintf "%14.0f | %10.1f" rate avg))
  in
  let tmr =
    cells
      (Printf.sprintf "timer queue: %d tasks x %d arms (15/16 cancelled)"
         mtasks tmr_iters)
      (Printf.sprintf "%14s | %10s | %10s | %10s" "arms/s" "max depth" "fired"
         "purged")
      (fun d ->
        let r =
          best_of
            (fun r -> r.arms_per_sec)
            (fun () -> micro_timer ~domains:d ~tasks:mtasks ~iters:tmr_iters)
        in
        ( r,
          Printf.sprintf "%14.0f | %10d | %10d | %10d" r.arms_per_sec
            r.timers.Runtime_mc.max_depth r.timers.Runtime_mc.fired
            r.timers.Runtime_mc.purged ))
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
                     num "timer_wakeups" r.timer_wakeups;
                   ] ))
             results
        @ List.map
            (fun (d, calls) ->
              ( Printf.sprintf "micro_pending_d%d" d,
                O [ ("domains", I d); num "calls_per_sec" calls ] ))
            pend
        @ List.map
            (fun (d, (rate, avg)) ->
              ( Printf.sprintf "micro_mailbox_d%d" d,
                O
                  [
                    ("domains", I d);
                    num "msgs_per_sec" rate;
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
                    ("wheel_max_depth", I r.timers.Runtime_mc.max_depth);
                    ("wheel_fired", I r.timers.Runtime_mc.fired);
                    ("wheel_purged", I r.timers.Runtime_mc.purged);
                  ] ))
            tmr
      in
      to_file path (O doc);
      Printf.printf "  wrote %s\n" path)
    !json_out
