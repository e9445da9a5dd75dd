(* The virtual-disk benchmark: one FAB volume on the multicore backend
   (one worker domain), driven by a seeded traffic mix, checked block by
   block, and summarized as one JSON line.

     vdbench.exe --workload NAME --seed N --seconds S --trace 0|1
     vdbench.exe --self-test

   A run (--trace 0) sets the deployment up [setup_reps] times (create,
   prefill every stripe, warm up) and keeps the last one; runs an
   open-loop phase (Poisson arrivals at the workload's fixed offered
   rate, each op timed from its due time) and a closed-loop phase (two
   clients on distinct coordinators, queue depth 2); reads the whole
   volume back; then replays the same generator and seed on the
   deterministic simulator for delta-unit latencies. Its cost metric is
   the closed loop's CPU time per op in units of a reference loop timed
   on the same CPU, which cancels the host's speed. A traced run
   (--trace 1) measures the layers from outside instead: registry
   counters over an untraced closed-loop phase, an Obs.Stats sink over
   a traced open- and closed-loop phase, runtime counters after
   shutdown, and codec calls timed directly. README.md has the why. *)

let now = Unix.gettimeofday
let t_start = now ()

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Process CPU seconds, all threads. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fixed reference computation that shares no code with the system
   under test: fill and hash a 4 KiB buffer and churn a small table,
   the mix of byte work, allocation and pointer chasing a FAB op does.
   On a shared host the CPU's speed drifts by a quarter from minute to
   minute; CPU time divided by this loop's time cancels that drift
   (README.md). Returns reference loops per second: the median of 7
   batches, so a stall inside one batch does not count. *)
let ref_rate () =
  let b = Bytes.create 4096 and tbl = Hashtbl.create 64 in
  let step i =
    Bytes.fill b 0 4096 (Char.unsafe_chr (i land 255));
    let h = ref i in
    for k = 0 to 4095 do
      h := (!h lxor Char.code (Bytes.unsafe_get b k)) * 0x100000001b3
    done;
    Hashtbl.replace tbl (i land 1023) (Bytes.sub b 0 64, !h)
  in
  let iters = 2000 in
  let batch () =
    let t0 = now () in
    for i = 1 to iters do
      step i
    done;
    float_of_int iters /. (now () -. t0)
  in
  median (List.init 7 (fun _ -> batch ()))

(* Progress on stderr; the result goes to stdout. *)
let log fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "[%8.3f] %s\n%!" (now () -. t_start) s)
    fmt

(* ---- workloads ----------------------------------------------------- *)

type workload = {
  name : string;
  m : int;
  n : int;
  block_size : int;
  stripes : int;
  spec : Workload.Gen.spec;
  rate : float;  (* open-loop offered load, ops/s *)
  crash : int option;  (* brick down from the end of prefill on *)
  warmup_ops : int;
  sim_ops : int;
  sim_rate : float;  (* sim-pass arrivals per delta *)
}

let kib = 1024

(* Sim-pass arrival rates keep each write p99 inside one latency
   mode: at 0.25-0.5 per delta the oltp-small p99 flips from seed to
   seed between the no-retry and the one-retry mode, and at 0.75 the
   degraded-web p99 does (README.md).

   Offered rates sit at a quarter to a third of each workload's
   closed-loop ops_s on a quiet 2-vCPU host, so that the open loop
   stays clear of saturation when the host steals CPU (README.md). *)
let workloads =
  [
    {
      name = "oltp-small";
      m = 2;
      n = 4;
      block_size = 4 * kib;
      stripes = 1024;
      spec = Workload.Gen.oltp;
      rate = 300.;
      crash = None;
      warmup_ops = 1000;
      sim_ops = 6000;
      sim_rate = 0.75;
    };
    {
      name = "stream-large";
      m = 5;
      n = 8;
      block_size = 64 * kib;
      stripes = 128;
      spec =
        { Workload.Gen.read_fraction = 0.5; addr = Sequential; op_blocks = 5 };
      rate = 20.;
      crash = None;
      warmup_ops = 60;
      sim_ops = 3000;
      sim_rate = 0.75;
    };
    {
      name = "degraded-web";
      m = 5;
      n = 8;
      block_size = 4 * kib;
      (* 5120 blocks = 1024 Zipf buckets of exactly one stripe each, so
         the share of reads landing on the crashed brick's position is
         1/m whatever the skew. *)
      stripes = 1024;
      (* web_server's read mix with a milder skew: under Zipf 0.99 the
         hottest stripes' concurrent recoveries kept aborting each other
         past every retry (README.md). *)
      spec = { Workload.Gen.web_server with addr = Zipf 0.5 };
      rate = 300.;
      (* A data brick that coordinates no client: clients use bricks 0
         and 1, and a crashed coordinator cancels its own ops. *)
      crash = Some 4;
      warmup_ops = 600;
      sim_ops = 24000;
      sim_rate = 0.5;
    };
  ]

let setup_reps = 3
let open_share = 0.6  (* of --seconds; the closed-loop phase gets the rest *)
let clients = 2

(* Open-loop latency medians are the median, over this many equal
   windows of the open loop, of each window's median. *)
let latency_windows = 4

(* As bench/parallel.ml. With Fab.Volume.create's default of 3,
   degraded-web lost ops to three straight aborts on contended stripes
   (README.md). *)
let op_retries = 8
let minor_heap_words = 4_194_304  (* 32 MiB, as bench/main.ml *)

(* The open-loop generator fell behind its schedule: the run is
   invalid, not slow. Host stalls alone reach ~14 ms (README.md). *)
let late_limit_ms = 25.

(* Wall-clock bound on draining one phase; a stuck op fails the run
   instead of hanging it. *)
let drain_timeout = 60.

(* Simulated network of the sim pass: unit delay plus uniform jitter,
   so delta-unit percentiles depend on the seed (and only on it). *)
let sim_net = { Simnet.Net.default_config with jitter = 0.5 }

(* Sim-pass block size. Delta latencies, rounds and message counts do
   not depend on it, and the wire counts only block payloads
   (Core.Message.bytes_on_wire), so sim.kib_per_op scales exactly to
   the workload's block size; small blocks keep the pass cheap. *)
let sim_block_size = 64

(* ---- samples ------------------------------------------------------- *)

module Samples = struct
  (* Values with the time each was due. *)
  type t = {
    lock : Mutex.t;
    mutable a : float array;
    mutable at : float array;
    mutable n : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      a = Array.make 1024 0.;
      at = Array.make 1024 0.;
      n = 0;
    }

  let add t ~at x =
    Mutex.lock t.lock;
    if t.n = Array.length t.a then begin
      let grow a =
        let b = Array.make (2 * t.n) 0. in
        Array.blit a 0 b 0 t.n;
        b
      in
      t.a <- grow t.a;
      t.at <- grow t.at
    end;
    t.a.(t.n) <- x;
    t.at.(t.n) <- at;
    t.n <- t.n + 1;
    Mutex.unlock t.lock

  let count t = t.n

  (* Nearest rank; [nan] when empty. *)
  let pct_of a p =
    let a = Array.copy a in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then nan
    else
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))

  let pct t p = pct_of (Array.sub t.a 0 t.n) p

  (* Samples strictly beyond the nearest-rank [p]th percentile. *)
  let beyond_n n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))
  let beyond t p = beyond_n t.n p

  (* The values due in each of [k] equal windows of [t0, t0 + span). *)
  let windows t ~t0 ~span ~k =
    let w = Array.make k [] in
    for i = t.n - 1 downto 0 do
      let j = int_of_float ((t.at.(i) -. t0) /. span *. float_of_int k) in
      if j >= 0 && j < k then w.(j) <- t.a.(i) :: w.(j)
    done;
    Array.map Array.of_list w

  (* Median over [k] windows of each window's [p]th percentile: a host
     stall that spoils one window does not move it. *)
  let windowed t ~t0 ~span ~k p =
    median
      (List.filter_map
         (fun a -> if Array.length a = 0 then None else Some (pct_of a p))
         (Array.to_list (windows t ~t0 ~span ~k)))

  (* The fewest samples beyond [p] in any window. *)
  let min_beyond t ~t0 ~span ~k p =
    Array.fold_left
      (fun acc a -> min acc (beyond_n (Array.length a) p))
      max_int (windows t ~t0 ~span ~k)
end

(* ---- deployments --------------------------------------------------- *)

type dep = {
  wl : workload;
  cluster : Core.Cluster.t;
  volume : Fab.Volume.t;
  reg : Blockfmt.registry;
  tally : Blockfmt.tally;
  ops : int Atomic.t;  (* volume ops run on this deployment *)
  clock : unit -> float;
}

let of_cluster wl cluster ~clock =
  {
    wl;
    cluster;
    volume =
      Fab.Volume.of_cluster ~cluster ~m:wl.m ~stripes:wl.stripes
        ~block_size:wl.block_size ~op_retries ~stripe_offset:0 ();
    reg = Blockfmt.registry ();
    tally = Blockfmt.tally ();
    ops = Atomic.make 0;
    clock;
  }

let rt dep = dep.cluster.Core.Cluster.runtime

let drain dep what =
  if not (Core.Cluster.try_quiesce ~timeout:drain_timeout dep.cluster) then begin
    Printf.eprintf "vdbench: %s: ops still running after %.0f s\n%!" what
      drain_timeout;
    exit 3
  end

(* One volume op by [coord]; returns its completion time (taken before
   the returned blocks are checked) and whether it succeeded. *)
let exec dep ~coord (op : Workload.Gen.op) =
  let bs = dep.wl.block_size in
  Atomic.incr dep.ops;
  match op.kind with
  | `Read -> (
      let r = Fab.Volume.read dep.volume ~coord ~lba:op.lba ~count:op.count in
      let t = dep.clock () in
      match r with
      | Ok buf ->
          Blockfmt.check dep.reg dep.tally ~lba:op.lba ~count:op.count
            ~block_size:bs buf;
          (t, true)
      | Error e ->
          log "read failed: lba %d count %d (%s)" op.lba op.count
            (match e with `Aborted -> "aborted" | `Unavailable -> "unavailable");
          (t, false))
  | `Write ->
      let data =
        Blockfmt.issue dep.reg ~writer:(coord + 1) ~lba:op.lba ~count:op.count
          ~block_size:bs
      in
      let r = Fab.Volume.write dep.volume ~coord ~lba:op.lba data in
      (match r with
      | Ok () -> ()
      | Error e ->
          log "write failed: lba %d count %d (%s)" op.lba op.count
            (match e with `Aborted -> "aborted" | `Unavailable -> "unavailable"));
      (dep.clock (), Result.is_ok r)

(* [kind] every stripe once, whole-stripe ops, [tasks] in flight;
   returns how many failed. *)
let sweep dep ~kind ~tasks ~run =
  let wl = dep.wl in
  let failed = Atomic.make 0 and next = Atomic.make 0 in
  for k = 0 to tasks - 1 do
    Runtime.spawn (rt dep) (fun () ->
        let rec loop () =
          let s = Atomic.fetch_and_add next 1 in
          if s < wl.stripes then begin
            let op = { Workload.Gen.kind; lba = s * wl.m; count = wl.m } in
            let _, ok = exec dep ~coord:(k mod clients) op in
            if not ok then Atomic.incr failed;
            loop ()
          end
        in
        loop ())
  done;
  run ();
  Atomic.get failed

let prefill dep ~run =
  if sweep dep ~kind:`Write ~tasks:4 ~run > 0 then begin
    prerr_endline "vdbench: prefill: a stripe write failed";
    exit 3
  end

(* The op stream: one seeded generator shared by every client. *)
type source = { gen : Workload.Gen.t; glock : Mutex.t }

let source dep ~seed =
  {
    gen =
      Workload.Gen.make dep.wl.spec
        ~capacity_blocks:(Fab.Volume.capacity_blocks dep.volume)
        ~rng:(Random.State.make [| seed; 0 |]);
    glock = Mutex.create ();
  }

let draw src =
  Mutex.lock src.glock;
  let op = Workload.Gen.next src.gen in
  Mutex.unlock src.glock;
  op

(* Does a read touch the crashed brick? The layout is the identity, so
   brick i holds block position i of every stripe. *)
let touches_dead dep (op : Workload.Gen.op) =
  match dep.wl.crash with
  | None -> false
  | Some b ->
      let rec any i =
        i < op.count && ((op.lba + i) mod dep.wl.m = b || any (i + 1))
      in
      any 0

type phase = {
  mutable t0 : float;  (* the window samples are due in *)
  mutable span : float;
  reads : Samples.t;  (* latency, seconds (delta on sim) *)
  writes : Samples.t;
  late : Samples.t;  (* open loop: spawn time minus due time *)
  attempted : int Atomic.t;
  failed : int Atomic.t;
  dead_reads : int Atomic.t;
}

let phase () =
  {
    t0 = 0.;
    span = 0.;
    reads = Samples.create ();
    writes = Samples.create ();
    late = Samples.create ();
    attempted = Atomic.make 0;
    failed = Atomic.make 0;
    dead_reads = Atomic.make 0;
  }

let record dep ph (op : Workload.Gen.op) ~ok ~at ~latency =
  Atomic.incr ph.attempted;
  if not ok then Atomic.incr ph.failed
  else
    match op.kind with
    | `Read ->
        Samples.add ph.reads ~at latency;
        if touches_dead dep op then Atomic.incr ph.dead_reads
    | `Write -> Samples.add ph.writes ~at latency

let exp_gap rng rate = -.Float.log (1. -. Random.State.float rng 1.) /. rate

(* Poisson arrivals at [dep.wl.rate] for [duration] seconds, op [i] on
   coordinator [i mod clients]; waits for the last op to finish. *)
let open_loop dep src ~rng ph ~duration =
  let t0 = now () +. 0.001 in
  let stop = t0 +. duration in
  let due = ref t0 and i = ref 0 in
  ph.t0 <- t0;
  ph.span <- duration;
  while !due < stop do
    let wait = !due -. now () in
    if wait > 0. then Unix.sleepf wait;
    let d = !due in
    let op = draw src in
    let coord = !i mod clients in
    Runtime.spawn (rt dep) (fun () ->
        let t, ok = exec dep ~coord op in
        record dep ph op ~ok ~at:d ~latency:(t -. d));
    Samples.add ph.late ~at:d (now () -. d);
    incr i;
    due := !due +. exp_gap rng dep.wl.rate
  done;
  drain dep "open loop"

(* [clients] closed-loop clients on distinct coordinators for
   [duration] seconds; returns the median over [windows] equal windows
   of ops completed per second, so a host stall that eats part of one
   window does not move the figure. *)
let windows = 8

let closed_loop dep src ph ~duration =
  let t0 = now () in
  let stop = t0 +. duration in
  let width = duration /. float_of_int windows in
  let completed = Array.init windows (fun _ -> Atomic.make 0) in
  for coord = 0 to clients - 1 do
    Runtime.spawn (rt dep) (fun () ->
        while now () < stop do
          let op = draw src in
          let started = now () in
          let t, ok = exec dep ~coord op in
          record dep ph op ~ok ~at:started ~latency:(t -. started);
          let w = int_of_float ((t -. t0) /. width) in
          if ok && w < windows then Atomic.incr completed.(w)
        done)
  done;
  drain dep "closed loop";
  median
    (Array.to_list
       (Array.map (fun c -> float_of_int (Atomic.get c) /. width) completed))

(* Fixed-count closed-loop warm-up, part of set-up. *)
let warm_up dep src =
  for coord = 0 to clients - 1 do
    Runtime.spawn (rt dep) (fun () ->
        for _ = 1 to dep.wl.warmup_ops / clients do
          ignore (exec dep ~coord (draw src))
        done)
  done;
  drain dep "warm-up"

let read_back dep =
  sweep dep ~kind:`Read ~tasks:16 ~run:(fun () -> drain dep "read-back")

(* Create, prefill, warm up, crash the workload's brick: the part
   [setup_s] times. *)
let set_up wl ~seed =
  let cluster =
    Core.Cluster.create_mc ~domains:1 ~block_size:wl.block_size ~m:wl.m
      ~n:wl.n ()
  in
  let dep = of_cluster wl cluster ~clock:now in
  prefill dep ~run:(fun () -> drain dep "prefill");
  let src = source dep ~seed in
  warm_up dep src;
  Option.iter (Core.Cluster.crash cluster) wl.crash;
  (dep, src)

(* Fold over every (brick, stripe) log. Call after shutdown, when no
   handler can touch a log. *)
let fold_logs dep f init =
  Array.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc stripe ->
          match Core.Replica.log r ~stripe with
          | None -> acc
          | Some log -> f acc log)
        acc (Core.Replica.stripes r))
    init dep.cluster.Core.Cluster.replicas

(* Bytes held in every brick's log over live user bytes. *)
let space_amp dep =
  let held =
    fold_logs dep
      (fun acc log ->
        List.fold_left
          (fun acc (_, b) ->
            match b with Some b -> acc + Bytes.length b | None -> acc)
          acc (Core.Slog.entries log))
      0
  in
  float_of_int held
  /. float_of_int (Fab.Volume.capacity_blocks dep.volume * dep.wl.block_size)

let versions_per_block dep =
  let entries, logs =
    fold_logs dep (fun (e, l) log -> (e + Core.Slog.size log, l + 1)) (0, 0)
  in
  float_of_int entries /. float_of_int (max 1 logs)

(* ---- the sim pass -------------------------------------------------- *)

(* Quorum rounds (phase starts) per span kind. *)
let rounds_sink () =
  let kind_of = Hashtbl.create 64 and rounds = Hashtbl.create 8 in
  let sink =
    Obs.Sink.make (fun ev ->
        match ev.Obs.kind with
        | Obs.Span_start { op_kind; _ } -> Hashtbl.replace kind_of ev.op op_kind
        | Obs.Phase_start -> (
            match Hashtbl.find_opt kind_of ev.op with
            | Some k ->
                Hashtbl.replace rounds k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt rounds k))
            | None -> ())
        | Obs.Span_end _ -> Hashtbl.remove kind_of ev.op
        | _ -> ())
  in
  let total kinds =
    List.fold_left
      (fun acc k -> acc + Option.value ~default:0 (Hashtbl.find_opt rounds k))
      0 kinds
  in
  (sink, total)

type sim_result = {
  sim_e2e : (string * float * string) list;  (* the sim_* metrics *)
  sim_counts : (string * float * string) list;  (* the sim.* metrics *)
  sim_dep : dep;
  sim_failed : int;
}

let sim_pass wl ~seed =
  let cluster =
    Core.Cluster.create ~seed ~net_config:sim_net ~block_size:sim_block_size
      ~m:wl.m ~n:wl.n ()
  in
  let rt = cluster.Core.Cluster.runtime in
  let dep =
    of_cluster { wl with block_size = sim_block_size } cluster
      ~clock:(fun () -> Runtime.now rt)
  in
  let run () = Core.Cluster.run ~horizon:1e12 cluster in
  prefill dep ~run;
  Option.iter (Core.Cluster.crash cluster) wl.crash;
  let sink, rounds = rounds_sink () in
  Obs.add_sink cluster.Core.Cluster.obs sink;
  let before = Core.Cluster.snapshot cluster in
  let src = source dep ~seed in
  let arrivals = Random.State.make [| seed; 1 |] in
  let ph = phase () in
  let gap = ref 0. and t0 = Runtime.now rt in
  for i = 0 to wl.sim_ops - 1 do
    let op = draw src in
    gap := !gap +. exp_gap arrivals wl.sim_rate;
    let due = t0 +. !gap in
    ignore
      (Runtime.timer rt ~delay:!gap (fun () ->
           Runtime.spawn rt (fun () ->
               let t, ok = exec dep ~coord:(i mod clients) op in
               record dep ph op ~ok ~at:due ~latency:(t -. due))))
  done;
  run ();
  let after = Core.Cluster.snapshot cluster in
  let delta name =
    Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name
  in
  let ops = float_of_int (Atomic.get ph.attempted) in
  let per_read k = float_of_int k /. float_of_int (Samples.count ph.reads) in
  let per_write k = float_of_int k /. float_of_int (Samples.count ph.writes) in
  let d = "delta" in
  {
    sim_e2e =
      [
        ("sim_read_p50_delta", Samples.pct ph.reads 50., d);
        ("sim_read_p99_delta", Samples.pct ph.reads 99., d);
        ("sim_write_p50_delta", Samples.pct ph.writes 50., d);
        ("sim_write_p99_delta", Samples.pct ph.writes 99., d);
      ];
    sim_counts =
      [
        ( "sim.msgs_per_op",
          (delta "net.msgs" +. delta "net.msgs.bg") /. ops,
          "msgs/op" );
        ( "sim.kib_per_op",
          (delta "net.bytes" +. delta "net.bytes.bg")
          /. float_of_int sim_block_size *. float_of_int wl.block_size /. 1024.
          /. ops,
          "KiB/op" );
        (* Recover spans are charged to reads, the path that starts
           them outside retries. *)
        ( "sim.rounds_per_read",
          per_read (rounds [ "read-blocks"; "read-stripe"; "read-block"; "recover" ]),
          "rounds/read" );
        ( "sim.rounds_per_write",
          per_write (rounds [ "write-blocks"; "write-stripe"; "write-block" ]),
          "rounds/write" );
        ("sim.retransmits_per_kop", delta "rpc.retries" /. ops *. 1000., "1/kop");
        ("sim.disk_writes_per_op", delta "disk.writes" /. ops, "blocks/op");
      ];
    sim_dep = dep;
    sim_failed = Atomic.get ph.failed;
  }

(* ---- output -------------------------------------------------------- *)

let json_float f =
  if Float.is_nan f then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_str s = "\"" ^ Obs.Json.escape s ^ "\""

let emit_meta fields = Printf.printf "{\"meta\": %s}\n%!" (Obs.Json.obj fields)

(* The last line of stdout; exits 1 when a read-back check failed. *)
let finish dep ~attempted ~failed ~rb_failed metrics =
  let correct = Blockfmt.errors dep.tally = 0 && rb_failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name)
              (json_float v) (json_str unit))
          metrics));
  if not correct then begin
    prerr_endline "vdbench: read-back check failed (see meta)";
    exit 1
  end

let ms x = x *. 1000.

let dead_read_pct ph =
  100. *. float_of_int (Atomic.get ph.dead_reads)
  /. float_of_int (max 1 (Samples.count ph.reads))

let base_meta wl ~seed ~seconds ~trace dep =
  let gc = Gc.get () in
  [
    ("git", Obs.Json.S (Obs.Meta.git_commit ()));
    ("date", Obs.Json.S (Obs.Meta.iso_date ()));
    ("ocaml_version", Obs.Json.S Sys.ocaml_version);
    ("hw_cores", Obs.Json.I (Runtime_mc.hw_cores ()));
    ("runtime", Obs.Json.S "mc");
    ("domains", Obs.Json.I 1);
    ( "gf_kernel",
      Obs.Json.S (Erasure.Codec.kernel_name (Fab.Volume.codec dep.volume)) );
    ("workload", Obs.Json.S wl.name);
    ("m", Obs.Json.I wl.m);
    ("n", Obs.Json.I wl.n);
    ("block_size", Obs.Json.I wl.block_size);
    ("stripes", Obs.Json.I wl.stripes);
    ("volume_bytes", Obs.Json.I (wl.stripes * wl.m * wl.block_size));
    ("offered_ops_s", Obs.Json.F wl.rate);
    ("closed_loop_clients", Obs.Json.I clients);
    ("op_retries", Obs.Json.I op_retries);
    ("seed", Obs.Json.I seed);
    ("seconds", Obs.Json.I seconds);
    ("trace", Obs.Json.B trace);
    ("setup_reps", Obs.Json.I setup_reps);
    ("gc_minor_heap_words", Obs.Json.I gc.Gc.minor_heap_size);
    ("gc_space_overhead", Obs.Json.I gc.Gc.space_overhead);
    ("sim_jitter", Obs.Json.F sim_net.Simnet.Net.jitter);
    ("sim_rate_per_delta", Obs.Json.F wl.sim_rate);
    ("sim_block_size", Obs.Json.I sim_block_size);
    ("sim_ops", Obs.Json.I wl.sim_ops);
  ]

let p50 ph s = Samples.windowed s ~t0:ph.t0 ~span:ph.span ~k:latency_windows 50.

(* The open loop's validity and latencies. A run is invalid, not slow,
   when the generator fell behind its schedule or a window's median
   lacks ten samples beyond it. The latencies are printed (a tail only
   when ten samples lie beyond it) but are not metrics: on a shared
   host they spread from run to run more than any bound allows
   (README.md). *)
let open_meta ph =
  let late = ms (Samples.pct ph.late 99.) in
  let reasons =
    (if late > late_limit_ms then
       [ Printf.sprintf "generator late p99 %.3f ms > %.0f ms" late late_limit_ms ]
     else [])
    @ List.filter_map
        (fun (what, s) ->
          let b =
            Samples.min_beyond s ~t0:ph.t0 ~span:ph.span ~k:latency_windows 50.
          in
          if b < 10 then
            Some (Printf.sprintf "%s: a window has %d samples beyond p50" what b)
          else None)
        [ ("reads", ph.reads); ("writes", ph.writes) ]
  in
  if reasons <> [] then
    prerr_endline ("vdbench: run invalid: " ^ String.concat "; " reasons);
  let tail s q =
    if Samples.beyond s q < 10 then Obs.Json.S "unsupported"
    else Obs.Json.F (ms (Samples.pct s q))
  in
  ( late,
    [
      ("valid", Obs.Json.B (reasons = []));
      ("invalid_reasons", Obs.Json.S (String.concat "; " reasons));
      ("late_ms_p99", Obs.Json.F late);
      ("open_reads", Obs.Json.I (Samples.count ph.reads));
      ("open_writes", Obs.Json.I (Samples.count ph.writes));
      ("open_read_p50_ms", Obs.Json.F (ms (p50 ph ph.reads)));
      ("open_write_p50_ms", Obs.Json.F (ms (p50 ph ph.writes)));
      ("open_read_p90_ms", tail ph.reads 90.);
      ("open_read_p99_ms", tail ph.reads 99.);
      ("open_write_p90_ms", tail ph.writes 90.);
      ("open_write_p99_ms", tail ph.writes 99.);
      ("dead_brick_read_pct", Obs.Json.F (dead_read_pct ph));
    ] )

let check_meta dep ~rb_failed =
  let t = dep.tally in
  [
    ("readback_failed", Obs.Json.I rb_failed);
    ("blocks_checked", Obs.Json.I (Atomic.get t.Blockfmt.checked));
    ("bad_checksum", Obs.Json.I (Atomic.get t.bad_checksum));
    ("wrong_lba", Obs.Json.I (Atomic.get t.wrong_lba));
    ("unknown_content", Obs.Json.I (Atomic.get t.unknown));
  ]

let sum_phases f phases =
  List.fold_left (fun acc ph -> acc + Atomic.get (f ph)) 0 phases

(* ---- runs ---------------------------------------------------------- *)

let run_plain wl ~seed ~seconds =
  let setups = ref [] and kept = ref None in
  for _ = 1 to setup_reps do
    Option.iter (fun (d, _) -> Core.Cluster.shutdown d.cluster) !kept;
    kept := None;
    Gc.compact ();
    let t0 = now () in
    let d = set_up wl ~seed in
    setups := (now () -. t0) :: !setups;
    kept := Some d
  done;
  let dep, src = Option.get !kept in
  log "set up (median %.3f s)" (median !setups);
  (* Peak live heap over the run's quiescent points: what the
     deployment retains (slog versions, caches), not how much garbage
     the collector happened to let pile up. *)
  let peak_live = ref 0 in
  let sample_live () =
    Gc.full_major ();
    peak_live := max !peak_live (Gc.stat ()).Gc.live_words
  in
  sample_live ();
  let seconds_f = float_of_int seconds in
  let op_ph = phase () and cl_ph = phase () in
  open_loop dep src
    ~rng:(Random.State.make [| seed; 1 |])
    op_ph
    ~duration:(open_share *. seconds_f);
  sample_live ();
  let ref0 = ref_rate () in
  let cpu0 = cpu () in
  let ops_s =
    closed_loop dep src cl_ph ~duration:((1. -. open_share) *. seconds_f)
  in
  let cpu_per_op =
    (cpu () -. cpu0) /. float_of_int (Atomic.get cl_ph.attempted)
  in
  let ref_per_s = (ref0 +. ref_rate ()) /. 2. in
  sample_live ();
  log "timed phases done";
  let rb_failed = read_back dep in
  sample_live ();
  Core.Cluster.shutdown dep.cluster;
  let amp = space_amp dep in
  let sim = sim_pass wl ~seed in
  log "sim pass done";
  let phases = [ op_ph; cl_ph ] in
  let attempted = sum_phases (fun ph -> ph.attempted) phases in
  let failed = sum_phases (fun ph -> ph.failed) phases in
  let peak_mb =
    float_of_int (!peak_live * (Sys.word_size / 8)) /. 1048576.
  in
  let _, open_fields = open_meta op_ph in
  emit_meta
    (base_meta wl ~seed ~seconds ~trace:false dep
    @ open_fields
    @ [
        ("closed_ops", Obs.Json.I (Atomic.get cl_ph.attempted));
        ("closed_ops_s", Obs.Json.F ops_s);
        ("closed_cpu_us_per_op", Obs.Json.F (cpu_per_op *. 1e6));
        ("ref_loops_per_s", Obs.Json.F ref_per_s);
        ("open_failed", Obs.Json.I (Atomic.get op_ph.failed));
        ("closed_failed", Obs.Json.I (Atomic.get cl_ph.failed));
        ("sim_failed", Obs.Json.I sim.sim_failed);
        ( "setup_s_all",
          Obs.Json.S
            (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setups))
        );
      ]
    @ check_meta dep ~rb_failed);
  finish dep ~attempted ~failed
    ~rb_failed:(rb_failed + Blockfmt.errors sim.sim_dep.tally)
    ([
       ("op_cost_ref", cpu_per_op *. ref_per_s, "ref");
       ( "ok_pct",
         100. *. float_of_int (attempted - failed)
         /. float_of_int (max 1 attempted),
         "%" );
       ("space_amp", amp, "ratio");
       ("peak_heap_mb", peak_mb, "MiB");
       ("setup_s", median !setups, "s");
     ]
    @ sim.sim_e2e)

(* Median per-call time of [f] in microseconds, over 7 batches. *)
let time_us ~iters f =
  let batch () =
    let t0 = now () in
    for _ = 1 to iters do
      f ()
    done;
    (now () -. t0) /. float_of_int iters *. 1e6
  in
  median (List.init 7 (fun _ -> batch ()))

let codec_metrics wl codec =
  let bs = wl.block_size in
  let rng = Random.State.make [| 17 |] in
  let block () = Bytes.init bs (fun _ -> Char.chr (Random.State.int rng 256)) in
  let data = Array.init wl.m (fun _ -> block ()) in
  let into =
    Array.init wl.n (fun i -> if i < wl.m then data.(i) else Bytes.create bs)
  in
  Erasure.Codec.encode_into codec data ~into;
  (* m - 1 data blocks and the first parity block: a read that drew one
     parity member. *)
  let survivors =
    List.init wl.m (fun i ->
        if i = 0 then (wl.m, Bytes.copy into.(wl.m)) else (i, data.(i)))
  in
  let out = Array.init wl.m (fun _ -> Bytes.create bs) in
  let fresh = block () and d = Bytes.create bs in
  let iters = max 20 (4_000_000 / (bs * wl.m)) in
  [
    ( "erasure.codec.encode_us",
      time_us ~iters (fun () -> Erasure.Codec.encode_into codec data ~into),
      "us" );
    ( "erasure.codec.decode_us",
      time_us ~iters (fun () ->
          Erasure.Codec.decode_into codec survivors ~into:out),
      "us" );
    ( "erasure.codec.delta_us",
      time_us ~iters:(iters * wl.m) (fun () ->
          Erasure.Codec.delta_into ~old_data:data.(0) ~new_data:fresh ~into:d),
      "us" );
  ]

(* Run [f] on the worker domain and wait for it: with one domain every
   protocol allocation lands there, so its counters are the protocol's
   (bench/parallel.ml probes the same way). *)
let on_worker dep f =
  let r = ref None in
  let g = (rt dep).Runtime.gate () in
  Runtime.spawn (rt dep) (fun () ->
      r := Some (f ());
      g.Runtime.open_ ());
  g.Runtime.await ();
  Option.get !r

let run_traced wl ~seed ~seconds =
  let dep, src = set_up wl ~seed in
  let cluster = dep.cluster in
  let seconds_f = float_of_int seconds in
  (* Untraced closed loop: registry counts and allocation per op. *)
  let a_ph = phase () in
  let before = Core.Cluster.snapshot cluster in
  let words0 = on_worker dep Gc.minor_words in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let ops_s_plain = closed_loop dep src a_ph ~duration:(0.3 *. seconds_f) in
  let words1 = on_worker dep Gc.minor_words in
  let major1 = (Gc.quick_stat ()).Gc.major_collections in
  let after = Core.Cluster.snapshot cluster in
  let a_ops = float_of_int (Atomic.get a_ph.attempted) in
  let per_a name =
    (Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name)
    /. a_ops
  in
  (* Traced open and closed loop: the coordinator's phase breakdown. *)
  let stats = Obs.Stats.create ~retain:64 () in
  Obs.add_sink cluster.Core.Cluster.obs
    (Obs.Sink.serialized (Obs.Stats.sink stats));
  let b_ph = phase () and c_ph = phase () in
  open_loop dep src
    ~rng:(Random.State.make [| seed; 1 |])
    b_ph
    ~duration:(0.4 *. seconds_f);
  let ops_s_traced = closed_loop dep src c_ph ~duration:(0.3 *. seconds_f) in
  log "timed phases done";
  let traced_ops =
    float_of_int (sum_phases (fun ph -> ph.attempted) [ b_ph; c_ph ])
  in
  let codec = Fab.Volume.codec dep.volume in
  let hits, misses, _ = Erasure.Codec.plan_cache_stats codec in
  let rb_failed = read_back dep in
  Core.Cluster.shutdown cluster;
  let final = Core.Cluster.snapshot cluster in
  let get = Metrics.Snapshot.get final in
  let gc_removed =
    Array.fold_left
      (fun acc r -> acc + Core.Replica.gc_removed r)
      0 cluster.Core.Cluster.replicas
  in
  let writes_issued = Hashtbl.length dep.reg.Blockfmt.issued in
  let sim = sim_pass wl ~seed in
  log "sim pass done";
  let phase_stat p =
    match List.assoc_opt p (Obs.Stats.by_phase stats) with
    | Some s -> (Metrics.Summary.count s, Metrics.Summary.mean s)
    | None -> (0, 0.)
  in
  let phase_ms p = ms (snd (phase_stat p)) in
  let per_kop k = float_of_int k /. traced_ops *. 1000. in
  let retries =
    List.fold_left
      (fun acc (_, (_, _, r, _)) -> acc + r)
      0 (Obs.Stats.outcome_counts stats)
  in
  let late, open_fields = open_meta b_ph in
  let metrics =
    [
      ("core.coordinator.fast_read_ms", phase_ms Obs.Fast_read, "ms");
      ("core.coordinator.order_ms", phase_ms Obs.Order, "ms");
      ("core.coordinator.modify_ms", phase_ms Obs.Modify, "ms");
      ("core.coordinator.write_ms", phase_ms Obs.Write, "ms");
      ("core.coordinator.recover_ms", phase_ms Obs.Recover, "ms");
      ( "core.coordinator.recovers_per_kop",
        per_kop (fst (phase_stat Obs.Recover)),
        "1/kop" );
      ("core.coordinator.retries_per_kop", per_kop retries, "1/kop");
      ( "quorum.rpc.msgs_per_op",
        per_a "net.msgs" +. per_a "net.msgs.bg",
        "msgs/op" );
      ( "quorum.rpc.kib_per_op",
        (per_a "net.bytes" +. per_a "net.bytes.bg") /. 1024.,
        "KiB/op" );
      ("quorum.rpc.retransmits_per_kop", per_a "rpc.retries" *. 1000., "1/kop");
      ( "runtime_mc.timers_per_op",
        (get "runtime.wheel.fired" +. get "runtime.wheel.purged")
        /. float_of_int (Atomic.get dep.ops),
        "timers/op" );
      ( "runtime_mc.mailbox.msgs_per_drain",
        get "runtime.mailbox.drain.msgs"
        /. Float.max 1. (get "runtime.mailbox.drain.batches"),
        "msgs/drain" );
    ]
    @ codec_metrics wl codec
    @ [
        ( "erasure.codec.plan_hit_pct",
          100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)),
          "%" );
        ("brick.disk_reads_per_op", per_a "disk.reads", "blocks/op");
        ("brick.disk_writes_per_op", per_a "disk.writes", "blocks/op");
        ("brick.nvram_writes_per_op", per_a "nvram.writes", "writes/op");
        ( "core.slog.versions_per_block",
          versions_per_block dep,
          "entries/block" );
        ( "core.replica.gc_removed_per_write",
          float_of_int gc_removed /. float_of_int (max 1 writes_issued),
          "entries/write" );
        ("gc.minor_words_per_op", (words1 -. words0) /. a_ops, "words/op");
        ( "gc.major_per_kop",
          float_of_int (major1 - major0) /. a_ops *. 1000.,
          "1/kop" );
      ]
    @ sim.sim_counts
    @ [
        ("workload.gen.late_ms_p99", late, "ms");
        ("workload.dead_brick_read_pct", dead_read_pct b_ph, "%");
        ( "trace.overhead_pct",
          100. *. (ops_s_plain -. ops_s_traced) /. ops_s_plain,
          "%" );
      ]
  in
  let phases = [ a_ph; b_ph; c_ph ] in
  emit_meta
    (base_meta wl ~seed ~seconds ~trace:true dep
    @ open_fields
    @ [
        ("ops_s_untraced", Obs.Json.F ops_s_plain);
        ("ops_s_traced", Obs.Json.F ops_s_traced);
        ( "runtime_mc.mailbox.transit_us_p50",
          Obs.Json.S "absent: the mc transport emits no Msg_send/Msg_recv" );
      ]
    @ check_meta dep ~rb_failed);
  finish dep
    ~attempted:(sum_phases (fun ph -> ph.attempted) phases)
    ~failed:(sum_phases (fun ph -> ph.failed) phases)
    ~rb_failed:(rb_failed + Blockfmt.errors sim.sim_dep.tally)
    metrics

(* ---- self-test ----------------------------------------------------- *)

let self_test () =
  let failures = ref 0 in
  let expect what cond =
    Printf.printf "%s %s\n%!" (if cond then "ok  " else "FAIL") what;
    if not cond then incr failures
  in
  let render s =
    String.concat " "
      (List.map
         (fun (k, v, _) -> Printf.sprintf "%s=%.17g" k v)
         (s.sim_e2e @ s.sim_counts))
  in
  List.iter
    (fun wl ->
      let wl = { wl with sim_ops = min wl.sim_ops 2000 } in
      let a = sim_pass wl ~seed:1 and b = sim_pass wl ~seed:1 in
      let c = sim_pass wl ~seed:2 in
      expect (wl.name ^ ": same seed, byte-identical sim_* and sim.*")
        (render a = render b);
      expect (wl.name ^ ": another seed changes them") (render a <> render c);
      expect (wl.name ^ ": sim reads check clean")
        (Blockfmt.errors a.sim_dep.tally = 0
        && Atomic.get a.sim_dep.tally.checked > 0))
    workloads;
  (* Read a whole volume back, then corrupt the buffer. *)
  let wl = { (List.hd workloads) with stripes = 64; sim_ops = 200 } in
  let dep = (sim_pass wl ~seed:3).sim_dep in
  let cap = Fab.Volume.capacity_blocks dep.volume in
  let bs = sim_block_size in
  let buf =
    match
      Fab.Volume.run_op dep.volume (fun () ->
          Fab.Volume.read dep.volume ~coord:0 ~lba:0 ~count:cap)
    with
    | Some (Ok b) -> b
    | Some (Error _) | None -> failwith "self-test: read-back failed"
  in
  let verdicts b =
    let t = Blockfmt.tally () in
    Blockfmt.check dep.reg t ~lba:0 ~count:cap ~block_size:bs b;
    t
  in
  expect "clean read-back passes" (Blockfmt.errors (verdicts buf) = 0);
  let flipped = Bytes.copy buf in
  let pos = (37 * bs) + 40 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 1));
  expect "a flipped body byte is a bad checksum"
    (Atomic.get (verdicts flipped).bad_checksum = 1
    && Blockfmt.errors (verdicts flipped) = 1);
  let moved = Bytes.copy buf in
  Bytes.blit buf (5 * bs) moved (9 * bs) bs;
  expect "a block at another address is a wrong LBA"
    (Atomic.get (verdicts moved).wrong_lba = 1
    && Blockfmt.errors (verdicts moved) = 1);
  let forged = Bytes.copy buf in
  Blockfmt.fill_block forged ~off:(11 * bs) ~block_size:bs ~lba:11 ~writer:9
    ~seq:123_456;
  expect "well-formed content no write produced is unknown"
    (Atomic.get (verdicts forged).unknown = 1
    && Blockfmt.errors (verdicts forged) = 1);
  if !failures > 0 then exit 1

(* ---- main ---------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: vdbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       vdbench --self-test";
  exit 2

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = minor_heap_words };
  match List.tl (Array.to_list Sys.argv) with
  | [ "--self-test" ] -> self_test ()
  | args ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let kv = parse [] args in
      let get k =
        match List.assoc_opt k kv with Some v -> v | None -> usage ()
      in
      let int k =
        match int_of_string_opt (get k) with Some i -> i | None -> usage ()
      in
      let name = get "workload" in
      let seed = int "seed" and seconds = int "seconds" in
      let trace = int "trace" in
      let wl =
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None ->
            Printf.eprintf "unknown workload %S (known: %s)\n" name
              (String.concat " " (List.map (fun w -> w.name) workloads));
            exit 2
      in
      if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
      if trace = 1 then run_traced wl ~seed ~seconds
      else run_plain wl ~seed ~seconds
