(* Recovery-latency benchmark: how long after a fault heals does the
   deployment serve writes again, and how available was it while the
   fault was in force — measured on both backends with the same
   scenario code, driven through {!Chaos.Nemesis.inject}.

   A probe client writes one block on coordinator 0 every [probe_gap]
   time units. An orchestrator alternates two fault kinds against an
   m=2/n=5 deployment (q = 4, so both faults cost quorum):

   - crash: bricks 1 and 2 die (3 alive < q); "heal" recovers both,
     which on the mc backend really restarts their receive loops and
     replays the paper's section 4 recovery path;
   - partition: {0,1,2} | {3,4} (coordinator 0's side has 3 < q).

   Per cycle, time-to-recover is the gap between the heal instant and
   the completion of the first successful probe after it, and
   availability-under-fault is the fraction of probes completing
   inside the fault window that succeeded (expected ~0 here: these
   faults take the whole quorum — the measurement guards against the
   fault silently not biting, the PR 4 review bug). Cycle ttr samples
   pool into {!Metrics.Hist}; p50/p99 land in BENCH_chaos.json.

   Time units: the sim backend runs the scenario in delta units; the
   mc backend scales them to wall-clock seconds ([ts] = seconds per
   unit) and reports milliseconds. The two backends' numbers are not
   commensurable (sim unit delays vs real scheduling); the point of
   printing both is the sim run as a deterministic floor and the mc
   run as the real-parallelism number the gate watches. *)

let json_out : string option ref = ref None
let smoke : bool ref = ref false

let m = 2
let n = 5
let stripes = 4
let block_size = 256

(* Scenario shape, in time units. [deadline] < [fault_window] so
   probes fail fast (and are counted) while the fault is in force. *)
let deadline_u = 10.
let probe_gap_u = 2.
let fault_u = 30.
let recover_u = 60.
let warmup_u = 20.

type kind = Crash | Partition

let kind_name = function Crash -> "crash" | Partition -> "partition"

type cycle = {
  ckind : kind;
  ttr : float; (* backend-native time; [recover_u] if never recovered *)
  avail_ok : int;
  avail_total : int;
}

(* One backend run: [cycles] crash cycles interleaved with [cycles]
   partition cycles on a single deployment. Returns per-cycle samples
   in backend-native time (sim: delta units; mc: seconds). *)
let run_backend ~mc ~domains ~ts ~cycles =
  let cluster =
    Core.Cluster.create
      ~backend:(if mc then Mc { domains } else Sim)
      ~seed:11 ~m ~n ~block_size ~deadline:(deadline_u *. ts)
      ?retry_every:(if mc then Some (2. *. ts) else None)
      ()
  in
  let rt = cluster.Core.Cluster.runtime in
  let lock = Mutex.create () in
  let probes = ref [] in
  (* (start, completion, ok), newest first *)
  let stop = ref false in
  Runtime.spawn rt (fun () ->
      let c = cluster.Core.Cluster.coordinators.(0) in
      let k = ref 0 in
      try
        while not !stop do
          Runtime.sleep rt (probe_gap_u *. ts);
          incr k;
          let payload =
            Bytes.make block_size (Char.chr (97 + (!k mod 26)))
          in
          let tstart = Runtime.now rt in
          let r =
            Core.Coordinator.write_blocks c ~stripe:(!k mod stripes) 0
              [| payload |]
          in
          let tend = Runtime.now rt in
          let ok = match r with Ok () -> true | Error _ -> false in
          Mutex.lock lock;
          probes := (tstart, tend, ok) :: !probes;
          Mutex.unlock lock
        done
      with Runtime.Cancelled -> ());
  let results = ref [] in
  let inject f = Chaos.Nemesis.inject cluster f in
  let orchestrate () =
    Runtime.sleep rt (warmup_u *. ts);
    for cyc = 0 to (2 * cycles) - 1 do
      let ckind = if cyc mod 2 = 0 then Crash else Partition in
      let t_fault = Runtime.now rt in
      (match ckind with
      | Crash ->
          inject (Chaos.Plan.Crash 1);
          inject (Chaos.Plan.Crash 2)
      | Partition -> inject (Chaos.Plan.Partition [ [ 0; 1; 2 ]; [ 3; 4 ] ]));
      Runtime.sleep rt (fault_u *. ts);
      let t_heal = Runtime.now rt in
      (match ckind with
      | Crash ->
          inject (Chaos.Plan.Recover 1);
          inject (Chaos.Plan.Recover 2)
      | Partition -> inject Chaos.Plan.Heal);
      Runtime.sleep rt (recover_u *. ts);
      Mutex.lock lock;
      let ps = !probes in
      Mutex.unlock lock;
      let avail_ok = ref 0 and avail_total = ref 0 in
      let ttr = ref (recover_u *. ts) in
      List.iter
        (fun (t0, t1, ok) ->
          (* Availability counts only probes that ran entirely inside
             the fault window: a probe straddling either boundary can
             succeed without the fault ever being in its way. *)
          if t0 >= t_fault && t1 < t_heal then begin
            incr avail_total;
            if ok then incr avail_ok
          end;
          if ok && t1 >= t_heal then ttr := Float.min !ttr (t1 -. t_heal))
        ps;
      results :=
        { ckind; ttr = !ttr; avail_ok = !avail_ok; avail_total = !avail_total }
        :: !results
    done;
    stop := true
  in
  (* Mc: the orchestrator runs on this thread (gates block any thread,
     and sleeps here are real). Sim: it must be a fiber, and the engine
     advances virtual time only while running. *)
  if mc then orchestrate () else Runtime.spawn rt orchestrate;
  if not mc then Core.Cluster.run ~horizon:Float.max_float cluster;
  Core.Cluster.await_quiesce cluster;
  Core.Cluster.shutdown cluster;
  List.rev !results

type cell = {
  backend : string;
  kind : kind;
  unit_ : string;
  scale : float; (* native time -> reported unit *)
  hist : Metrics.Hist.t;
  availability_pct : float;
  cycles : int;
}

let cell_of ~backend ~unit_ ~scale kind samples =
  let samples = List.filter (fun c -> c.ckind = kind) samples in
  let hist = Metrics.Hist.create () in
  List.iter (fun c -> Metrics.Hist.add hist (c.ttr *. scale)) samples;
  let ok = List.fold_left (fun a c -> a + c.avail_ok) 0 samples in
  let total = List.fold_left (fun a c -> a + c.avail_total) 0 samples in
  {
    backend;
    kind;
    unit_;
    scale;
    hist;
    availability_pct =
      (if total = 0 then 0. else 100. *. float_of_int ok /. float_of_int total);
    cycles = List.length samples;
  }

let pct c p =
  if Metrics.Hist.count c.hist = 0 then 0. else Metrics.Hist.percentile c.hist p

let run () =
  let cycles = if !smoke then 2 else 6 in
  let domains = if !smoke then 2 else 4 in
  let ts = 0.002 in
  (* mc: 2 ms per unit; the 10-unit deadline is 20 ms *)
  let hw = Runtime_mc.hw_cores () in
  Util.section "Chaos recovery latency (sim + mc)";
  Printf.printf
    "  %d-of-%d code, %d stripes, deadline %gu; per cycle: fault %gu, \
     recovery window %gu, probe every %gu\n\
    \  %d cycles per fault kind per backend; mc: %d domains (%d hw \
     cores), %gs per unit\n"
    m n stripes deadline_u fault_u recover_u probe_gap_u cycles domains hw
    ts;
  let sim = run_backend ~mc:false ~domains:1 ~ts:1. ~cycles in
  let mc = run_backend ~mc:true ~domains ~ts ~cycles in
  let cells =
    [
      cell_of ~backend:"sim" ~unit_:"delta" ~scale:1. Crash sim;
      cell_of ~backend:"sim" ~unit_:"delta" ~scale:1. Partition sim;
      cell_of ~backend:"mc" ~unit_:"ms" ~scale:1e3 Crash mc;
      cell_of ~backend:"mc" ~unit_:"ms" ~scale:1e3 Partition mc;
    ]
  in
  Printf.printf "  %-14s | %10s | %10s | %10s | %10s | %12s\n" "cell"
    "ttr p50" "ttr p99" "ttr max" "unit" "avail@fault";
  Printf.printf "  %s\n" (String.make 78 '-');
  List.iter
    (fun c ->
      Printf.printf "  %-14s | %10.2f | %10.2f | %10.2f | %10s | %11.1f%%\n"
        (c.backend ^ "_" ^ kind_name c.kind)
        (pct c 50.) (pct c 99.)
        (Metrics.Hist.max c.hist)
        c.unit_ c.availability_pct)
    cells;
  Printf.printf
    "  (availability under these faults is expected ~0: both take the \
     whole quorum)\n";
  Option.iter
    (fun path ->
      let open Obs.Json in
      let num k v = (k, F v) in
      let doc =
        ( "meta",
          O
            (Obs.Meta.standard ~runtime:"sim+mc" ~domains
               ~extra:
                 [
                   ("tool", S "bench chaos");
                   ("m", I m);
                   ("n", I n);
                   ("stripes", I stripes);
                   ("block_size", I block_size);
                   num "deadline_u" deadline_u;
                   num "fault_u" fault_u;
                   num "recover_u" recover_u;
                   num "probe_gap_u" probe_gap_u;
                   num "mc_seconds_per_unit" ts;
                   ("cycles_per_kind", I cycles);
                   ("hw_cores", I hw);
                   ("smoke", B !smoke);
                 ]
               ()) )
        :: List.map
             (fun c ->
               ( c.backend ^ "_" ^ kind_name c.kind,
                 O
                   [
                     ("unit", S c.unit_);
                     ("cycles", I c.cycles);
                     num "ttr_p50" (pct c 50.);
                     num "ttr_p99" (pct c 99.);
                     num "ttr_max" (Metrics.Hist.max c.hist);
                     num "ttr_mean" (Metrics.Hist.mean c.hist);
                     num "availability_pct" c.availability_pct;
                   ] ))
             cells
      in
      to_file path (O doc);
      Printf.printf "  wrote %s\n" path)
    !json_out
