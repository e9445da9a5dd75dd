(* Protocol-level benchmarks for the request-pipelining optimizations:
   serial vs pipelined multi-stripe I/O, and cold vs warm write rounds
   (order-phase elision via the coordinator timestamp cache).

   Every run uses an otherwise identical volume (same seed, same
   geometry, same request stream). The pipelining comparison varies
   only [pipeline_window]; the write-rounds comparison varies only how
   many requests came before the measured ones (cold = each stripe's
   first write, warm = steady state), so the deltas are attributable.
   Latencies are in units of delta (one-way network delay); one quorum
   round trip costs 2 delta.

   [json_out] (set by bench/main.ml's --json flag) writes the numbers
   to BENCH_protocol.json; [smoke] (--smoke) shrinks request counts so
   a CI alias can exercise the harness quickly. *)

let json_out : string option ref = ref None
let smoke : bool ref = ref false

let m = 2
let n = 4
let volume_stripes = 16
let span_stripes = 8 (* stripes touched by every request *)
let block_size = 512

type run_result = {
  requests : int;
  oks : int;
  elapsed : float; (* delta units *)
  msgs : float; (* network messages *)
  latencies : float list; (* per request, in request order *)
  stats : Obs.Stats.stats option;
}

(* Drive [requests] identical [span_stripes]-stripe requests, back to
   back, from one client fiber. [observe_from] attaches a fresh stats
   aggregator after that many requests completed (so warm-up traffic is
   excluded from phase accounting). *)
let run_requests ?observe_from ~window ~write ~requests () =
  let volume =
    Fab.Volume.create ~m ~n ~stripes:volume_stripes ~block_size ~seed:1
      ~pipeline_window:window ()
  in
  let cluster = Fab.Volume.cluster volume in
  let rt = cluster.Core.Cluster.runtime in
  let count = span_stripes * m in
  let payload = Bytes.make (count * block_size) 'p' in
  let stats = ref None in
  let before0 = Core.Cluster.snapshot cluster in
  let observed_before = ref before0 in
  let t_observed = ref 0. in
  let oks = ref 0 in
  let latencies = ref [] in
  let observe () =
    stats := Some (Util.observe cluster);
    observed_before := Core.Cluster.snapshot cluster;
    t_observed := Runtime.now rt
  in
  if observe_from = Some 0 then observe ();
  let t0 = Runtime.now rt in
  ignore
    (Fab.Volume.run_op volume (fun () ->
         for i = 1 to requests do
           let t = Runtime.now rt in
           (match
              if write then Fab.Volume.write volume ~coord:0 ~lba:0 payload
              else
                Result.map ignore (Fab.Volume.read volume ~coord:0 ~lba:0 ~count)
            with
           | Ok () -> incr oks
           | Error _ -> ());
           latencies := (Runtime.now rt -. t) :: !latencies;
           if observe_from = Some i && i < requests then observe ()
         done));
  let t_end = Runtime.now rt in
  let after = Core.Cluster.snapshot cluster in
  let from, t_from =
    match observe_from with
    | Some k when k > 0 -> (!observed_before, !t_observed)
    | _ -> (before0, t0)
  in
  let measured_requests =
    match observe_from with Some k when k > 0 -> requests - k | _ -> requests
  in
  {
    requests = measured_requests;
    oks = !oks;
    elapsed = t_end -. t_from;
    msgs = Metrics.Snapshot.get after "net.msgs" -. Metrics.Snapshot.get from "net.msgs";
    latencies = List.rev !latencies;
    stats = !stats;
  }

let per_req r v = v /. float_of_int r.requests
let ops_per_kdelta r = float_of_int r.requests /. r.elapsed *. 1000.

(* Mean latency of the observed (post-warm-up) requests. *)
let mean_latency r =
  let tail =
    (* keep only the measured window's requests *)
    let drop = List.length r.latencies - r.requests in
    List.filteri (fun i _ -> i >= drop) r.latencies
  in
  List.fold_left ( +. ) 0. tail /. float_of_int (List.length tail)

let phase_mean stats kind phase =
  match
    List.find_opt (fun (k, _, _) -> k = kind) (Obs.Stats.phase_breakdown stats)
  with
  | None -> 0.
  | Some (_, _, phases) -> (
      match List.assoc_opt phase phases with Some v -> v | None -> 0.)

let elided_count stats kind phase =
  match List.assoc_opt kind (Obs.Stats.elided_by_kind stats) with
  | None -> 0
  | Some counts -> (
      match List.assoc_opt phase counts with Some c -> c | None -> 0)

let run () =
  let requests = if !smoke then 4 else 40 in
  let warmup = 1 in
  Util.section
    (Printf.sprintf
       "Protocol pipelining: %d-of-%d, %d-stripe requests, %d requests"
       m n span_stripes requests);

  (* -- serial vs pipelined ------------------------------------------ *)
  let serial_r =
    run_requests ~window:1 ~write:false ~requests ()
  in
  let serial_w =
    run_requests ~window:1 ~write:true ~requests ()
  in
  let piped_r =
    run_requests ~window:span_stripes ~write:false ~requests ()
  in
  let piped_w =
    run_requests ~window:span_stripes ~write:true ~requests ()
  in
  let line name r =
    Printf.printf
      "  %-22s %8.2f ops/kdelta  %6.1f delta/req  %6.1f rounds/req  %7.1f \
       msgs/req\n"
      name (ops_per_kdelta r) (mean_latency r)
      (mean_latency r /. 2.)
      (per_req r r.msgs)
  in
  line "serial reads" serial_r;
  line "pipelined reads" piped_r;
  line "serial writes" serial_w;
  line "pipelined writes" piped_w;
  let speedup_r = ops_per_kdelta piped_r /. ops_per_kdelta serial_r in
  let speedup_w = ops_per_kdelta piped_w /. ops_per_kdelta serial_w in
  Printf.printf "  speedup: reads %.1fx, writes %.1fx (window %d over %d \
                 stripes)\n"
    speedup_r speedup_w span_stripes span_stripes;

  (* -- cold vs warm writes (order-phase elision) --------------------- *)
  Util.subsection "Order-phase elision (coordinator timestamp cache)";
  let cold =
    run_requests ~observe_from:0 ~window:span_stripes ~write:true
      ~requests:1 ()
  in
  let warm =
    run_requests ~observe_from:warmup ~window:span_stripes ~write:true
      ~requests:(warmup + requests) ()
  in
  let cold_stats = Option.get cold.stats in
  let warm_stats = Option.get warm.stats in
  let cold_order = phase_mean cold_stats "write-stripe" Obs.Order in
  let cold_write = phase_mean cold_stats "write-stripe" Obs.Write in
  let warm_order = phase_mean warm_stats "write-stripe" Obs.Order in
  let warm_write = phase_mean warm_stats "write-stripe" Obs.Write in
  let warm_elided = elided_count warm_stats "write-stripe" Obs.Order in
  Printf.printf
    "  cold write request: %5.1f delta (order %.1f + write %.1f per stripe \
     op)\n"
    (mean_latency cold) cold_order cold_write;
  Printf.printf
    "  warm write request: %5.1f delta (order %.1f + write %.1f per stripe \
     op), %d order rounds elided over %d requests\n"
    (mean_latency warm) warm_order warm_write warm_elided warm.requests;
  Printf.printf "  msgs/req: cold %.1f, warm %.1f (an elided order round \
                 saves its 2n messages)\n"
    (per_req cold cold.msgs) (per_req warm warm.msgs);

  (* -- JSON ----------------------------------------------------------- *)
  Option.iter
    (fun path ->
      let open Obs.Json in
      let section name fields = (name, O fields) in
      let num k v = (k, F v) in
      let doc =
        [
          (* Full meta stamp (commit, date, kernel, seed) so bench_diff
             can refuse apples-to-oranges comparisons, same as
             BENCH_micro.json. *)
          section "meta"
            (Obs.Meta.standard
               ~extra:
                 [
                   ("tool", S "bench protocol");
                   ("seed", I 1);
                   ("m", I m);
                   ("n", I n);
                   ("span_stripes", I span_stripes);
                   ("block_size", I block_size);
                   ("requests", I requests);
                   ("smoke", B !smoke);
                   ("gf_kernel", S Gf256.Kernel.(name (default ())));
                   ("simd_level", I Gf256.Kernel.simd_level);
                 ]
               ());
          section "pipeline"
            [
              num "serial_read_ops_per_kdelta" (ops_per_kdelta serial_r);
              num "pipelined_read_ops_per_kdelta" (ops_per_kdelta piped_r);
              num "serial_write_ops_per_kdelta" (ops_per_kdelta serial_w);
              num "pipelined_write_ops_per_kdelta" (ops_per_kdelta piped_w);
              num "read_speedup" speedup_r;
              num "write_speedup" speedup_w;
              num "serial_read_rounds_per_req" (mean_latency serial_r /. 2.);
              num "pipelined_read_rounds_per_req" (mean_latency piped_r /. 2.);
              num "serial_write_rounds_per_req" (mean_latency serial_w /. 2.);
              num "pipelined_write_rounds_per_req" (mean_latency piped_w /. 2.);
              num "serial_write_msgs_per_req" (per_req serial_w serial_w.msgs);
              num "pipelined_write_msgs_per_req" (per_req piped_w piped_w.msgs);
            ];
          section "write_rounds"
            [
              num "cold_delta_per_req" (mean_latency cold);
              num "warm_delta_per_req" (mean_latency warm);
              num "cold_order_phase" cold_order;
              num "cold_write_phase" cold_write;
              num "warm_order_phase" warm_order;
              num "warm_write_phase" warm_write;
              ("warm_elided_order_rounds", I warm_elided);
              ("warm_requests", I warm.requests);
              num "cold_msgs_per_req" (per_req cold cold.msgs);
              num "warm_msgs_per_req" (per_req warm warm.msgs);
            ];
        ]
      in
      to_file path (O doc);
      Printf.printf "  wrote %s\n" path)
    !json_out
