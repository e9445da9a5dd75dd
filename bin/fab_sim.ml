(* fab_sim: command-line front end to the FAB simulator.

   Subcommands:
     workload  - run a synthetic workload against a simulated volume
     explain   - replay a JSONL trace into per-op phase breakdowns
     chaos     - sweep fault plans x seeds under a linearizability check
     mttdl     - reliability (figure 2/3 style) tables
     quorum    - m-quorum system parameters for a code geometry

   Examples:
     fab_sim workload -m 5 -n 8 --clients 4 --ops 500 --profile web
     fab_sim workload -m 5 -n 8 --trace-out run.jsonl --stats-json stats.json
     fab_sim explain run.jsonl --validate
     fab_sim chaos --seeds 50
     fab_sim chaos --plan crash-storm --chaos-unsafe-skip-order
     fab_sim mttdl --capacity 256
     fab_sim quorum -m 5 -n 8 *)

open Cmdliner

(* ---------------- JSON rendering helpers ---------------- *)

let hist_fields h =
  let module H = Metrics.Hist in
  if H.count h = 0 then [ ("count", Obs.Json.I 0) ]
  else
    [
      ("count", Obs.Json.I (H.count h));
      ("mean", Obs.Json.F (H.mean h));
      ("min", Obs.Json.F (H.min h));
      ("max", Obs.Json.F (H.max h));
      ("p50", Obs.Json.F (H.percentile h 50.));
      ("p95", Obs.Json.F (H.percentile h 95.));
      ("p99", Obs.Json.F (H.percentile h 99.));
      ("p999", Obs.Json.F (H.percentile h 99.9));
      ("rel_error", Obs.Json.F (H.relative_error h));
    ]

(* ---------------- workload ---------------- *)

let profile_conv =
  let parse = function
    | "web" -> Ok Workload.Gen.web_server
    | "oltp" -> Ok Workload.Gen.oltp
    | "backup" -> Ok Workload.Gen.backup
    | "ingest" -> Ok Workload.Gen.ingest
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S" s))
  in
  let print fmt (spec : Workload.Gen.spec) =
    Format.fprintf fmt "profile(read=%.2f)" spec.Workload.Gen.read_fraction
  in
  Arg.conv (parse, print)

let write_stats_json path ~meta ~metrics ~obs_stats ~client_latency ~elapsed
    ~ops_done ~aborts =
  Obs.Stats.materialize obs_stats metrics;
  let counters =
    List.map
      (fun name -> (name, Obs.Json.F (Metrics.Registry.value metrics name)))
      (Metrics.Registry.names metrics)
  in
  let histograms =
    List.filter_map
      (fun name ->
        Option.map
          (fun h -> (name, Obs.Json.O (hist_fields h)))
          (Metrics.Registry.hist_opt metrics name))
      (Metrics.Registry.hist_names metrics)
  in
  let elided = Obs.Stats.elided_by_kind obs_stats in
  let breakdown =
    List.map
      (fun (kind, count, phases) ->
        ( kind,
          Obs.Json.O
            (("count", Obs.Json.I count)
             :: List.map
                  (fun (p, mean) -> (Obs.phase_name p, Obs.Json.F mean))
                  phases
            @ List.map
                (fun (p, c) -> ("elided_" ^ Obs.phase_name p, Obs.Json.I c))
                (Option.value ~default:[] (List.assoc_opt kind elided))) ))
      (Obs.Stats.phase_breakdown obs_stats)
  in
  Obs.Json.(
    to_file path
      (O
         [
           ("meta", O meta);
           ("elapsed", F elapsed);
           ("ops_done", I ops_done);
           ("aborts", I aborts);
           ("unfinished", I (Obs.Stats.unfinished obs_stats));
           ("client_latency", O (hist_fields client_latency));
           ("counters", O counters);
           ("histograms", O histograms);
           ("breakdown", O breakdown);
         ]))

let run_workload runtime_name domains m n bricks stripes block_size clients
    ops profile drop seed optimized pipeline_window trace
    trace_out trace_chrome stats_json =
  if m < 1 || n <= m then `Error (false, "need 1 <= m < n")
  else if pipeline_window < 1 then `Error (false, "need pipeline-window >= 1")
  else if runtime_name <> "sim" && runtime_name <> "mc" then
    `Error (false, "--runtime must be sim or mc")
  else if runtime_name = "mc" && drop > 0. then
    `Error (false, "--drop needs the simulated network (--runtime sim)")
  else if domains < 1 then `Error (false, "need domains >= 1")
  else begin
    (* On mc every concurrent client gets its own coordinator brick by
       default, which spreads coordinator work over the bricks the way
       FAB clients spread over them. *)
    let mc = runtime_name = "mc" in
    let bricks =
      if bricks <> 0 then Some bricks
      else if mc then Some (max n clients)
      else None
    in
    let volume =
      Fab.Volume.create
        ~backend:(if mc then Core.Cluster.Mc { domains } else Core.Cluster.Sim)
        ~m ~n ?bricks ~stripes ~block_size ~seed ~optimized_modify:optimized
        ~pipeline_window
        ~net_config:{ Simnet.Net.default_config with drop }
        ()
    in
    let cluster = Fab.Volume.cluster volume in
    let nbricks = Array.length cluster.Core.Cluster.bricks in
    let obs = cluster.Core.Cluster.obs in
    let meta =
      Obs.Meta.standard ~runtime:runtime_name ~domains
        ~extra:
          [
            ("tool", Obs.Json.S "fab_sim workload");
            ("seed", Obs.Json.I seed);
            ("m", Obs.Json.I m);
            ("n", Obs.Json.I n);
            ("bricks", Obs.Json.I nbricks);
            ("stripes", Obs.Json.I stripes);
            ("block_size", Obs.Json.I block_size);
            ("clients", Obs.Json.I clients);
            ("ops", Obs.Json.I ops);
            ("drop", Obs.Json.F drop);
            ("pipeline_window", Obs.Json.I pipeline_window);
            ( "gf_kernel",
              Obs.Json.S (Erasure.Codec.kernel_name (Fab.Volume.codec volume))
            );
            ("simd_level", Obs.Json.I Gf256.Kernel.simd_level);
          ]
        ()
    in
    let channels = ref [] in
    let file_sink path make =
      let oc = open_out path in
      channels := oc :: !channels;
      Obs.add_sink obs (make oc)
    in
    if trace then begin
      Core.Trace.enable_stderr ();
      Obs.add_sink obs (Core.Trace.sink ())
    end;
    Option.iter (fun path -> file_sink path (Obs.jsonl ~meta)) trace_out;
    Option.iter (fun path -> file_sink path Obs.chrome) trace_chrome;
    let obs_stats = Obs.Stats.create () in
    if stats_json <> None then Obs.add_sink obs (Obs.Stats.sink obs_stats);
    Printf.printf
      "volume: %d-of-%d code, %d bricks, %d stripes, %dB blocks, drop=%.2f\n"
      m n nbricks stripes block_size drop;
    let stats = Array.init clients (fun _ -> Workload.Client.fresh_stats ()) in
    let started = Runtime.now cluster.Core.Cluster.runtime in
    for c = 0 to clients - 1 do
      let gen =
        Workload.Gen.make profile
          ~capacity_blocks:(Fab.Volume.capacity_blocks volume)
          ~rng:(Random.State.make [| seed; c |])
      in
      Workload.Client.spawn volume ~coord:(c mod nbricks) ~gen ~ops
        ~payload_tag:(Char.chr (97 + (c mod 26)))
        stats.(c)
    done;
    Fab.Volume.run ~horizon:10_000_000. volume;
    let elapsed = Runtime.now cluster.Core.Cluster.runtime -. started in
    (* On mc, stop the receive loops before the sinks close: they may
       still be delivering late replies and background messages, each
       traced as a msg_recv. *)
    Core.Cluster.shutdown cluster;
    let metrics = cluster.Core.Cluster.metrics in
    let total field = Array.fold_left (fun acc s -> acc + field s) 0 stats in
    let ops_done = total (fun s -> s.Workload.Client.ops) in
    let aborts = total (fun s -> s.Workload.Client.aborts) in
    if Core.Cluster.is_mc cluster then
      Printf.printf "clients: %d x %d ops, elapsed %.3f s (%d domains)\n"
        clients ops elapsed domains
    else
      Printf.printf "clients: %d x %d ops, elapsed %.0f delta\n" clients ops
        elapsed;
    Printf.printf "  completed ops : %d (%d reads, %d writes, %d aborted)\n"
      ops_done
      (total (fun s -> s.Workload.Client.reads))
      (total (fun s -> s.Workload.Client.writes))
      aborts;
    if Core.Cluster.is_mc cluster then
      Printf.printf "  throughput    : %.0f ops / sec (wall clock)\n"
        (float_of_int ops_done /. elapsed)
    else
      Printf.printf "  throughput    : %.2f ops / kdelta\n"
        (float_of_int ops_done /. elapsed *. 1000.);
    Array.iteri
      (fun i s ->
        Printf.printf "  client %d      : %s\n" i
          (Format.asprintf "%a" Metrics.Hist.pp s.Workload.Client.latency))
      stats;
    let client_latency =
      Array.fold_left
        (fun acc s -> Metrics.Hist.merge acc s.Workload.Client.latency)
        (Metrics.Hist.create ())
        stats
    in
    Printf.printf "  all clients   : %s\n"
      (Format.asprintf "%a" Metrics.Hist.pp client_latency);
    Printf.printf "  network       : %.0f messages, %.1f KiB payload\n"
      (Metrics.Registry.value metrics "net.msgs")
      (Metrics.Registry.value metrics "net.bytes" /. 1024.);
    Printf.printf "  disk          : %.0f reads, %.0f writes, %.0f NVRAM writes\n"
      (Metrics.Registry.value metrics "disk.reads")
      (Metrics.Registry.value metrics "disk.writes")
      (Metrics.Registry.value metrics "nvram.writes");
    (* Codec counters join the registry so --stats-json records the
       decode-plan cache behavior alongside the network and disk
       counters (the GF(2^8) kernel is stamped in meta as gf_kernel). *)
    let codec = Fab.Volume.codec volume in
    let plan_hits, plan_misses, plan_entries =
      Erasure.Codec.plan_cache_stats codec
    in
    Metrics.Registry.incr ~by:(float_of_int plan_hits) metrics
      "codec.plan_hits";
    Metrics.Registry.incr ~by:(float_of_int plan_misses) metrics
      "codec.plan_misses";
    Metrics.Registry.incr ~by:(float_of_int plan_entries) metrics
      "codec.plan_entries";
    Printf.printf "  codec         : %s kernel, plan cache %d hits / %d misses\n"
      (Erasure.Codec.kernel_name codec) plan_hits plan_misses;
    Obs.close obs;
    List.iter close_out !channels;
    Option.iter
      (fun path ->
        write_stats_json path ~meta ~metrics ~obs_stats ~client_latency
          ~elapsed ~ops_done ~aborts)
      stats_json;
    `Ok ()
  end

let workload_cmd =
  let runtime_name =
    Arg.(
      value
      & opt string "sim"
      & info [ "runtime" ] ~docv:"BACKEND"
          ~doc:
            "Execution backend: $(b,sim) (deterministic discrete-event \
             simulator, virtual time) or $(b,mc) (OCaml 5 multicore \
             domains, wall-clock time).")
  in
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ]
          ~doc:"Worker domains for $(b,--runtime mc); ignored under sim.")
  in
  let m = Arg.(value & opt int 5 & info [ "m"; "data-blocks" ] ~doc:"Data blocks per stripe.") in
  let n = Arg.(value & opt int 8 & info [ "n"; "total-blocks" ] ~doc:"Total blocks per stripe.") in
  let bricks =
    Arg.(value & opt int 0 & info [ "bricks" ] ~doc:"Bricks (default: n).")
  in
  let stripes =
    Arg.(value & opt int 64 & info [ "stripes" ] ~doc:"Stripes in the volume.")
  in
  let block_size =
    Arg.(value & opt int 1024 & info [ "block-size" ] ~doc:"Block size in bytes.")
  in
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let ops =
    Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Operations per client.")
  in
  let profile =
    Arg.(
      value
      & opt profile_conv Workload.Gen.web_server
      & info [ "profile" ] ~doc:"Workload profile: web, oltp, backup, ingest.")
  in
  let drop =
    Arg.(value & opt float 0. & info [ "drop" ] ~doc:"Message drop probability.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let optimized =
    Arg.(value & flag & info [ "optimized-modify" ]
           ~doc:"Use the section 5.2 bandwidth-optimized block writes.")
  in
  let pipeline_window =
    Arg.(value & opt int 8 & info [ "pipeline-window" ]
           ~doc:"Max per-stripe operations of one request in flight \
                 (1 = serial extent order).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print a protocol trace (every event) to stderr.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the structured event trace as JSON-lines to $(docv) \
                 (replay it with $(b,fab_sim explain)).")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None & info [ "trace-chrome" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event file to $(docv); load it in \
                 Perfetto or chrome://tracing.")
  in
  let stats_json =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write machine-readable run statistics (counters, latency \
                 histograms, per-phase breakdown) to $(docv).")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a synthetic workload on a simulated volume")
    Term.(
      ret
        (const run_workload $ runtime_name $ domains $ m $ n $ bricks
        $ stripes $ block_size $ clients $ ops $ profile $ drop $ seed
        $ optimized $ pipeline_window $ trace $ trace_out
        $ trace_chrome $ stats_json))

(* ---------------- explain ---------------- *)

let read_lines file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Trace times are delta units on sim and wall-clock seconds on mc;
   explain prints mc times in milliseconds, with the digits that
   sub-millisecond phases need. *)
type time_unit = { unit_name : string; scale : float; digits : int }

let delta_unit = { unit_name = "delta units"; scale = 1.; digits = 1 }
let ms_unit = { unit_name = "ms"; scale = 1000.; digits = 3 }
let fmt_time u v = Printf.sprintf "%.*f" u.digits (v *. u.scale)

let fmt_cell u = function
  | None -> "      -"
  | Some v -> Printf.sprintf "%7s" (fmt_time u v)

let print_breakdown u obs_stats =
  let phases = Obs.all_phases in
  Printf.printf "\nper-op-kind phase breakdown (time in %s):\n" u.unit_name;
  Printf.printf "  %-13s %6s %5s %5s %5s %8s %8s" "kind" "count" "ok" "rty"
    "abt" "mean" "p95";
  List.iter (fun p -> Printf.printf " %9s" (Obs.phase_name p)) phases;
  Printf.printf "\n";
  let completed = Obs.Stats.completed obs_stats in
  let by_kind = Obs.Stats.by_kind obs_stats in
  let outcome_count kind o =
    List.length
      (List.filter
         (fun (st : Obs.Stats.op_stat) ->
           st.Obs.Stats.op_kind = kind && st.Obs.Stats.outcome = Some o)
         completed)
  in
  List.iter
    (fun (kind, count, phase_means) ->
      let lat f =
        match List.assoc_opt kind by_kind with
        | Some h when Metrics.Hist.count h > 0 -> fmt_time u (f h)
        | _ -> "-"
      in
      Printf.printf "  %-13s %6d %5d %5d %5d %8s %8s" kind count
        (outcome_count kind Obs.Ok)
        (outcome_count kind Obs.Retry)
        (outcome_count kind Obs.Abort)
        (lat Metrics.Hist.mean)
        (lat (fun h -> Metrics.Hist.percentile h 95.));
      List.iter
        (fun p ->
          Printf.printf " %9s" (fmt_cell u (List.assoc_opt p phase_means)))
        phases;
      Printf.printf "\n")
    (Obs.Stats.phase_breakdown obs_stats);
  (match Obs.Stats.elided_by_kind obs_stats with
  | [] -> ()
  | elided ->
      Printf.printf "\nelided phases (order rounds skipped via timestamp \
                     cache):\n";
      List.iter
        (fun (kind, counts) ->
          Printf.printf "  %-13s %s\n" kind
            (String.concat " "
               (List.map
                  (fun (p, c) -> Printf.sprintf "%s=%d" (Obs.phase_name p) c)
                  counts)))
        elided);
  match Obs.Stats.retargets obs_stats with
  | [] -> ()
  | rows ->
      Printf.printf
        "\nrouted around suspected bricks (ops, mean time in %s from \
         the re-target to the op's end):\n"
        u.unit_name;
      List.iter
        (fun (b, kind, ops, mean) ->
          Printf.printf "  b%-5d %-13s %6d %8s\n" b kind ops (fmt_time u mean))
        rows

let print_per_op u obs_stats =
  Printf.printf "\nper-operation spans (time in %s):\n" u.unit_name;
  Printf.printf "  %5s %9s %-13s %5s %-6s %8s  %s\n" "op" "start" "kind" "s"
    "out" "latency" "phases";
  List.iter
    (fun (st : Obs.Stats.op_stat) ->
      Printf.printf "  %5d %9s %-13s %5d %-6s %8s  %s\n" st.Obs.Stats.op
        (fmt_time u st.Obs.Stats.t_start)
        st.Obs.Stats.op_kind st.Obs.Stats.stripe
        (match st.Obs.Stats.outcome with
        | Some o -> Obs.outcome_name o
        | None -> "?")
        (fmt_time u (Obs.Stats.latency st))
        (String.concat " "
           (List.map
              (fun (p, d) -> Printf.sprintf "%s=%s" (Obs.phase_name p) (fmt_time u d))
              (List.rev st.Obs.Stats.phases))))
    (Obs.Stats.completed obs_stats)

let run_explain file per_op validate =
  match read_lines file with
  | exception Sys_error msg -> `Error (false, msg)
  | lines ->
      let events = ref [] and metas = ref [] and errors = ref [] in
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            match Obs.of_json line with
            | `Event ev -> events := ev :: !events
            | `Meta md -> metas := md :: !metas
            | `Error e ->
                errors := Printf.sprintf "line %d: %s" (i + 1) e :: !errors)
        lines;
      let events = List.rev !events in
      let u =
        if
          List.exists
            (fun md -> List.assoc_opt "runtime" md = Some (Obs.Json.S "mc"))
            !metas
        then ms_unit
        else delta_unit
      in
      List.iter
        (fun md ->
          Printf.printf "run: %s\n"
            (String.concat " "
               (List.filter_map
                  (fun (k, v) ->
                    if k = "ev" then None
                    else Some (k ^ "=" ^ Obs.Json.render v))
                  md)))
        (List.rev !metas);
      let span_errors = if validate then Obs.Check.well_formed events else [] in
      let schema_errors = List.rev !errors in
      let obs_stats = Obs.Stats.create () in
      List.iter (Obs.Stats.feed obs_stats) events;
      Printf.printf "%d events, %d completed ops, %d unfinished\n"
        (List.length events)
        (List.length (Obs.Stats.completed obs_stats))
        (Obs.Stats.unfinished obs_stats);
      let totals =
        List.fold_left
          (fun (msgs, bytes, drops, timeouts, dr, dw)
               (st : Obs.Stats.op_stat) ->
            ( msgs + st.Obs.Stats.msgs,
              bytes + st.Obs.Stats.bytes,
              drops + st.Obs.Stats.drops,
              timeouts + st.Obs.Stats.timeouts,
              dr + st.Obs.Stats.disk_reads,
              dw + st.Obs.Stats.disk_writes ))
          (0, 0, 0, 0, 0, 0)
          (Obs.Stats.completed obs_stats)
      in
      let msgs, bytes, drops, timeouts, dr, dw = totals in
      Printf.printf
        "attributed to ops: %d msgs, %d payload bytes, %d drops, %d \
         timeouts, %d disk reads, %d disk writes\n"
        msgs bytes drops timeouts dr dw;
      print_breakdown u obs_stats;
      (match Obs.Stats.queue_depths obs_stats with
      | [] -> ()
      | qs ->
          Printf.printf "\nqueue depths (samples at enqueue):\n";
          List.iter
            (fun (who, s) ->
              Printf.printf "  %-6s %s\n" who
                (Format.asprintf "%a" Metrics.Hist.pp s))
            qs);
      if per_op then print_per_op u obs_stats;
      if validate then begin
        List.iter (Printf.eprintf "schema error: %s\n") schema_errors;
        List.iter (Printf.eprintf "span error: %s\n") span_errors;
        if schema_errors <> [] || span_errors <> [] then begin
          (* Exit 1, not via [`Error]: cmdliner reserves 124 for CLI
             usage errors, and a bad trace is a checked input failure
             scripts need to distinguish (documented exit code 1). *)
          Printf.eprintf "fab_sim: trace validation failed (%d schema, %d span)\n"
            (List.length schema_errors)
            (List.length span_errors);
          exit 1
        end
        else begin
          Printf.printf "\nvalidation: OK (schema + span well-formedness)\n";
          `Ok ()
        end
      end
      else `Ok ()

let explain_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.jsonl"
           ~doc:"JSON-lines trace written by $(b,workload --trace-out).")
  in
  let per_op =
    Arg.(value & flag & info [ "per-op" ]
           ~doc:"Also print one line per operation span.")
  in
  let validate =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Check the JSONL schema and span well-formedness; exit \
                 non-zero on any violation.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay a structured trace into per-op phase-latency breakdowns")
    Term.(ret (const run_explain $ file $ per_op $ validate))

(* ---------------- report ---------------- *)

(* "rep-K" (K-way replication = 1-of-K) or "ec-M-N" (M-of-N code). *)
let parse_geometry s =
  let fail () =
    Error (`Msg (Printf.sprintf "bad geometry %S (want rep-K or ec-M-N)" s))
  in
  match String.split_on_char '-' s with
  | [ "rep"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 2 -> Ok (s, 1, k)
      | _ -> fail ())
  | [ "ec"; m; n ] -> (
      match (int_of_string_opt m, int_of_string_opt n) with
      | Some m, Some n when 1 <= m && m < n -> Ok (s, m, n)
      | _ -> fail ())
  | _ -> fail ()

let geometry_conv =
  Arg.conv
    ( parse_geometry,
      fun fmt (name, _, _) -> Format.pp_print_string fmt name )

let profile_of_name = function
  | "web" -> Ok Workload.Gen.web_server
  | "oltp" -> Ok Workload.Gen.oltp
  | "backup" -> Ok Workload.Gen.backup
  | "ingest" -> Ok Workload.Gen.ingest
  | s -> Error (Printf.sprintf "unknown profile %S" s)

let slo_conv =
  Arg.conv
    ( (fun s ->
        match Obs.Slo.parse s with
        | Result.Ok o -> Ok o
        | Result.Error e -> Error (`Msg e)),
      fun fmt o -> Format.pp_print_string fmt (Obs.Slo.name o) )

(* A small fault plan scaled to the deployment and window width: crash
   the last brick for two windows, then a loss burst for one. *)
let report_fault_plan ~n ~window =
  let ev at fault = { Chaos.Plan.at; fault } in
  Chaos.Plan.make ~name:"report-faults" ~horizon:(8. *. window)
    [
      ev (2. *. window) (Chaos.Plan.Crash (n - 1));
      ev (4. *. window) (Chaos.Plan.Recover (n - 1));
      ev (5. *. window) (Chaos.Plan.Drop 0.2);
      ev (6. *. window) (Chaos.Plan.Drop 0.);
    ]

(* Unicode eighth-blocks; [None] (empty window) renders as a dot. *)
let spark values =
  let bars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]
  in
  let top =
    List.fold_left
      (fun acc -> function Some v -> Float.max acc v | None -> acc)
      0. values
  in
  String.concat ""
    (List.map
       (function
         | None -> "\xc2\xb7"
         | Some v ->
             let i =
               if top <= 0. then 0
               else
                 min 7 (int_of_float (Float.round (v /. top *. 7.)))
             in
             bars.(max 0 i))
       values)

type cell = {
  c_name : string;  (* "<geometry>/<profile>" *)
  c_geom : string;
  c_profile : string;
  c_m : int;
  c_n : int;
  c_elapsed : float;
  c_ops : int;
  c_ok : int;
  c_aborts : int;
  c_unavail : int;
  c_msgs : float;
  c_net_blocks : float;
  c_disk_reads : float;
  c_disk_writes : float;
  c_latency : Metrics.Hist.t;  (* merged client latency *)
  c_kinds : (string * Metrics.Hist.t) list;
  c_timeline : Obs.Timeline.t;
  c_slos : Obs.Slo.report list;
  c_evicted : int;
}

let run_cell ~geom ~m ~n ~stripes ~block_size ~clients ~ops ~profile_name
    ~profile ~seed ~window ~faults ~deadline ~slos =
  let volume =
    Fab.Volume.create ~m ~n ~stripes ~block_size ~seed
      ?deadline:(if deadline > 0. then Some deadline else None)
      ()
  in
  let cluster = Fab.Volume.cluster volume in
  let nbricks = Array.length cluster.Core.Cluster.bricks in
  let obs = cluster.Core.Cluster.obs in
  let timeline =
    Obs.Timeline.create ~classify:Chaos.Plan.overlay_of_label ~width:window ()
  in
  Obs.add_sink obs (Obs.Timeline.sink timeline);
  let obs_stats = Obs.Stats.create ~retain:4096 () in
  Obs.add_sink obs (Obs.Stats.sink obs_stats);
  let nemesis =
    if faults then Some (Chaos.Nemesis.install (report_fault_plan ~n ~window) cluster)
    else None
  in
  let stats = Array.init clients (fun _ -> Workload.Client.fresh_stats ()) in
  let started = Runtime.now cluster.Core.Cluster.runtime in
  (* The fault plan crashes brick n-1; keep coordinators off it, as a
     crashed coordinator strands its client's in-flight op (the
     workload client has no coordinator failover). *)
  let coord_slots = if faults then max 1 (nbricks - 1) else nbricks in
  for c = 0 to clients - 1 do
    let gen =
      Workload.Gen.make profile
        ~capacity_blocks:(Fab.Volume.capacity_blocks volume)
        ~rng:(Random.State.make [| seed; c |])
    in
    Workload.Client.spawn volume ~coord:(c mod coord_slots) ~gen ~ops
      ~payload_tag:(Char.chr (97 + (c mod 26)))
      stats.(c)
  done;
  Fab.Volume.run ~horizon:10_000_000. volume;
  Option.iter Chaos.Nemesis.restore nemesis;
  Obs.close obs;
  let elapsed = Runtime.now cluster.Core.Cluster.runtime -. started in
  let metrics = cluster.Core.Cluster.metrics in
  let total field = Array.fold_left (fun acc s -> acc + field s) 0 stats in
  let ops_done = total (fun s -> s.Workload.Client.ops) in
  let aborts = total (fun s -> s.Workload.Client.aborts) in
  let unavail = total (fun s -> s.Workload.Client.unavailable) in
  let per_op v = if ops_done = 0 then 0. else v /. float_of_int ops_done in
  let latency =
    Array.fold_left
      (fun acc s -> Metrics.Hist.merge acc s.Workload.Client.latency)
      (Metrics.Hist.create ())
      stats
  in
  {
    c_name = geom ^ "/" ^ profile_name;
    c_geom = geom;
    c_profile = profile_name;
    c_m = m;
    c_n = n;
    c_elapsed = elapsed;
    c_ops = ops_done;
    c_ok = ops_done - aborts - unavail;
    c_aborts = aborts;
    c_unavail = unavail;
    c_msgs = per_op (Metrics.Registry.value metrics "net.msgs");
    c_net_blocks =
      per_op (Metrics.Registry.value metrics "net.bytes")
      /. float_of_int block_size;
    c_disk_reads = per_op (Metrics.Registry.value metrics "disk.reads");
    c_disk_writes = per_op (Metrics.Registry.value metrics "disk.writes");
    c_latency = latency;
    c_kinds = Obs.Stats.by_kind obs_stats;
    c_timeline = timeline;
    c_slos = List.map (Obs.Slo.evaluate timeline) slos;
    c_evicted = Obs.Stats.evicted obs_stats;
  }

let cell_windows cell =
  let ts = Obs.Timeline.series cell.c_timeline in
  match Metrics.Timeseries.span ts with
  | None -> []
  | Some (w0, w1) ->
      List.init (w1 - w0 + 1) (fun i ->
          let w = w0 + i in
          let h = Metrics.Timeseries.hist ts "lat.all" w in
          let pc p =
            Option.map (fun h -> Metrics.Hist.percentile h p) h
          in
          ( w,
            Metrics.Timeseries.window_start ts w,
            (match h with Some h -> Metrics.Hist.count h | None -> 0),
            pc 50.,
            pc 99.,
            pc 99.9,
            Metrics.Timeseries.counter ts "out.ok" w,
            Metrics.Timeseries.counter ts "retransmits" w,
            Obs.Timeline.faults_in cell.c_timeline w ))

let cell_json cell =
  let open Obs.Json in
  let slo_fields (r : Obs.Slo.report) =
    ( Obs.Slo.name r.Obs.Slo.objective,
      O
        [
          ("total", I r.Obs.Slo.total);
          ("bad", I r.Obs.Slo.bad);
          ("budget_frac", F r.Obs.Slo.budget_frac);
          ("burn", F r.Obs.Slo.burn);
          ("compliant", B r.Obs.Slo.compliant);
        ] )
  in
  let windows =
    List.map
      (fun (w, t0, n, p50, p99, p999, goodput, rtx, faults) ->
        let pc name v fields =
          match v with Some v -> (name, F v) :: fields | None -> fields
        in
        O
          (("w", I w)
           :: ("t0", F t0)
           :: ("n", I n)
           :: (pc "p50" p50 @@ pc "p99" p99 @@ pc "p999" p999
                 [
                   ("goodput", F goodput);
                   ("retransmits", F rtx);
                   ("faults", S (String.concat "," faults));
                 ])))
      (cell_windows cell)
  in
  ( cell.c_name,
    O
      [
        ("geometry", S cell.c_geom);
        ("profile", S cell.c_profile);
        ("m", I cell.c_m);
        ("n", I cell.c_n);
        ("elapsed", F cell.c_elapsed);
        ("ops", I cell.c_ops);
        ("ok", I cell.c_ok);
        ("aborts", I cell.c_aborts);
        ("unavailable", I cell.c_unavail);
        ( "throughput",
          F
            (if cell.c_elapsed <= 0. then 0.
             else float_of_int cell.c_ops /. cell.c_elapsed *. 1000.) );
        ( "cost_per_op",
          O
            [
              ("msgs", F cell.c_msgs);
              ("net_blocks", F cell.c_net_blocks);
              ("disk_reads", F cell.c_disk_reads);
              ("disk_writes", F cell.c_disk_writes);
            ] );
        ("latency", O (hist_fields cell.c_latency));
        ( "kinds",
          O (List.map (fun (k, h) -> (k, O (hist_fields h))) cell.c_kinds) );
        ("slo", O (List.map slo_fields cell.c_slos));
        ("evicted", I cell.c_evicted);
        ("windows", A windows);
      ] )

let fnum v = Printf.sprintf "%.2f" v
let fpct num den = if den = 0 then "0.0%" else Printf.sprintf "%.1f%%" (100. *. float_of_int num /. float_of_int den)

let write_report_md path ~meta ~window ~slos cells =
  let buf = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# FAB workload report";
  line "";
  line "%s"
    (String.concat "  \n"
       (List.filter_map
          (fun (k, v) ->
            if k = "ev" then None
            else Some (Printf.sprintf "`%s=%s`" k (Obs.Json.render v)))
          meta));
  line "";
  line "Latency in delta units; window width %g delta of simulated time." window;
  line "";
  line "## Geometry matrix";
  line "";
  line "| cell | ops | ok | abort | unavail | ops/kdelta | mean | p50 | p99 | p99.9 | msgs/op | net blk/op | disk rd/op | disk wr/op |";
  line "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|";
  List.iter
    (fun c ->
      let h = c.c_latency in
      let pc p =
        if Metrics.Hist.count h = 0 then "-"
        else fnum (Metrics.Hist.percentile h p)
      in
      line "| %s | %d | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |"
        c.c_name c.c_ops (fpct c.c_ok c.c_ops) (fpct c.c_aborts c.c_ops)
        (fpct c.c_unavail c.c_ops)
        (if c.c_elapsed <= 0. then "-"
         else fnum (float_of_int c.c_ops /. c.c_elapsed *. 1000.))
        (if Metrics.Hist.count h = 0 then "-" else fnum (Metrics.Hist.mean h))
        (pc 50.) (pc 99.) (pc 99.9) (fnum c.c_msgs) (fnum c.c_net_blocks)
        (fnum c.c_disk_reads) (fnum c.c_disk_writes))
    cells;
  line "";
  line "Cost columns are measured per completed operation — the Table-1";
  line "currencies (messages, network bandwidth in block units, disk reads,";
  line "disk writes) of the paper.";
  line "";
  line "## SLO compliance";
  line "";
  (match slos with
  | [] -> line "_no objectives declared (pass `--slo`)_"
  | _ ->
      line "| cell | objective | governed | out of SLO | budget | burn | compliant |";
      line "|---|---|---|---|---|---|---|";
      List.iter
        (fun c ->
          List.iter
            (fun (r : Obs.Slo.report) ->
              line "| %s | %s | %d | %d | %s | %s | %s |" c.c_name
                (Obs.Slo.name r.Obs.Slo.objective)
                r.Obs.Slo.total r.Obs.Slo.bad
                (Printf.sprintf "%.2f%%" (100. *. r.Obs.Slo.budget_frac))
                (Printf.sprintf "%.0f%%" (100. *. r.Obs.Slo.burn))
                (if r.Obs.Slo.compliant then "yes" else "**NO**"))
            c.c_slos)
        cells;
      line "";
      line "Burn is the share of the error budget spent (>100%% = objective";
      line "violated). Windows overlapping chaos faults are flagged in the";
      line "per-cell tables below.");
  List.iter
    (fun c ->
      let ts = Obs.Timeline.series c.c_timeline in
      let windows = cell_windows c in
      line "";
      line "## %s" c.c_name;
      line "";
      let wids = List.map (fun (w, _, _, _, _, _, _, _, _) -> w) windows in
      let p_series p =
        List.map
          (fun w ->
            Option.map (fun h -> Metrics.Hist.percentile h p)
              (Metrics.Timeseries.hist ts "lat.all" w))
          wids
      in
      let c_series name =
        List.map (fun w -> Some (Metrics.Timeseries.counter ts name w)) wids
      in
      let h_series name p =
        List.map
          (fun w ->
            Option.map (fun h -> Metrics.Hist.percentile h p)
              (Metrics.Timeseries.hist ts name w))
          wids
      in
      line "| series | over %d windows |" (List.length wids);
      line "|---|---|";
      line "| lat p50 | %s |" (spark (p_series 50.));
      line "| lat p99 | %s |" (spark (p_series 99.));
      line "| lat p99.9 | %s |" (spark (p_series 99.9));
      line "| goodput (ok ops) | %s |" (spark (c_series "out.ok"));
      line "| retransmits | %s |" (spark (c_series "retransmits"));
      line "| in-flight p99 | %s |" (spark (h_series "inflight" 99.));
      let fault_row =
        String.concat ""
          (List.map
             (fun (_, _, _, _, _, _, _, _, faults) ->
               if faults = [] then "\xc2\xb7" else "\xc3\x97")
             windows)
      in
      line "| chaos faults | %s |" fault_row;
      (match Obs.Timeline.faults c.c_timeline with
      | [] -> ()
      | fs ->
          line "";
          line "Fault overlays: %s."
            (String.concat "; "
               (List.map
                  (fun (label, t0, t1) ->
                    if t0 = t1 then Printf.sprintf "%s at %g" label t0
                    else Printf.sprintf "%s during [%g, %g]" label t0 t1)
                  fs)));
      line "";
      let max_rows = 64 in
      let shown = List.filteri (fun i _ -> i < max_rows) windows in
      line "| w | t0 | n | p50 | p99 | p99.9 | goodput | rtx |%s faults |"
        (String.concat ""
           (List.map
              (fun (r : Obs.Slo.report) ->
                Printf.sprintf " %s |" (Obs.Slo.name r.Obs.Slo.objective))
              c.c_slos));
      line "|---|---|---|---|---|---|---|---|%s---|"
        (String.concat ""
           (List.map (fun _ -> "---|") c.c_slos));
      List.iter
        (fun (w, t0, n, p50, p99, p999, goodput, rtx, faults) ->
          let cellv = function None -> "-" | Some v -> fnum v in
          let slo_cells =
            String.concat ""
              (List.map
                 (fun (r : Obs.Slo.report) ->
                   match
                     List.find_opt
                       (fun (ws : Obs.Slo.window_stat) -> ws.Obs.Slo.window = w)
                       r.Obs.Slo.windows
                   with
                   | Some ws when not ws.Obs.Slo.w_compliant -> " **✗** |"
                   | Some _ -> " ✓ |"
                   | None -> " - |")
                 c.c_slos)
          in
          line "| %d | %g | %d | %s | %s | %s | %.0f | %.0f |%s %s |" w t0 n
            (cellv p50) (cellv p99) (cellv p999) goodput rtx slo_cells
            (String.concat "," faults))
        shown;
      if List.length windows > max_rows then
        line "| … | | | | | | | | %d more windows elided |"
          (List.length windows - max_rows))
    cells;
  line "";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc

let run_report geometries profiles stripes block_size clients ops seed window
    slos faults deadline out md =
  if window <= 0. then `Error (false, "need --window > 0")
  else
    let geometries =
      if geometries = [] then
        [ ("rep-2", 1, 2); ("rep-3", 1, 3); ("ec-2-4", 2, 4) ]
      else geometries
    in
    let profiles = if profiles = [] then [ "web"; "oltp" ] else profiles in
    match
      List.find_map
        (fun p ->
          match profile_of_name p with Ok _ -> None | Error e -> Some e)
        profiles
    with
    | Some e -> `Error (false, e)
    | None ->
        let resolved =
          List.map
            (fun p ->
              match profile_of_name p with
              | Ok spec -> (p, spec)
              | Error _ -> assert false)
            profiles
        in
        let cells =
          List.concat_map
            (fun (geom, m, n) ->
              List.map
                (fun (profile_name, profile) ->
                  Printf.printf "report: running %s/%s (%d-of-%d, %d clients x %d ops)...\n%!"
                    geom profile_name m n clients ops;
                  run_cell ~geom ~m ~n ~stripes ~block_size ~clients ~ops
                    ~profile_name ~profile ~seed ~window ~faults ~deadline
                    ~slos)
                resolved)
            geometries
        in
        let meta =
          Obs.Meta.standard
            ~extra:
              [
                ("tool", Obs.Json.S "fab_sim report");
                ("seed", Obs.Json.I seed);
                ("stripes", Obs.Json.I stripes);
                ("block_size", Obs.Json.I block_size);
                ("clients", Obs.Json.I clients);
                ("ops", Obs.Json.I ops);
                ("window", Obs.Json.F window);
                ("faults", Obs.Json.B faults);
                ( "geometries",
                  Obs.Json.S
                    (String.concat ","
                       (List.map (fun (g, _, _) -> g) geometries)) );
                ("profiles", Obs.Json.S (String.concat "," profiles));
                ( "slos",
                  Obs.Json.S
                    (String.concat "; " (List.map Obs.Slo.name slos)) );
                ("gf_kernel", Obs.Json.S (Gf256.Kernel.name (Gf256.Kernel.default ())));
                ("simd_level", Obs.Json.I Gf256.Kernel.simd_level);
              ]
            ()
        in
        Obs.Json.(
          to_file out
            (O [ ("meta", O meta); ("cells", O (List.map cell_json cells)) ]));
        write_report_md md ~meta ~window ~slos cells;
        Printf.printf "report: wrote %s and %s (%d cells)\n" out md
          (List.length cells);
        `Ok ()

let report_cmd =
  let geometries =
    Arg.(value & opt_all geometry_conv []
         & info [ "geometry" ] ~docv:"GEOM"
             ~doc:"Geometry to run: rep-K (K-way replication) or ec-M-N \
                   (M-of-N erasure code). Repeatable; default: rep-2, \
                   rep-3, ec-2-4.")
  in
  let profiles =
    Arg.(value & opt_all string []
         & info [ "profile" ] ~docv:"NAME"
             ~doc:"Workload mix: web, oltp, backup, ingest. Repeatable; \
                   default: web, oltp.")
  in
  let stripes =
    Arg.(value & opt int 16 & info [ "stripes" ] ~doc:"Stripes per volume.")
  in
  let block_size =
    Arg.(value & opt int 512 & info [ "block-size" ] ~doc:"Block size in bytes.")
  in
  let clients =
    Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let ops =
    Arg.(value & opt int 150 & info [ "ops" ] ~doc:"Operations per client.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let window =
    Arg.(value & opt float 50. & info [ "window" ] ~docv:"DELTA"
           ~doc:"Time-series window width in delta units of simulated time.")
  in
  let slos =
    Arg.(value & opt_all slo_conv
           [
             Obs.Slo.Latency { kind = Some "read"; p = 99.; limit = 6. };
             Obs.Slo.Availability { min_pct = 99.9 };
           ]
         & info [ "slo" ] ~docv:"SLO"
             ~doc:"Objective, e.g. 'read p99 < 6' or 'availability >= \
                   99.9%'. Repeatable; replaces the defaults.")
  in
  let faults =
    Arg.(value & flag & info [ "faults" ]
           ~doc:"Inject a small chaos plan (a crash window and a loss \
                 burst, scaled to the geometry) into every cell.")
  in
  let deadline =
    Arg.(value & opt float 0. & info [ "deadline" ]
           ~doc:"Per-operation deadline in delta units (0 = none); give \
                 one when injecting faults so quorum loss fails fast \
                 instead of stalling.")
  in
  let out =
    Arg.(value & opt string "BENCH_workload.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Machine-readable report (diff two of these with \
                 scripts/bench_diff).")
  in
  let md =
    Arg.(value & opt string "REPORT_workload.md" & info [ "md" ] ~docv:"FILE"
           ~doc:"Auto-generated markdown report.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a geometry matrix and emit BENCH_workload.json plus a \
             markdown SLO/time-series report")
    Term.(
      ret
        (const run_report $ geometries $ profiles $ stripes $ block_size
        $ clients $ ops $ seed $ window $ slos $ faults $ deadline $ out $ md))

(* ---------------- chaos ---------------- *)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A plan argument is a bundled plan name or a plan-file path. *)
let resolve_plan spec =
  match Chaos.Plan.builtin spec with
  | plan -> Ok plan
  | exception Not_found -> (
      if Sys.file_exists spec then
        match Chaos.Plan.of_string (read_file spec) with
        | Ok plan -> Ok plan
        | Error e -> Error (Printf.sprintf "%s: %s" spec e)
      else
        Error
          (Printf.sprintf
             "unknown plan %S (bundled: %s; or give a plan-file path)" spec
             (String.concat ", " (List.map fst Chaos.Plan.builtins))))

let run_chaos runtime domains time_scale plans random_plans seeds seed_base m
    n stripes clients ops deadline unsafe_skip_order shrink_out =
  if seeds < 1 then `Error (false, "need --seeds >= 1")
  else if runtime <> "sim" && runtime <> "mc" then
    `Error (false, "--runtime must be sim or mc")
  else
    let mc = runtime = "mc" in
    let specs =
      if plans = [] && random_plans = 0 then
        if mc then [ "mc-mixed" ] else List.map fst Chaos.Plan.builtins
      else plans
    in
    let resolved = List.map resolve_plan specs in
    match
      List.find_map (function Error e -> Some e | Ok _ -> None) resolved
    with
    | Some e -> `Error (false, e)
    | None ->
        let plans =
          List.filter_map (function Ok p -> Some p | Error _ -> None) resolved
        in
        let plans =
          plans
          @ List.init random_plans (fun i ->
                (* Derived from seed_base so a sweep is reproducible on
                   sim; horizon matches the bundled plans. *)
                let rng = Random.State.make [| seed_base; i; 0x9a7d |] in
                let p = Chaos.Plan.random ~rng ~bricks:n ~horizon:600. in
                { p with Chaos.Plan.name = Printf.sprintf "%s.%d" p.Chaos.Plan.name i })
        in
        let backend =
          if mc then Chaos.Harness.Mc { domains; time_scale }
          else Chaos.Harness.Sim
        in
        let harness_run ~seed plan =
          Chaos.Harness.run ~backend ~m ~n ~stripes ~clients
            ~ops_per_client:ops ~deadline ~unsafe_skip_order ~seed plan
        in
        let failure = ref None in
        let totals = ref (0, 0, 0, 0) in
        try
        List.iter
          (fun (plan : Chaos.Plan.t) ->
            let failures = ref 0 in
            let plan_totals = ref (0, 0, 0, 0) in
            for i = 0 to seeds - 1 do
              let seed = seed_base + i in
              let r = harness_run ~seed plan in
              let add (a, b, c, d) =
                ( a + r.Chaos.Harness.ok,
                  b + r.Chaos.Harness.aborted,
                  c + r.Chaos.Harness.unavailable,
                  d + r.Chaos.Harness.corrupt_reads )
              in
              plan_totals := add !plan_totals;
              totals := add !totals;
              if Chaos.Harness.failed r then begin
                incr failures;
                if !failure = None then failure := Some (plan, seed, r)
              end
            done;
            let ok, ab, un, cr = !plan_totals in
            Printf.printf
              "plan %-18s: %d seeds, %d ok, %d aborted, %d unavailable, %d \
               corrupt reads, %d FAILED\n"
              plan.Chaos.Plan.name seeds ok ab un cr !failures)
          plans;
        let ok, ab, un, cr = !totals in
        Printf.printf
          "total: %d ops ok, %d aborted, %d unavailable, %d corrupt reads\n"
          ok ab un cr;
        (match !failure with
        | None ->
            Printf.printf "chaos: all %d runs clean\n"
              (seeds * List.length plans);
            `Ok ()
        | Some (plan, seed, r) ->
            Printf.printf "\nFAILURE: plan %s seed %d\n  %s\n"
              plan.Chaos.Plan.name seed
              (Format.asprintf "%a" Chaos.Harness.pp_result r);
            if mc then begin
              (* Shrinking needs reproducibility, which mc gives up:
                 ddmin against a racy oracle converges on noise. Hand
                 the plan over for a deterministic sim replay instead. *)
              Printf.printf
                "mc runs are not reproducible; skipping shrink. Replay \
                 deterministically with:\n\
                \  fab_sim chaos --runtime sim --plan %s --seeds 1 \
                 --seed-base %d\n"
                plan.Chaos.Plan.name seed;
              Option.iter
                (fun path ->
                  let oc = open_out path in
                  output_string oc (Chaos.Plan.to_string plan);
                  close_out oc;
                  Printf.printf "wrote failing plan to %s\n" path)
                shrink_out
            end
            else begin
              Printf.printf "shrinking...\n%!";
              let shrunk =
                Chaos.Shrink.shrink
                  ~check:(fun p -> Chaos.Harness.failed (harness_run ~seed p))
                  plan
              in
              Printf.printf
                "minimal reproducer (%d of %d events; replay with --plan \
                 FILE --seeds 1 --seed-base %d):\n%s"
                (List.length shrunk.Chaos.Plan.events)
                (List.length plan.Chaos.Plan.events)
                seed
                (Chaos.Plan.to_string shrunk);
              Option.iter
                (fun path ->
                  let oc = open_out path in
                  output_string oc (Chaos.Plan.to_string shrunk);
                  close_out oc;
                  Printf.printf "wrote %s\n" path)
                shrink_out
            end;
            `Error (false, "chaos sweep failed"))
        with Invalid_argument msg ->
          (* E.g. a sim-only fault in a plan handed to --runtime mc: the
             nemesis rejects it per variant, by name. *)
          `Error (false, msg)

let chaos_cmd =
  let runtime =
    Arg.(value & opt string "sim"
         & info [ "runtime" ] ~docv:"sim|mc"
             ~doc:"Backend: $(b,sim) (deterministic, shrinkable — the \
                   oracle) or $(b,mc) (OCaml 5 domains: real \
                   parallelism, wall-clock time, races).")
  in
  let domains =
    Arg.(value & opt int 4
         & info [ "domains" ] ~doc:"Worker domains (mc runtime only).")
  in
  let time_scale =
    Arg.(value & opt float 0.001
         & info [ "time-scale" ]
             ~doc:"Wall-clock seconds per plan time unit (mc runtime \
                   only): 0.001 runs a 600-unit plan in 0.6s.")
  in
  let random_plans =
    Arg.(value & opt int 0
         & info [ "random-plans" ] ~docv:"N"
             ~doc:"Also sweep $(docv) randomized plans (mc-safe fault \
                   episodes, derived from --seed-base).")
  in
  let plans =
    Arg.(value & opt_all string []
         & info [ "plan" ] ~docv:"PLAN"
             ~doc:"Fault plan: a bundled name (crash-storm, \
                   rolling-partition, torn-writes, bit-rot, mc-mixed) or \
                   a plan-file path. Repeatable; default: all bundled \
                   plans on sim, mc-mixed on mc.")
  in
  let seeds =
    Arg.(value & opt int 10 & info [ "seeds" ] ~doc:"Seeds per plan.")
  in
  let seed_base =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed.")
  in
  let m = Arg.(value & opt int 2 & info [ "m"; "data-blocks" ] ~doc:"Data blocks per stripe.") in
  let n = Arg.(value & opt int 5 & info [ "n"; "total-blocks" ] ~doc:"Total blocks per stripe.") in
  let stripes =
    Arg.(value & opt int 4 & info [ "stripes" ] ~doc:"Stripes.")
  in
  let clients =
    Arg.(value & opt int 3 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let ops =
    Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Operations per client.")
  in
  let deadline =
    Arg.(value & opt float 200. & info [ "deadline" ]
           ~doc:"Per-operation deadline in delta units (fail-fast \
                 unavailability).")
  in
  let unsafe =
    Arg.(value & flag & info [ "chaos-unsafe-skip-order" ]
           ~doc:"Run the deliberately broken protocol variant that ignores \
                 the order phase (no read barrier, no recovery-sample \
                 promise, no store barrier); the sweep must catch it.")
  in
  let shrink_out =
    Arg.(value & opt (some string) None & info [ "shrink-out" ] ~docv:"FILE"
           ~doc:"Also write the shrunken reproducer plan to $(docv).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Sweep fault plans x seeds under a strict-linearizability check")
    Term.(
      ret
        (const run_chaos $ runtime $ domains $ time_scale $ plans
        $ random_plans $ seeds $ seed_base $ m $ n $ stripes $ clients
        $ ops $ deadline $ unsafe $ shrink_out))

(* ---------------- mttdl ---------------- *)

let run_mttdl capacity =
  let p = Reliability.Params.default in
  let open Reliability.Model in
  Printf.printf "MTTDL at %g TB logical capacity (%s)\n\n" capacity
    (Format.asprintf "%a" Reliability.Params.pp p);
  Printf.printf "  %-30s %10s %12s %8s\n" "scheme" "overhead" "MTTDL (yr)"
    "bricks";
  List.iter
    (fun (name, scheme, brick) ->
      Printf.printf "  %-30s %10.2f %12.3e %8d\n" name
        (storage_overhead p scheme brick)
        (mttdl_years p scheme brick ~logical_tb:capacity)
        (bricks_needed p scheme brick ~logical_tb:capacity))
    [
      ("striping / reliable R5", Striping, Reliable_r5);
      ("2-way replication / R0", Replication 2, R0);
      ("3-way replication / R0", Replication 3, R0);
      ("4-way replication / R0", Replication 4, R0);
      ("4-way replication / R5", Replication 4, R5);
      ("E.C.(5,7) / R0", Erasure (5, 7), R0);
      ("E.C.(5,8) / R0", Erasure (5, 8), R0);
      ("E.C.(5,8) / R5", Erasure (5, 8), R5);
      ("E.C.(5,10) / R0", Erasure (5, 10), R0);
    ];
  `Ok ()

let mttdl_cmd =
  let capacity =
    Arg.(value & opt float 256. & info [ "capacity" ] ~doc:"Logical TB.")
  in
  Cmd.v
    (Cmd.info "mttdl" ~doc:"Reliability model tables (figures 2 and 3)")
    Term.(ret (const run_mttdl $ capacity))

(* ---------------- quorum ---------------- *)

let run_quorum m n =
  match Quorum.Mquorum.create ~n ~m with
  | q ->
      Printf.printf "%s\n" (Format.asprintf "%a" Quorum.Mquorum.pp q);
      Printf.printf "  quorum size     : %d\n" (Quorum.Mquorum.quorum_size q);
      Printf.printf "  tolerated crashes: %d\n" (Quorum.Mquorum.f q);
      Printf.printf "  storage overhead : %.2fx\n"
        (float_of_int n /. float_of_int m);
      Printf.printf "  small-write cost : %d disk I/Os (2(n-m+1))\n"
        (2 * (n - m + 1));
      `Ok ()
  | exception Invalid_argument msg -> `Error (false, msg)

let quorum_cmd =
  let m = Arg.(value & opt int 5 & info [ "m"; "data-blocks" ] ~doc:"Data blocks.") in
  let n = Arg.(value & opt int 8 & info [ "n"; "total-blocks" ] ~doc:"Total blocks.") in
  Cmd.v
    (Cmd.info "quorum" ~doc:"m-quorum system parameters for a geometry")
    Term.(ret (const run_quorum $ m $ n))

let () =
  let info =
    Cmd.info "fab_sim" ~version:"1.0.0"
      ~doc:"Simulate FAB: decentralized erasure-coded virtual disks (DSN 2004)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            workload_cmd;
            explain_cmd;
            report_cmd;
            chaos_cmd;
            mttdl_cmd;
            quorum_cmd;
          ]))
