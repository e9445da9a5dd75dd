(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md section 3 for the experiment index) plus the ablation
   studies and compute microbenchmarks.

   Usage:  dune exec bench/main.exe [-- section ... [--json] [--smoke]]
   where section is any of: t1 f2 f3 f5 a1 x1..x6 protocol micro
   parallel chaos. With no section every section runs. --json makes
   the micro, protocol, parallel and chaos sections write
   BENCH_micro.json / BENCH_protocol.json / BENCH_parallel.json /
   BENCH_chaos.json next to the textual report; --smoke shrinks the
   measurement quotas so the smoke aliases stay fast. *)

let sections =
  [
    ("t1", Table1.run);
    ("f2", Figures.figure2);
    ("f3", Figures.figure3);
    ("f5", Fig5.run);
    ("a1", Appendix_a.run);
    ("x1", Ablations.x1);
    ("x2", Ablations.x2);
    ("x3", Ablations.x3);
    ("x4", Ablations.x4);
    ("x5", Ablations.x5);
    ("x6", Ablations.x6);
    ("protocol", Protocol.run);
    ("micro", Micro.run);
    ("parallel", Parallel.run);
    ("chaos", Bench_chaos.run);
  ]

let () =
  (* A 32 MiB minor heap (set before any domain spawns, so every
     worker domain inherits it) keeps the parallel microbenches from
     triggering minor collections mid-measurement: on an oversubscribed
     host each collection is a stop-the-world handshake with every
     parked domain, worth 10-25 ms of scheduler latency — more than the
     cells being measured. Benchmark hygiene only; the libraries never
     touch GC parameters. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 4_194_304 };
  let args =
    match Array.to_list Sys.argv with _ :: args -> args | [] -> []
  in
  (* Standalone CI gates: SIMD-vs-portable GF(2^8) encode and
     hardware-vs-portable CRC32C. Each exits without touching the
     sections. *)
  if List.mem "--check-gf" args then begin
    Micro.check_gf ();
    exit 0
  end;
  if List.mem "--check-crc" args then begin
    Micro.check_crc ();
    exit 0
  end;
  (* Smoke runs write *.smoke.json so they can never clobber the
     committed full-run BENCH_*.json baselines (scripts/ci.sh diffs a
     smoke run against bench/baseline_parallel_smoke.json). *)
  let suffix = if List.mem "--smoke" args then ".smoke.json" else ".json" in
  let args =
    List.filter
      (fun a ->
        match a with
        | "--json" ->
            Micro.json_out := Some ("BENCH_micro" ^ suffix);
            Protocol.json_out := Some ("BENCH_protocol" ^ suffix);
            Parallel.json_out := Some ("BENCH_parallel" ^ suffix);
            Bench_chaos.json_out := Some ("BENCH_chaos" ^ suffix);
            false
        | "--smoke" ->
            Micro.smoke := true;
            Protocol.smoke := true;
            Parallel.smoke := true;
            Bench_chaos.smoke := true;
            false
        | _ -> true)
      args
  in
  let requested =
    match args with [] -> List.map fst sections | _ :: _ -> args
  in
  Printf.printf
    "FAB reproduction: experiment harness for \"A Decentralized Algorithm\n\
     for Erasure-Coded Virtual Disks\" (DSN 2004). Paper values are printed\n\
     next to measured values; EXPERIMENTS.md records the comparison.\n";
  List.iter
    (fun name ->
      match List.assoc_opt (String.lowercase_ascii name) sections with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown section %S (known: %s)\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested
