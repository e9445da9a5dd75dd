(* A read-intensive web-server workload (the workload class the
   paper's section 1.2 argues erasure coding is best suited for),
   compared head-to-head against 4-way replication on the same number
   of client operations.

   Run with:  dune exec examples/web_workload.exe *)

let run_config name volume ~clients ~ops_per_client =
  let capacity = Fab.Volume.capacity_blocks volume in
  let stats = Array.init clients (fun _ -> Workload.Client.fresh_stats ()) in
  let cluster = Fab.Volume.cluster volume in
  let rt = cluster.Core.Cluster.runtime in
  let started = Runtime.now rt in
  for c = 0 to clients - 1 do
    let gen =
      Workload.Gen.make Workload.Gen.web_server ~capacity_blocks:capacity
        ~rng:(Random.State.make [| 1000 + c |])
    in
    Workload.Client.spawn volume
      ~coord:(c mod Array.length cluster.Core.Cluster.bricks)
      ~gen ~ops:ops_per_client ~payload_tag:(Char.chr (97 + c))
      stats.(c)
  done;
  Fab.Volume.run volume;
  let elapsed = Runtime.now rt -. started in
  let total = Array.fold_left (fun acc s -> acc + s.Workload.Client.ops) 0 stats in
  let aborts =
    Array.fold_left (fun acc s -> acc + s.Workload.Client.aborts) 0 stats
  in
  let metrics = cluster.Core.Cluster.metrics in
  let mean_lat =
    Array.fold_left
      (fun acc s -> acc +. Metrics.Hist.mean s.Workload.Client.latency)
      0. stats
    /. float_of_int clients
  in
  Printf.printf "  %-22s %8d %8.2f %10.1f %12.0f %12.0f %8d\n" name total
    mean_lat
    (float_of_int total /. elapsed *. 1000.)
    (Metrics.Registry.value metrics "disk.reads"
    +. Metrics.Registry.value metrics "disk.writes")
    (Metrics.Registry.value metrics "net.bytes" /. 1024.)
    aborts

let () =
  Printf.printf
    "Web-server workload: 95%% reads, Zipf-skewed, single-block ops.\n";
  Printf.printf "4 concurrent clients x 250 ops each, 512-byte blocks.\n\n";
  Printf.printf "  %-22s %8s %8s %10s %12s %12s %8s\n" "configuration" "ops"
    "latency" "ops/kdelta" "disk I/Os" "net KiB" "aborts";
  let ec =
    Fab.Volume.create ~m:5 ~n:8 ~stripes:40 ~block_size:512 ~seed:5 ()
  in
  run_config "E.C.(5,8)" ec ~clients:4 ~ops_per_client:250;
  let repl =
    Fab.Volume.create ~m:1 ~n:4 ~stripes:200 ~block_size:512 ~seed:5 ()
  in
  run_config "4-way replication" repl ~clients:4 ~ops_per_client:250;
  Printf.printf
    "\nBoth tolerate brick failures (f=1 for E.C., f=1 for replication with\n\
     majority quorums), but E.C.(5,8) stores 1.6x the logical bytes where\n\
     4-way replication stores 4x — at nearly identical read-path cost on\n\
     this workload. That trade is the paper's motivation for FAB + erasure\n\
     codes on read-intensive services.\n"
