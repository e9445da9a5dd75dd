(* Tests for workload generators and closed-loop clients. *)

module Gen = Workload.Gen
module Client = Workload.Client

let rng () = Random.State.make [| 21 |]

let test_ranges () =
  List.iter
    (fun spec ->
      let g = Gen.make spec ~capacity_blocks:1000 ~rng:(rng ()) in
      for _ = 1 to 500 do
        let op = Gen.next g in
        Alcotest.(check bool) "lba in range" true
          (op.Gen.lba >= 0 && op.Gen.lba + op.Gen.count <= 1000);
        Alcotest.(check int) "count" spec.Gen.op_blocks op.Gen.count
      done)
    [ Gen.web_server; Gen.oltp; Gen.backup; Gen.ingest;
      { Gen.read_fraction = 0.5; addr = Gen.Uniform; op_blocks = 3 } ]

let test_read_fraction () =
  let g =
    Gen.make
      { Gen.read_fraction = 0.7; addr = Gen.Uniform; op_blocks = 1 }
      ~capacity_blocks:100 ~rng:(rng ())
  in
  let reads = ref 0 in
  let total = 5000 in
  for _ = 1 to total do
    if (Gen.next g).Gen.kind = `Read then incr reads
  done;
  let frac = float_of_int !reads /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.3f ~ 0.7" frac)
    true
    (frac > 0.65 && frac < 0.75)

let test_sequential_wraps () =
  let g =
    Gen.make
      { Gen.read_fraction = 1.; addr = Gen.Sequential; op_blocks = 4 }
      ~capacity_blocks:16 ~rng:(rng ())
  in
  let lbas = List.init 8 (fun _ -> (Gen.next g).Gen.lba) in
  Alcotest.(check (list int)) "wraps" [ 0; 4; 8; 12; 0; 4; 8; 12 ] lbas

let test_zipf_skew () =
  let g =
    Gen.make
      { Gen.read_fraction = 1.; addr = Gen.Zipf 1.0; op_blocks = 1 }
      ~capacity_blocks:10_000 ~rng:(rng ())
  in
  let first_decile = ref 0 and total = 20_000 in
  for _ = 1 to total do
    if (Gen.next g).Gen.lba < 1000 then incr first_decile
  done;
  (* Under Zipf(1.0) the first 10% of the space draws far more than
     10% of accesses. *)
  Alcotest.(check bool)
    (Printf.sprintf "first decile got %d/%d" !first_decile total)
    true
    (float_of_int !first_decile /. float_of_int total > 0.3)

let test_hotspot_skew () =
  let g =
    Gen.make
      {
        Gen.read_fraction = 1.;
        addr = Gen.Hotspot { fraction = 0.1; weight = 0.9 };
        op_blocks = 1;
      }
      ~capacity_blocks:1000 ~rng:(rng ())
  in
  let hot = ref 0 and total = 5000 in
  for _ = 1 to total do
    if (Gen.next g).Gen.lba < 100 then incr hot
  done;
  let frac = float_of_int !hot /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "hot fraction %.3f ~ 0.9" frac)
    true
    (frac > 0.85 && frac < 0.95)

let test_validation () =
  Alcotest.check_raises "read fraction"
    (Invalid_argument "Workload.Gen.make: read_fraction out of [0,1]")
    (fun () ->
      ignore
        (Gen.make
           { Gen.read_fraction = 1.5; addr = Gen.Uniform; op_blocks = 1 }
           ~capacity_blocks:10 ~rng:(rng ())));
  Alcotest.check_raises "op_blocks"
    (Invalid_argument "Workload.Gen.make: bad op_blocks") (fun () ->
      ignore
        (Gen.make
           { Gen.read_fraction = 1.; addr = Gen.Uniform; op_blocks = 100 }
           ~capacity_blocks:10 ~rng:(rng ())))

let test_single_client_never_aborts () =
  (* No concurrency, no clock skew: the paper says aborts cannot
     happen. *)
  let v = Fab.Volume.create ~m:3 ~n:5 ~stripes:8 ~block_size:256 () in
  let g =
    Gen.make
      { Gen.read_fraction = 0.5; addr = Gen.Uniform; op_blocks = 2 }
      ~capacity_blocks:(Fab.Volume.capacity_blocks v)
      ~rng:(rng ())
  in
  let stats = Client.fresh_stats () in
  Client.spawn v ~coord:0 ~gen:g ~ops:100 stats;
  Fab.Volume.run v;
  Alcotest.(check int) "all ops ran" 100 stats.Client.ops;
  Alcotest.(check int) "no aborts" 0 stats.Client.aborts;
  Alcotest.(check int) "mix adds up" 100 (stats.Client.reads + stats.Client.writes);
  Alcotest.(check int) "latency recorded" 100
    (Metrics.Hist.count stats.Client.latency);
  Alcotest.(check bool) "latency at least one round trip" true
    (Metrics.Hist.min stats.Client.latency >= 2.)

let test_disjoint_clients_no_aborts () =
  (* Two clients on disjoint halves of the volume: no stripe-level
     conflicts, hence no aborts even with concurrency. *)
  let v = Fab.Volume.create ~m:2 ~n:4 ~stripes:10 ~block_size:256 () in
  let mk lo =
    let g =
      Gen.make
        { Gen.read_fraction = 0.5; addr = Gen.Sequential; op_blocks = 2 }
        ~capacity_blocks:10 ~rng:(rng ())
    in
    ignore lo;
    g
  in
  (* Client 1 covers stripes 0-4 (lbas 0-9), client 2 writes lbas 10-19
     via its own generator offset; we emulate the offset by giving
     client 2 single-block ops on the upper half through a custom
     loop. *)
  let stats1 = Client.fresh_stats () and stats2 = Client.fresh_stats () in
  Client.spawn v ~coord:0 ~gen:(mk 0) ~ops:50 ~payload_tag:'a' stats1;
  Runtime.spawn (Fab.Volume.cluster v).Core.Cluster.runtime (fun () ->
      for i = 0 to 49 do
        let lba = 10 + (i mod 10) in
        match Fab.Volume.write v ~coord:1 ~lba (Bytes.make 256 'b') with
        | Ok () -> stats2.Client.ops <- stats2.Client.ops + 1
        | Error _ -> stats2.Client.aborts <- stats2.Client.aborts + 1
      done);
  Fab.Volume.run v;
  Alcotest.(check int) "client1 done" 50 stats1.Client.ops;
  Alcotest.(check int) "client1 no aborts" 0 stats1.Client.aborts;
  Alcotest.(check int) "client2 done" 50 stats2.Client.ops;
  Alcotest.(check int) "client2 no aborts" 0 stats2.Client.aborts

(* Each block of a multi-block write carries its write's stamp: after
   the same client writes one 3-block extent twice, no block reads
   back as it did after the first write. Two identical volumes hold
   the state after one and after two writes (the sim is deterministic,
   so the first write is the same on both). *)
let test_every_block_stamped () =
  let extent_after ~ops =
    let v = Fab.Volume.create ~m:2 ~n:4 ~stripes:4 ~block_size:64 () in
    let g =
      Gen.make
        { Gen.read_fraction = 0.; addr = Gen.Sequential; op_blocks = 3 }
        ~capacity_blocks:3 ~rng:(rng ())
    in
    let stats = Client.fresh_stats () in
    Client.spawn v ~coord:0 ~gen:g ~ops stats;
    Fab.Volume.run v;
    Alcotest.(check int) "writes done" ops stats.Client.writes;
    match Fab.Volume.run_op v (fun () -> Fab.Volume.read v ~coord:1 ~lba:0 ~count:3) with
    | Some (Ok b) -> b
    | _ -> Alcotest.fail "read-back failed"
  in
  let first = extent_after ~ops:1 and second = extent_after ~ops:2 in
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "block %d differs" i)
      false
      (Bytes.sub first (i * 64) 64 = Bytes.sub second (i * 64) 64)
  done

(* [sum] adds every tally and merges the latency histograms. *)
let test_stats_helpers () =
  let client ~ops ~reads ~aborts ~unavailable lats =
    let s = Client.fresh_stats () in
    s.Client.ops <- ops;
    s.Client.reads <- reads;
    s.Client.writes <- ops - reads;
    s.Client.aborts <- aborts;
    s.Client.unavailable <- unavailable;
    List.iter (Metrics.Hist.add s.Client.latency) lats;
    s
  in
  let a = client ~ops:10 ~reads:7 ~aborts:1 ~unavailable:0 [ 1.; 2.; 3. ] in
  let b = client ~ops:5 ~reads:1 ~aborts:2 ~unavailable:1 [ 10.; 20. ] in
  let t = Client.sum [| a; b |] in
  Alcotest.(check int) "ops" 15 t.Client.ops;
  Alcotest.(check int) "reads" 8 t.Client.reads;
  Alcotest.(check int) "writes" 7 t.Client.writes;
  Alcotest.(check int) "aborts" 3 t.Client.aborts;
  Alcotest.(check int) "unavailable" 1 t.Client.unavailable;
  Alcotest.(check int) "latencies merged" 5 (Metrics.Hist.count t.Client.latency);
  Alcotest.(check (float 1e-9)) "max latency" 20. (Metrics.Hist.max t.Client.latency);
  Alcotest.(check int) "inputs untouched" 3 (Metrics.Hist.count a.Client.latency);
  let empty = Client.sum [||] in
  Alcotest.(check int) "empty sum" 0 empty.Client.ops;
  Alcotest.(check int) "empty latency" 0 (Metrics.Hist.count empty.Client.latency)

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          Alcotest.test_case "ranges" `Quick test_ranges;
          Alcotest.test_case "read fraction" `Quick test_read_fraction;
          Alcotest.test_case "sequential wraps" `Quick test_sequential_wraps;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "hotspot skew" `Quick test_hotspot_skew;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "clients",
        [
          Alcotest.test_case "single client never aborts" `Quick
            test_single_client_never_aborts;
          Alcotest.test_case "disjoint clients no aborts" `Quick
            test_disjoint_clients_no_aborts;
          Alcotest.test_case "stats helpers" `Quick test_stats_helpers;
          Alcotest.test_case "every block of a write is stamped" `Quick
            test_every_block_stamped;
        ] );
    ]
