(* End-to-end tests of the storage-register protocol (Algorithms 1-3),
   including the Table 1 cost model, partial-write recovery semantics
   (the paper's Figure 5 scenario), crash tolerance, fair-loss
   retransmission, and garbage collection. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module Ts = Core.Timestamp

let bs = 1024

let stripe_data tag m =
  Array.init m (fun i -> Bytes.make bs (Char.chr (Char.code tag + i)))

let check_stripe msg expected = function
  | Some (Ok data) ->
      Alcotest.(check bool) msg true (Array.for_all2 Bytes.equal data expected)
  | Some (Error _) -> Alcotest.fail (msg ^ ": aborted")
  | None -> Alcotest.fail (msg ^ ": no result")

let check_ok msg = function
  | Some (Ok ()) -> ()
  | Some (Error _) -> Alcotest.fail (msg ^ ": aborted")
  | None -> Alcotest.fail (msg ^ ": no result")

let write cl ?coord ~stripe data =
  Cluster.run_op ?coord cl (fun c -> Coordinator.write_stripe c ~stripe data)

let read cl ?coord ~stripe () =
  Cluster.run_op ?coord cl (fun c -> Coordinator.read_stripe c ~stripe)

(* ------------------------------------------------------------------ *)
(* Round trips over codecs and geometries                              *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_geometries () =
  List.iter
    (fun (m, n) ->
      let cl = Cluster.create ~m ~n () in
      let data = stripe_data 'A' m in
      check_ok "write" (write cl ~stripe:0 data);
      (* Read through every coordinator. *)
      for coord = 0 to n - 1 do
        check_stripe
          (Printf.sprintf "(%d,%d) read via %d" m n coord)
          data
          (read cl ~coord ~stripe:0 ())
      done)
    [ (1, 3); (2, 3); (3, 5); (5, 8); (4, 6); (1, 5) ]

let test_overwrite_sequence () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  for round = 0 to 9 do
    let data = stripe_data (Char.chr (65 + round)) 3 in
    check_ok "write round" (write cl ~coord:(round mod 5) ~stripe:0 data);
    check_stripe "read back latest" data (read cl ~coord:((round + 1) mod 5) ~stripe:0 ())
  done

let test_unwritten_stripe_reads_zero () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  match read cl ~stripe:7 () with
  | Some (Ok data) ->
      Array.iter
        (fun b ->
          Alcotest.(check bool) "zeroes" true
            (Bytes.for_all (fun c -> c = '\000') b))
        data
  | _ -> Alcotest.fail "read of fresh stripe"

let test_independent_stripes () =
  let cl = Cluster.create ~m:2 ~n:4 () in
  let d0 = stripe_data 'a' 2 and d1 = stripe_data 'q' 2 in
  check_ok "write s0" (write cl ~stripe:0 d0);
  check_ok "write s1" (write cl ~stripe:1 d1);
  check_stripe "s0 intact" d0 (read cl ~stripe:0 ());
  check_stripe "s1 intact" d1 (read cl ~stripe:1 ())

let test_block_ops () =
  let cl = Cluster.create ~m:5 ~n:8 () in
  let data = stripe_data 'A' 5 in
  check_ok "seed stripe" (write cl ~stripe:0 data);
  (* Write each block in turn through different coordinators, then
     check single-block and full-stripe reads agree. *)
  for j = 0 to 4 do
    let b = Bytes.make bs (Char.chr (109 + j)) in
    check_ok "write_block"
      (Cluster.run_op ~coord:(j mod 8) cl (fun c ->
           Coordinator.with_retries c (fun () ->
               Coordinator.write_blocks c ~stripe:0 j [| b |])));
    data.(j) <- b;
    (match
       Cluster.run_op ~coord:((j + 3) mod 8) cl (fun c ->
           Coordinator.read_blocks c ~stripe:0 j ~len:1)
     with
    | Some (Ok [| got |]) -> Alcotest.(check bool) "block readback" true (Bytes.equal got b)
    | _ -> Alcotest.fail "read_block failed")
  done;
  check_stripe "stripe reflects block writes" data (read cl ~stripe:0 ())

let test_block_ops_on_parity_code () =
  let cl = Cluster.create ~m:4 ~n:5 () in
  (* RAID-5-style codec via block writes only; stripe starts nil. *)
  let expected = Array.init 4 (fun _ -> Bytes.make bs '\000') in
  List.iter
    (fun j ->
      let b = Bytes.make bs (Char.chr (48 + j)) in
      expected.(j) <- b;
      check_ok "write_block on nil stripe"
        (Cluster.run_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 j [| b |])))
    [ 2; 0; 3; 1 ];
  check_stripe "all blocks landed" expected (read cl ~stripe:0 ())

let test_multi_block_ops () =
  let cl = Cluster.create ~m:5 ~n:8 () in
  let data = stripe_data 'A' 5 in
  check_ok "seed" (write cl ~stripe:0 data);
  (* Write blocks 1..3 in one operation, read them back both ways. *)
  let news = Array.init 3 (fun i -> Bytes.make bs (Char.chr (112 + i))) in
  check_ok "write_blocks"
    (Cluster.run_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 1 news));
  Array.iteri (fun i b -> data.(1 + i) <- b) news;
  (match
     Cluster.run_op ~coord:4 cl (fun c ->
         Coordinator.read_blocks c ~stripe:0 1 ~len:3)
   with
  | Some (Ok got) ->
      Alcotest.(check bool) "multi readback" true
        (Array.for_all2 Bytes.equal got news)
  | _ -> Alcotest.fail "read_blocks failed");
  check_stripe "stripe view agrees" data (read cl ~coord:2 ~stripe:0 ());
  (* Parity must have been maintained: decode with data bricks down. *)
  Cluster.crash cl 1;
  check_stripe "parity consistent after multi write" data
    (read cl ~coord:0 ~stripe:0 ())

let test_multi_block_costs () =
  (* The point of the footnote-2 extension: one round trip for the
     whole range, not one per block. *)
  let cl = Cluster.create ~m:5 ~n:8 () in
  check_ok "seed" (write cl ~stripe:0 (stripe_data 'A' 5));
  let news = Array.init 3 (fun i -> Bytes.make bs (Char.chr (50 + i))) in
  let before = Cluster.snapshot cl in
  let lat = ref 0. in
  (match
     Cluster.run_op cl (fun c ->
         let t0 = Runtime.now cl.Cluster.runtime in
         let r = Coordinator.write_blocks c ~stripe:0 1 news in
         lat := Runtime.now cl.Cluster.runtime -. t0;
         r)
   with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write_blocks");
  let after = Cluster.snapshot cl in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check (float 0.)) "multi write latency 4 delta" 4. !lat;
  Alcotest.(check (float 0.)) "multi write msgs 4n" 32. (d "net.msgs");
  (* Reads: one per range block at the targets + one per parity. *)
  Alcotest.(check (float 0.)) "multi write disk reads" 6. (d "disk.reads");
  Alcotest.(check (float 0.)) "multi write disk writes len+k" 6. (d "disk.writes");
  (* Fast multi reads also cost a single round. *)
  let before = Cluster.snapshot cl in
  (match
     Cluster.run_op ~coord:3 cl (fun c ->
         Coordinator.read_blocks c ~stripe:0 1 ~len:3)
   with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "read_blocks");
  let after = Cluster.snapshot cl in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check (float 0.)) "multi read msgs 2n" 16. (d "net.msgs");
  Alcotest.(check (float 0.)) "multi read disk reads = len" 3. (d "disk.reads")

let test_multi_block_degenerates_to_stripe () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  let data = stripe_data 'Q' 3 in
  check_ok "write_blocks full stripe"
    (Cluster.run_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 0 data));
  (match
     Cluster.run_op ~coord:1 cl (fun c ->
         Coordinator.read_blocks c ~stripe:0 0 ~len:3)
   with
  | Some (Ok got) ->
      Alcotest.(check bool) "full range" true (Array.for_all2 Bytes.equal got data)
  | _ -> Alcotest.fail "read_blocks full");
  Alcotest.check_raises "range oob"
    (Invalid_argument "Core.Coordinator: block range out of bounds") (fun () ->
      ignore
        (Cluster.run_op cl (fun c -> Coordinator.read_blocks c ~stripe:0 2 ~len:2)))

let test_multi_block_after_single_block_write () =
  (* A single-block write leaves mixed version timestamps in the range;
     the fast multi path must bail to the slow path and still be
     correct. *)
  let cl = Cluster.create ~m:4 ~n:6 () in
  let data = stripe_data 'A' 4 in
  check_ok "seed" (write cl ~stripe:0 data);
  let nb = Bytes.make bs 'x' in
  check_ok "single write"
    (Cluster.run_op cl (fun c ->
         Coordinator.with_retries c (fun () ->
             Coordinator.write_blocks c ~stripe:0 1 [| nb |])));
  data.(1) <- nb;
  let news = Array.init 2 (fun i -> Bytes.make bs (Char.chr (77 + i))) in
  check_ok "multi write over mixed versions"
    (Cluster.run_op ~coord:2 cl (fun c ->
         Coordinator.with_retries c (fun () ->
             Coordinator.write_blocks c ~stripe:0 1 news)));
  data.(1) <- news.(0);
  data.(2) <- news.(1);
  check_stripe "state correct" data (read cl ~coord:5 ~stripe:0 ())

let test_input_validation () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  Alcotest.check_raises "wrong block count"
    (Invalid_argument "Core.Coordinator.write_stripe: wrong block count")
    (fun () ->
      ignore (write cl ~stripe:0 (stripe_data 'A' 2)));
  Alcotest.check_raises "bad index"
    (Invalid_argument "Core.Coordinator: block index out of range") (fun () ->
      ignore
        (Cluster.run_op cl (fun c ->
             Coordinator.read_blocks c ~stripe:0 5 ~len:1)))

(* ------------------------------------------------------------------ *)
(* Table 1 cost model                                                  *)
(* ------------------------------------------------------------------ *)

let measure cl f =
  let before = Cluster.snapshot cl in
  let t0 = Runtime.now cl.Cluster.runtime in
  let result = Cluster.run_op cl f in
  (* The operation's completion time is when the fiber finished; ops
     here always finish before quiescence, so take latency from a
     wrapper instead. *)
  ignore t0;
  let after = Cluster.snapshot cl in
  (result, fun name -> Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name)

let measure_latency ?coord cl f =
  let t = ref 0. in
  let result =
    Cluster.run_op ?coord cl (fun c ->
        let started = Runtime.now cl.Cluster.runtime in
        let r = f c in
        t := Runtime.now cl.Cluster.runtime -. started;
        r)
  in
  (result, !t)

let test_costs_fast_paths () =
  (* n = 8, m = 5, k = 3, B = 1024: the paper's running example. *)
  let n = 8 and m = 5 and k = 3 in
  let nf = float_of_int n and mf = float_of_int m and bf = float_of_int bs in
  let cl = Cluster.create ~m ~n () in
  let data = stripe_data 'A' m in

  (* write-stripe: 4delta, 4n msgs, 0 reads, n writes, nB. *)
  let r, d = measure cl (fun c -> Coordinator.write_stripe c ~stripe:0 data) in
  check_ok "write" (Option.map (fun x -> x) r);
  Alcotest.(check (float 0.)) "write msgs" (4. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "write disk reads" 0. (d "disk.reads");
  Alcotest.(check (float 0.)) "write disk writes" nf (d "disk.writes");
  Alcotest.(check (float 0.)) "write bandwidth" (nf *. bf) (d "net.bytes");
  let _, lat = measure_latency cl (fun c -> Coordinator.write_stripe c ~stripe:1 data) in
  Alcotest.(check (float 0.)) "write latency 4 delta" 4. lat;

  (* read-stripe fast: 2delta, 2n msgs, m reads, 0 writes, mB. *)
  let r, d = measure cl (fun c -> Coordinator.read_stripe c ~stripe:0) in
  check_stripe "fast read" data r;
  Alcotest.(check (float 0.)) "read msgs" (2. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "read disk reads" mf (d "disk.reads");
  Alcotest.(check (float 0.)) "read disk writes" 0. (d "disk.writes");
  Alcotest.(check (float 0.)) "read bandwidth" (mf *. bf) (d "net.bytes");
  let _, lat = measure_latency cl (fun c -> Coordinator.read_stripe c ~stripe:0) in
  Alcotest.(check (float 0.)) "read latency 2 delta" 2. lat;

  (* read-block fast: 2delta, 2n msgs, 1 read, B. *)
  let r, d = measure cl (fun c -> Coordinator.read_blocks c ~stripe:0 2 ~len:1) in
  (match r with
  | Some (Ok [| b |]) -> Alcotest.(check bool) "value" true (Bytes.equal b data.(2))
  | _ -> Alcotest.fail "read_block");
  Alcotest.(check (float 0.)) "rb msgs" (2. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "rb disk reads" 1. (d "disk.reads");
  Alcotest.(check (float 0.)) "rb bandwidth" bf (d "net.bytes");

  (* write-block fast: 4delta, 4n msgs, k+1 reads, k+1 writes, (2n+1)B. *)
  let nb = Bytes.make bs 'z' in
  let r, d = measure cl (fun c -> Coordinator.write_blocks c ~stripe:0 2 [| nb |]) in
  check_ok "write_block" r;
  Alcotest.(check (float 0.)) "wb msgs" (4. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "wb disk reads" (float_of_int (k + 1)) (d "disk.reads");
  Alcotest.(check (float 0.)) "wb disk writes" (float_of_int (k + 1)) (d "disk.writes");
  Alcotest.(check (float 0.)) "wb bandwidth" (((2. *. nf) +. 1.) *. bf) (d "net.bytes")

(* Force a partial stripe write: isolate the coordinator's Write
   messages so they reach only [reach] members, then crash the
   coordinator. Uses a second cluster brick as the doomed coordinator
   so the main coordinator (brick 0) is unaffected. *)
let inject_partial_write cl ~stripe ~doomed ~reach data =
  let n = Array.length cl.Cluster.bricks in
  (* First run the Order phase normally by letting write_stripe start,
     but cut the links for the Write phase only. We approximate by
     letting the whole two-phase write run with links cut to all but
     [reach] members *after* one round trip (the Order phase). *)
  Runtime.spawn cl.Cluster.runtime (fun () ->
      ignore (Coordinator.write_stripe cl.Cluster.coordinators.(doomed) ~stripe data));
  (* The Order phase completes at t+2; cut links at t+2.5, before the
     Write phase's messages (sent at t+2) arrive?  Messages already in
     flight are not affected by link cuts, so instead cut at t+1.5:
     Order replies (arriving at 2) still flow to the coordinator, the
     Write messages sent at 2 cross the cut links and die. *)
  let rt = cl.Cluster.runtime in
  ignore
    (Runtime.timer rt ~delay:1.5 (fun () ->
         for dst = 0 to n - 1 do
           if not (List.mem dst reach) then
             Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:doomed ~dst true
         done));
  ignore
    (Runtime.timer rt ~delay:4.5 (fun () ->
         Brick.crash cl.Cluster.bricks.(doomed)));
  ignore
    (Runtime.timer rt ~delay:5.0 (fun () ->
         for dst = 0 to n - 1 do
           Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:doomed ~dst false
         done;
         Brick.recover cl.Cluster.bricks.(doomed)));
  Cluster.run ~horizon:20. cl

(* A block write's Modify round applies on the members whose newest
   version is its basis and is refused elsewhere; the slow path then
   stores at the same timestamp. With the Modify's takers cut off from
   the coordinator, a slow store can complete without them, so it must
   patch the Modify's basis or abort: otherwise one timestamp names two
   stripe contents, and a read decoding across them returns garbage. *)
let test_slow_write_one_content_per_ts () =
  let m = 2 and n = 6 in
  (* q = 4: a slow-path quorum can miss two members. *)
  let cl = Cluster.create ~m ~n () in
  check_ok "initial write" (write cl ~stripe:0 (stripe_data 'A' m));
  (* Version B reaches only data member 0 and parity member 2. *)
  inject_partial_write cl ~stripe:0 ~doomed:4 ~reach:[ 0; 2 ] (stripe_data 'B' m);
  let coord = 3 in
  (* Coordinator 3 must propose above B: fold B's timestamp, the
     newest on member 0, into its clock. *)
  let partial_ts =
    fst
      (Core.Slog.max_block
         (Option.get (Core.Replica.log cl.Cluster.replicas.(0) ~stripe:0)))
  in
  Core.Clock.observe (Coordinator.clock cl.Cluster.coordinators.(coord)) partial_ts;
  let fnet = Cluster.faultnet cl in
  (* The Order&Read round is in by t+2; cut the Modify takers' replies
     before the Modify round's come back. *)
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:2.5 (fun () ->
         List.iter
           (fun src -> Simnet.Faultnet.set_link_down fnet ~src ~dst:coord true)
           [ 0; 2 ]));
  (match
     Cluster.run_op ~coord cl (fun c ->
         Coordinator.write_blocks c ~stripe:0 0 [| Bytes.make bs 'C' |])
   with
  | Some _ -> ()
  | None -> Alcotest.fail "block write did not finish");
  Simnet.Faultnet.reset fnet;
  (* Every m members holding a block at the newest timestamp decode to
     the same stripe. *)
  let logs =
    List.init n (fun p ->
        (p, Option.get (Core.Replica.log cl.Cluster.replicas.(p) ~stripe:0)))
  in
  let newest =
    List.fold_left
      (fun acc (_, l) -> Ts.max acc (fst (Core.Slog.max_block l)))
      Ts.low logs
  in
  let holders =
    List.filter_map
      (fun (p, l) ->
        match Core.Slog.find l newest with
        | Some (Some b) -> Some (p, b)
        | Some None | None -> None)
      logs
  in
  let codec = Core.Config.codec cl.Cluster.cfg ~stripe:0 in
  let decode pair = Erasure.Codec.decode codec pair in
  let first = decode (List.filteri (fun i _ -> i < m) holders) in
  List.iteri
    (fun i a ->
      List.iteri
        (fun k b ->
          if k > i then
            Alcotest.(check bool)
              (Printf.sprintf "members %d and %d decode alike" (fst a) (fst b))
              true
              (Array.for_all2 Bytes.equal first (decode [ a; b ])))
        holders)
    holders

let test_partial_write_rolled_back () =
  (* Figure 5 as a full scenario: a write reaching fewer than m
     replicas must be rolled back; later reads must never surface it. *)
  let cl = Cluster.create ~m:3 ~n:5 () in
  let old_data = stripe_data 'A' 3 in
  check_ok "initial write" (write cl ~stripe:0 old_data);
  let new_data = stripe_data 'X' 3 in
  inject_partial_write cl ~stripe:0 ~doomed:4 ~reach:[ 0 ] new_data;
  (* The partial write reached 1 < m = 3 replicas: rolled back. *)
  check_stripe "read returns old value" old_data (read cl ~coord:1 ~stripe:0 ());
  (* Strictness: repeat reads through every coordinator, including
     after the doomed brick recovered; the new value must never
     appear. *)
  for coord = 0 to 4 do
    check_stripe "stays rolled back" old_data (read cl ~coord ~stripe:0 ())
  done

let test_partial_write_rolled_forward () =
  (* A partial write reaching >= m replicas may be completed by the
     next read (roll-forward), and then must stick. *)
  let cl = Cluster.create ~m:3 ~n:5 () in
  let old_data = stripe_data 'A' 3 in
  check_ok "initial write" (write cl ~stripe:0 old_data);
  let new_data = stripe_data 'X' 3 in
  inject_partial_write cl ~stripe:0 ~doomed:4 ~reach:[ 0; 1; 2 ] new_data;
  check_stripe "read rolls forward" new_data (read cl ~coord:1 ~stripe:0 ());
  for coord = 0 to 4 do
    check_stripe "stays rolled forward" new_data (read cl ~coord ~stripe:0 ())
  done

let test_read_slow_path_costs () =
  (* Table 1 read/S: 6delta, 6n msgs, n+m disk reads, n writes,
     (2n+m)B — after a partial write forces recovery. *)
  let n = 8 and m = 5 in
  let nf = float_of_int n and mf = float_of_int m and bf = float_of_int bs in
  let cl = Cluster.create ~m ~n () in
  (* Table 1's read/S scenario: one replica misses a write (it was
     crashed) and rejoins; the fast phase then sees diverging version
     timestamps, pays its full m block reads, and falls back to a
     single-iteration recovery. *)
  Cluster.crash cl 0;
  check_ok "write missing one replica"
    (Cluster.run_op ~coord:1 cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 (stripe_data 'B' m)));
  Cluster.recover cl 0;
  let before = Cluster.snapshot cl in
  let r, lat =
    measure_latency ~coord:1 cl (fun c -> Coordinator.read_stripe c ~stripe:0)
  in
  check_stripe "read/S returns the write" (stripe_data 'B' m) r;
  let after = Cluster.snapshot cl in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check (float 0.)) "read/S latency 6 delta" 6. lat;
  Alcotest.(check (float 0.)) "read/S msgs" (6. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "read/S disk writes" nf (d "disk.writes");
  Alcotest.(check (float 0.)) "read/S bandwidth" (((2. *. nf) +. mf) *. bf) (d "net.bytes");
  Alcotest.(check (float 0.)) "read/S disk reads n+m" (nf +. mf) (d "disk.reads")

let test_crash_tolerance_boundary () =
  (* f = (n - m) / 2 crashes are tolerated; f + 1 stall the system
     (liveness, not safety, is lost). *)
  let cl = Cluster.create ~m:3 ~n:7 () in
  (* f = 2 *)
  let data = stripe_data 'A' 3 in
  check_ok "write" (write cl ~stripe:0 data);
  Cluster.crash cl 5;
  Cluster.crash cl 6;
  check_stripe "read with f crashes" data (read cl ~coord:0 ~stripe:0 ());
  check_ok "write with f crashes" (write cl ~stripe:0 (stripe_data 'B' 3));
  Cluster.crash cl 4;
  (match Cluster.run_op ~horizon:500. cl (fun c -> Coordinator.read_stripe c ~stripe:0) with
  | None -> ()  (* blocked, as expected: no quorum *)
  | Some _ -> Alcotest.fail "operation should stall without a quorum");
  (* Recovery of one brick restores liveness; note the persistent
     state survived the crash. *)
  Cluster.recover cl 4;
  check_stripe "after recovery" (stripe_data 'B' 3) (read cl ~coord:1 ~stripe:0 ())

let test_total_crash_and_restart () =
  (* The paper: "our algorithm can tolerate the simultaneous crash of
     all processes, and makes progress whenever an m-quorum comes back
     up". *)
  let cl = Cluster.create ~m:3 ~n:5 () in
  let data = stripe_data 'A' 3 in
  check_ok "write" (write cl ~stripe:0 data);
  for i = 0 to 4 do Cluster.crash cl i done;
  (match Cluster.run_op ~horizon:100. cl (fun c -> Coordinator.read_stripe c ~stripe:0) with
  | None -> ()
  | Some _ -> Alcotest.fail "all-crashed cluster must stall");
  for i = 0 to 3 do Cluster.recover cl i done;  (* quorum = 4 back up *)
  check_stripe "data survives total crash" data (read cl ~coord:0 ~stripe:0 ())

let test_message_loss_resilience () =
  let cl =
    Cluster.create ~m:3 ~n:5
      ~net_config:{ Simnet.Net.default_config with drop = 0.25 } ()
  in
  for round = 0 to 4 do
    let data = stripe_data (Char.chr (65 + round)) 3 in
    (match
       Cluster.run_op ~coord:(round mod 5) ~horizon:10_000. cl (fun c ->
           Coordinator.with_retries c (fun () ->
               Coordinator.write_stripe c ~stripe:0 data))
     with
    | Some (Ok ()) -> ()
    | Some (Error _) -> Alcotest.fail "lossy write aborted"
    | None -> Alcotest.fail "lossy write hung");
    match
      Cluster.run_op ~coord:((round + 2) mod 5) ~horizon:10_000. cl (fun c ->
          Coordinator.with_retries c (fun () ->
              Coordinator.read_stripe c ~stripe:0))
    with
    | Some (Ok got) ->
        Alcotest.(check bool) "lossy read correct" true
          (Array.for_all2 Bytes.equal got data)
    | _ -> Alcotest.fail "lossy read failed"
  done

let test_write_block_with_crashed_target () =
  (* p_j crashed: the fast path cannot see its current block, so the
     write falls back to the slow path (reconstruct, patch, store). *)
  let cl = Cluster.create ~m:5 ~n:8 () in
  let data = stripe_data 'A' 5 in
  check_ok "seed" (write cl ~stripe:0 data);
  Cluster.crash cl 2;  (* p_2 holds block 2 *)
  let nb = Bytes.make bs 'z' in
  check_ok "write_block via slow path"
    (Cluster.run_op ~coord:0 cl (fun c -> Coordinator.write_blocks c ~stripe:0 2 [| nb |]));
  data.(2) <- nb;
  check_stripe "slow-path write visible" data (read cl ~coord:3 ~stripe:0 ());
  (* After p_2 recovers it serves reads again; its stale log entry for
     block 2 is superseded by version ordering. *)
  Cluster.recover cl 2;
  (match Cluster.run_op ~coord:2 cl (fun c -> Coordinator.read_blocks c ~stripe:0 2 ~len:1) with
  | Some (Ok [| b |]) -> Alcotest.(check bool) "recovered brick reads new block" true (Bytes.equal b nb)
  | _ -> Alcotest.fail "read via recovered brick")

(* ------------------------------------------------------------------ *)
(* Degraded reads: decode from live members, route around suspects     *)
(* ------------------------------------------------------------------ *)

(* rs 5-of-8 with data brick 4 crashed after a prefill of [stripes]. *)
let degraded_cluster ?(stripes = 4) () =
  let cl = Cluster.create ~m:5 ~n:8 () in
  let data = Array.init stripes (fun s -> stripe_data (Char.chr (65 + (5 * s))) 5) in
  Array.iteri (fun s d -> check_ok "prefill" (write cl ~stripe:s d)) data;
  Cluster.crash cl 4;
  (cl, data)

type tally = {
  mutable recovers : int;  (* Recover rounds started *)
  mutable orders : int;  (* Order rounds started *)
  mutable retargeted : int list;  (* suspects of Retarget events *)
}

let tally cl =
  let t = { recovers = 0; orders = 0; retargeted = [] } in
  Obs.add_sink cl.Cluster.obs
    (Obs.Sink.make (fun ev ->
         match (ev.Obs.kind, ev.Obs.phase) with
         | Obs.Phase_start, Some Obs.Recover -> t.recovers <- t.recovers + 1
         | Obs.Phase_start, Some Obs.Order -> t.orders <- t.orders + 1
         | Obs.Retarget { suspect }, _ -> t.retargeted <- suspect :: t.retargeted
         | _ -> ()));
  t

let read_block_ok ?(coord = 0) cl ~stripe j =
  match Cluster.run_op ~coord cl (fun c -> Coordinator.read_blocks c ~stripe j ~len:1) with
  | Some (Ok [| b |]) -> b
  | _ -> Alcotest.failf "read_block s%d b%d failed" stripe j

let counter cl name = Metrics.Registry.value cl.Cluster.metrics name

let test_idle_coordinator_writes_fast () =
  (* No concurrency: coordinator 0 writes blocks of stripe 0 five
     times, then coordinator 1, idle until now, writes one block. Its
     clock reads the same time base as coordinator 0's, so it proposes
     above the stripe's newest version and the write takes the fast
     path: Order&Read plus Modify, nothing refused, no recovery. *)
  let m = 3 and n = 5 in
  let cl = Cluster.create ~m ~n () in
  for i = 0 to 4 do
    check_ok "coordinator 0 write"
      (Cluster.run_op ~coord:0 cl (fun c ->
           Coordinator.write_blocks c ~stripe:0 (i mod m)
             [| Bytes.make bs (Char.chr (65 + i)) |]))
  done;
  let phases = ref [] and outcomes = ref [] in
  Obs.add_sink cl.Cluster.obs
    (Obs.Sink.make (fun ev ->
         match (ev.Obs.kind, ev.Obs.phase) with
         | Obs.Phase_start, Some p -> phases := p :: !phases
         | Obs.Span_end { outcome; _ }, _ -> outcomes := outcome :: !outcomes
         | _ -> ()));
  let r, lat =
    measure_latency ~coord:1 cl (fun c ->
        Coordinator.write_blocks c ~stripe:0 1 [| Bytes.make bs 'z' |])
  in
  check_ok "coordinator 1 write" r;
  Alcotest.(check (list string)) "two rounds: order, modify"
    [ "order"; "modify" ]
    (List.rev_map Obs.phase_name !phases);
  Alcotest.(check bool) "no Retry or Abort span" true
    (!outcomes = [ Obs.Ok ]);
  Alcotest.(check (float 0.)) "4 delta" 4. lat

(* ------------------------------------------------------------------ *)
(* Order elision (DESIGN 4d)                                           *)
(* ------------------------------------------------------------------ *)

(* The rounds an operation ran ("order", "write", ...) and the rounds
   it elided ("elided order"), in order, from attaching on. *)
let round_log cl =
  let log = ref [] in
  Obs.add_sink cl.Cluster.obs
    (Obs.Sink.make (fun ev ->
         match (ev.Obs.kind, ev.Obs.phase) with
         | Obs.Phase_start, Some p -> log := Obs.phase_name p :: !log
         | Obs.Phase_elided, Some p ->
             log := ("elided " ^ Obs.phase_name p) :: !log
         | _ -> ()));
  fun () ->
    let rounds = List.rev !log in
    log := [];
    rounds

let write_stripe_latency ?coord cl ~stripe tag =
  let m = Core.Config.m cl.Cluster.cfg ~stripe in
  let r, lat =
    measure_latency ?coord cl (fun c ->
        Coordinator.write_stripe c ~stripe (stripe_data tag m))
  in
  check_ok "write_stripe" r;
  lat

let test_repeat_write_stripe_elides () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  let rounds = round_log cl in
  Alcotest.(check (float 0.)) "first write 4 delta" 4.
    (write_stripe_latency cl ~stripe:0 'A');
  Alcotest.(check (list string)) "first write orders" [ "order"; "write" ]
    (rounds ());
  Alcotest.(check (float 0.)) "second write 2 delta" 2.
    (write_stripe_latency cl ~stripe:0 'B');
  Alcotest.(check (list string)) "second write elides its order round"
    [ "elided order"; "write" ] (rounds ());
  check_stripe "read back" (stripe_data 'B' 3) (read cl ~stripe:0 ())

let test_block_write_never_elides () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  ignore (write_stripe_latency cl ~stripe:0 'A');
  ignore (write_stripe_latency cl ~stripe:0 'B');
  let rounds = round_log cl in
  let r, lat =
    measure_latency cl (fun c ->
        Coordinator.write_blocks c ~stripe:0 1 [| Bytes.make bs 'z' |])
  in
  check_ok "write_block" r;
  Alcotest.(check (list string)) "Order&Read then Modify"
    [ "order"; "modify" ] (rounds ());
  Alcotest.(check (float 0.)) "fast path 4 delta" 4. lat

let test_replication_never_elides () =
  (* 1-of-3: f = 1 = m, so a partial unordered write could be missed
     by a later quorum; every write keeps both rounds. *)
  let cl = Cluster.create ~m:1 ~n:3 () in
  let rounds = round_log cl in
  for i = 0 to 2 do
    Alcotest.(check (float 0.)) "4 delta" 4.
      (write_stripe_latency cl ~stripe:0 (Char.chr (65 + i)))
  done;
  Alcotest.(check (list string)) "no round elided"
    [ "order"; "write"; "order"; "write"; "order"; "write" ]
    (rounds ())

let test_crash_empties_cache () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  ignore (write_stripe_latency cl ~stripe:0 'A');
  Alcotest.(check (float 0.)) "warm" 2.
    (write_stripe_latency cl ~stripe:0 'B');
  Cluster.crash cl 0;
  Cluster.recover cl 0;
  let rounds = round_log cl in
  Alcotest.(check (float 0.)) "cold after crash" 4.
    (write_stripe_latency cl ~stripe:0 'C');
  Alcotest.(check (list string)) "orders again" [ "order"; "write" ]
    (rounds ())

let test_cache_shared_across_domains () =
  (* One coordinator, its write-stripe tasks spread over 4 domains, on
     more stripes than the cache holds: entries are added, replaced
     and flushed on overflow concurrently. *)
  let m = 2 and bs = 64 and tasks = 8 and passes = 2 in
  let stripes = Coordinator.cache_capacity + 100 in
  let cl = Cluster.create ~backend:(Mc { domains = 4 }) ~m ~n:4 ~block_size:bs () in
  let value s pass =
    Array.init m (fun i -> Bytes.make bs (Char.chr (65 + ((s + i + pass) mod 26))))
  in
  let failures = Atomic.make 0 in
  (* A corrupted table can loop forever: fail after a bound instead of
     hanging, and leave a stuck pool unreaped (see try_quiesce). *)
  let quiet () = Cluster.try_quiesce ~timeout:60. cl in
  Fun.protect
    ~finally:(fun () -> if quiet () then Cluster.shutdown cl)
    (fun () ->
      let c = cl.Cluster.coordinators.(0) in
      for k = 0 to tasks - 1 do
        Runtime.spawn cl.Cluster.runtime (fun () ->
            try
              for pass = 0 to passes - 1 do
                for s = 0 to stripes - 1 do
                  if s mod tasks = k then
                    match Coordinator.write_stripe c ~stripe:s (value s pass) with
                    | Ok () -> ()
                    | Error _ -> Atomic.incr failures
                done
              done
            with _ -> Atomic.incr failures)
      done;
      if not (quiet ()) then Alcotest.fail "writers stuck";
      Alcotest.(check int) "every write succeeded, nothing raised" 0
        (Atomic.get failures);
      for s = 0 to stripes - 1 do
        match Coordinator.read_stripe c ~stripe:s with
        | Ok data ->
            if not (Array.for_all2 Bytes.equal data (value s (passes - 1))) then
              Alcotest.failf "stripe %d reads back wrong" s
        | Error _ -> Alcotest.failf "stripe %d read failed" s
      done)

let test_degraded_read_pass () =
  (* Every block read back while brick 4 is down: reads of block 4 (and
     ranges over it) decode from live members instead of recovering,
     so the pass writes nothing. *)
  let stripes = 4 in
  let cl, data = degraded_cluster ~stripes () in
  let t = tally cl in
  let before = Cluster.snapshot cl in
  for s = 0 to stripes - 1 do
    for j = 0 to 4 do
      Alcotest.(check bool)
        (Printf.sprintf "s%d b%d" s j)
        true
        (Bytes.equal (read_block_ok cl ~stripe:s j) data.(s).(j))
    done;
    match
      Cluster.run_op ~coord:1 cl (fun c -> Coordinator.read_blocks c ~stripe:s 3 ~len:2)
    with
    | Some (Ok got) ->
        Alcotest.(check bool) "range over brick 4" true
          (Bytes.equal got.(0) data.(s).(3) && Bytes.equal got.(1) data.(s).(4))
    | _ -> Alcotest.fail "read_blocks over brick 4"
  done;
  let after = Cluster.snapshot cl in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check int) "no Recover round" 0 t.recovers;
  Alcotest.(check (float 0.)) "no disk writes" 0. (d "disk.writes");
  Alcotest.(check (list int)) "every re-target routes around brick 4"
    (List.init (2 * stripes) (fun _ -> 4))
    t.retargeted;
  Alcotest.(check (float 0.)) "coord.retargets" (float_of_int (2 * stripes))
    (d "coord.retargets");
  Alcotest.(check (float 0.)) "one suspicion per coordinator" 2.
    (d "coord.suspects");
  Alcotest.(check (list int)) "coordinator 0 suspects brick 4" [ 4 ]
    (Coordinator.suspects cl.Cluster.coordinators.(0));
  (* Once suspected, a read of block 4 skips the grace wait: one round. *)
  let r, lat =
    measure_latency ~coord:0 cl (fun c -> Coordinator.read_blocks c ~stripe:0 4 ~len:1)
  in
  (match r with
  | Some (Ok [| b |]) -> Alcotest.(check bool) "value" true (Bytes.equal b data.(0).(4))
  | _ -> Alcotest.fail "suspected read");
  Alcotest.(check (float 0.)) "one round (2 delta)" 2. lat

let test_degraded_write_skips_fast_path () =
  (* Read, then write brick 4's block: the write goes straight to the
     slow path at its own timestamp — no Order&Read aimed at brick 4,
     no grace wait. *)
  let cl, data = degraded_cluster ~stripes:2 () in
  ignore (read_block_ok cl ~stripe:0 4);
  let t = tally cl in
  let nb = Bytes.make bs 'z' in
  let r, lat =
    measure_latency ~coord:0 cl (fun c -> Coordinator.write_blocks c ~stripe:0 4 [| nb |])
  in
  check_ok "write_block" r;
  Alcotest.(check int) "no Order round" 0 t.orders;
  Alcotest.(check (list int)) "routed around brick 4" [ 4 ] t.retargeted;
  Alcotest.(check (float 0.)) "slow path only (4 delta)" 4. lat;
  check_ok "write_blocks over brick 4"
    (Cluster.run_op ~coord:0 cl (fun c ->
         Coordinator.write_blocks c ~stripe:1 3 [| nb; nb |]));
  Alcotest.(check int) "still no Order round" 0 t.orders;
  data.(0).(4) <- nb;
  data.(1).(3) <- nb;
  data.(1).(4) <- nb;
  check_stripe "stripe 0 read back" data.(0) (read cl ~coord:0 ~stripe:0 ());
  check_stripe "stripe 1 read back" data.(1) (read cl ~coord:0 ~stripe:1 ());
  Alcotest.(check bool) "block 4 degraded read" true
    (Bytes.equal (read_block_ok cl ~stripe:0 4) nb)

let test_recover_clears_suspicion () =
  let cl, data = degraded_cluster ~stripes:2 () in
  let c0 = cl.Cluster.coordinators.(0) in
  ignore (read_block_ok cl ~stripe:0 4);
  Alcotest.(check (list int)) "suspected" [ 4 ] (Coordinator.suspects c0);
  Cluster.recover cl 4;
  (* Any reply clears it; reads are broadcast to every member. *)
  ignore (read_block_ok cl ~stripe:0 0);
  Alcotest.(check (list int)) "cleared by its reply" [] (Coordinator.suspects c0);
  let t = tally cl in
  let r, lat =
    measure_latency ~coord:0 cl (fun c -> Coordinator.read_blocks c ~stripe:1 4 ~len:1)
  in
  (match r with
  | Some (Ok [| b |]) -> Alcotest.(check bool) "value" true (Bytes.equal b data.(1).(4))
  | _ -> Alcotest.fail "read after recover");
  Alcotest.(check (list int)) "targets brick 4 again" [] t.retargeted;
  Alcotest.(check (float 0.)) "fast path (2 delta)" 2. lat;
  (* A coordinator crash forgets its suspicions. *)
  Cluster.crash cl 4;
  ignore (read_block_ok cl ~stripe:0 4);
  Alcotest.(check (list int)) "suspected again" [ 4 ] (Coordinator.suspects c0);
  Cluster.crash cl 0;
  Cluster.recover cl 0;
  Alcotest.(check (list int)) "crash empties the set" [] (Coordinator.suspects c0)

let test_degraded_read_mc () =
  (* The crash/recover case on the multicore backend: real mailbox
     teardown, wall-clock grace period, suspicion updated by CAS. *)
  let cl = Cluster.create ~backend:(Mc { domains = 1 }) ~m:5 ~n:8 ~block_size:bs
      ~retry_every:0.01 () in
  Fun.protect
    ~finally:(fun () ->
      if Cluster.try_quiesce ~timeout:30. cl then Cluster.shutdown cl
      else Alcotest.fail "mc cluster failed to quiesce")
    (fun () ->
      let c = cl.Cluster.coordinators.(0) in
      let data = stripe_data 'M' 5 in
      (match Coordinator.write_stripe c ~stripe:0 data with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "prefill");
      Cluster.crash cl 4;
      (* Reads run as tasks on the pool's one domain, so a read's
         requests resume the brick loops in member order. Issued from
         the main thread they race the worker instead: a loop caught
         yielding before it parks re-queues behind the loops woken
         meanwhile, and the revived brick 4 could stay behind 5-7 for
         read after read. *)
      let read j =
        match
          Cluster.run_op ~coord:0 cl (fun c -> Coordinator.read_blocks c ~stripe:0 j ~len:1)
        with
        | Some (Ok bs) -> bs.(0)
        | Some (Error _) | None -> Alcotest.failf "mc read_block %d" j
      in
      for _ = 1 to 3 do
        Alcotest.(check bool) "degraded value" true (Bytes.equal (read 4) data.(4))
      done;
      Alcotest.(check (list int)) "suspected" [ 4 ] (Coordinator.suspects c);
      Alcotest.(check (float 0.)) "three re-targeted reads" 3.
        (counter cl "coord.retargets");
      Cluster.recover cl 4;
      Cluster.await_quiesce cl;
      (* Brick 4's reply is the fifth of eight, inside the quorum. *)
      let rec until_cleared k =
        ignore (read 0);
        if Coordinator.suspects c <> [] then
          if k = 0 then Alcotest.fail "suspicion never cleared"
          else until_cleared (k - 1)
      in
      until_cleared 200;
      Alcotest.(check bool) "direct value" true (Bytes.equal (read 4) data.(4));
      Alcotest.(check (float 0.)) "no further re-target" 3.
        (counter cl "coord.retargets"))

let test_mc_dead_drops_counted () =
  (* On mc a crashed brick's mailbox is closed: every message sent to
     it must be counted under net.drops.dead, as sim counts a delivery
     to a dead process, not vanish. *)
  let cl = Cluster.create ~backend:(Mc { domains = 1 }) ~m:2 ~n:4 ~block_size:bs
      ~retry_every:0.01 () in
  Fun.protect
    ~finally:(fun () ->
      if Cluster.try_quiesce ~timeout:30. cl then Cluster.shutdown cl
      else Alcotest.fail "mc cluster failed to quiesce")
    (fun () ->
      Cluster.crash cl 3;
      for stripe = 0 to 4 do
        match
          Cluster.run_op ~coord:0 cl (fun c ->
              Coordinator.write_stripe c ~stripe (stripe_data 'D' 2))
        with
        | Some (Ok ()) -> ()
        | Some (Error _) | None -> Alcotest.failf "mc write_stripe %d" stripe
      done;
      Alcotest.(check bool) "sends to the crashed brick counted" true
        (counter cl "net.drops.dead" > 0.))

let test_concurrent_writers_abort_or_serialize () =
  (* Two coordinators write the same stripe at the same instant: at
     most one wins per timestamp order; aborts are allowed but data
     must equal one of the two proposals afterwards. *)
  let cl = Cluster.create ~m:3 ~n:5 () in
  let d1 = stripe_data 'A' 3 and d2 = stripe_data 'Q' 3 in
  let r1 = ref None and r2 = ref None in
  Cluster.spawn ~coord:0 cl (fun c -> r1 := Some (Coordinator.write_stripe c ~stripe:0 d1));
  Cluster.spawn ~coord:1 cl (fun c -> r2 := Some (Coordinator.write_stripe c ~stripe:0 d2));
  Cluster.run cl;
  let ok = function Some (Ok ()) -> true | _ -> false in
  Alcotest.(check bool) "at least one completed or aborted cleanly" true
    (!r1 <> None && !r2 <> None);
  match read cl ~coord:2 ~stripe:0 () with
  | Some (Ok got) ->
      let is d = Array.for_all2 Bytes.equal got d in
      Alcotest.(check bool) "state is one of the writes" true (is d1 || is d2);
      (* If a write succeeded, the final state must be a successful
         write's value (the last one in timestamp order). *)
      if ok !r1 && not (ok !r2) then
        Alcotest.(check bool) "winner visible" true (is d1)
      else if ok !r2 && not (ok !r1) then
        Alcotest.(check bool) "winner visible" true (is d2)
  | _ -> Alcotest.fail "post-conflict read"

(* ------------------------------------------------------------------ *)
(* Lazy head verification (DESIGN 4e)                                  *)
(* ------------------------------------------------------------------ *)

(* A Write or Order above every logged timestamp ([Slog.top_ts]) is
   answered without hashing the log head. Its status and cur_ts must
   still be the paper's rule computed from the verified head,
   [Slog.max_ts]: on logs whose head is torn, damaged or a bot marker,
   and on a log that gc emptied after damage. A timestamp at or below
   [top_ts] must still be judged against the verified head. Raw
   requests go to the replica on brick 1 of a 2-of-3 deployment. *)
let test_lazy_head_rule () =
  let module M = Core.Message in
  let module Slog = Core.Slog in
  let tsv ?(pid = 9) time = Ts.make ~time ~pid in
  let block = Bytes.make bs 'w' in
  let heads =
    [
      ( "torn head",
        fun l ->
          Slog.add l (tsv 2) (Some block);
          Slog.add l (tsv 3) (Some (Bytes.make bs 'x'));
          ignore (Slog.tear_last l) );
      ( "damaged head",
        fun l ->
          Slog.add l (tsv 2) (Some block);
          Slog.add l (tsv 3) (Some (Bytes.make bs 'x'));
          ignore (Slog.damage_newest l) );
      ( "bot-marker head",
        fun l ->
          Slog.add l (tsv 2) (Some block);
          Slog.add l (tsv 3) None );
      ( "emptied log",
        fun l ->
          Slog.add l (tsv 2) (Some block);
          Slog.add l (tsv 3) (Some block);
          ignore (Slog.gc l ~before:(tsv 3));
          ignore (Slog.damage_newest l);
          ignore (Slog.gc l ~before:(tsv 4));
          Alcotest.(check int) "log emptied" 0 (Slog.size l);
          Alcotest.(check bool) "top_ts of an empty log" true
            (Ts.equal (Slog.top_ts l) Ts.low) );
    ]
  in
  (* The paper's rule (lines 45-48, 57-60) from the verified head. *)
  let expected l ~ord = function
    | M.Order { ts; _ } ->
        let v = Slog.max_ts l in
        let fresh = Ts.( > ) ts v && Ts.( >= ) ts ord in
        (fresh || Ts.equal ts ord, Ts.max (if fresh then ts else ord) v)
    | M.Write { ts; block; _ } ->
        let v = Slog.max_ts l in
        let logged = Slog.find l ts in
        let already = logged = Some (Some block) in
        let stored =
          (not already) && logged = None && Ts.( > ) ts v && Ts.( >= ) ts ord
        in
        (already || stored, Ts.max ord (if stored then ts else v))
    | _ -> assert false
  in
  (* Probes run in order on a fresh deployment, after the head is set
     up; an Order at 9 first makes the barrier refuse what follows. *)
  let probes =
    [
      ("write above top", [ M.Write { stripe = 0; block; ts = tsv 6 } ]);
      ("order above top", [ M.Order { stripe = 0; ts = tsv 6 } ]);
      ( "write above top, refused by the barrier",
        [ M.Order { stripe = 0; ts = tsv 9 }; M.Write { stripe = 0; block; ts = tsv 6 } ] );
      ( "order above top, refused by the barrier",
        [ M.Order { stripe = 0; ts = tsv 9 }; M.Order { stripe = 0; ts = tsv 6 } ] );
      ( "write below top",
        [ M.Write { stripe = 0; block; ts = tsv ~pid:10 2 } ] );
      ("order below top", [ M.Order { stripe = 0; ts = tsv ~pid:10 2 } ]);
      ("write at top", [ M.Write { stripe = 0; block; ts = tsv 3 } ]);
    ]
  in
  let at_or_below_accepted = ref 0 in
  List.iter
    (fun (head, prepare) ->
      List.iter
        (fun (probe, msgs) ->
          let cl = Cluster.create ~gc_enabled:false ~block_size:bs ~m:2 ~n:3 () in
          let call msg =
            match
              Cluster.run_op cl (fun c ->
                  Quorum.Rpc.call cl.Cluster.rpc ~coord:(Coordinator.brick c)
                    ~members:[ 1 ] ~quorum:1 (fun _ -> msg))
            with
            | Some [ (_, (M.Order_r { status; cur_ts } | M.Write_r { status; cur_ts })) ]
              ->
                (status, cur_ts)
            | _ -> Alcotest.failf "%s, %s: no reply" head probe
          in
          (* The first request creates the stripe's log on brick 1. *)
          ignore (call (M.Order { stripe = 0; ts = tsv 1 }));
          let r = cl.Cluster.replicas.(1) in
          let l = Option.get (Core.Replica.log r ~stripe:0) in
          prepare l;
          List.iter
            (fun msg ->
              let want =
                expected l ~ord:(Core.Replica.ord_ts r ~stripe:0) msg
              in
              let top = Slog.top_ts l in
              let got = call msg in
              let name = Printf.sprintf "%s, %s" head probe in
              Alcotest.(check bool) (name ^ ": status") (fst want) (fst got);
              Alcotest.(check string) (name ^ ": cur_ts")
                (Ts.to_string (snd want)) (Ts.to_string (snd got));
              match msg with
              | M.Write { ts; _ } | M.Order { ts; _ }
                when fst got && Ts.( <= ) ts top ->
                  incr at_or_below_accepted
              | _ -> ())
            msgs)
        probes)
    heads;
  (* At or below a torn or damaged head (time 3) the verified head
     (time 2) decides: the Write and the Order at time 2, pid 10 and
     the Write at time 3 (which repairs the head) are accepted there,
     and nowhere else. *)
  Alcotest.(check int) "accepted at or below a torn or damaged head" 6
    !at_or_below_accepted

let test_gc_bounds_logs () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  for round = 0 to 19 do
    check_ok "write" (write cl ~stripe:0 (stripe_data (Char.chr (65 + round)) 3))
  done;
  Array.iter
    (fun r ->
      match Core.Replica.log r ~stripe:0 with
      | Some l ->
          Alcotest.(check bool)
            (Printf.sprintf "log bounded, size %d" (Core.Slog.size l))
            true
            (Core.Slog.size l <= 2)
      | None -> Alcotest.fail "no log")
    cl.Cluster.replicas;
  Alcotest.(check bool) "gc removed entries" true
    (Array.exists (fun r -> Core.Replica.gc_removed r > 0) cl.Cluster.replicas)

let test_gc_disabled_grows () =
  let cl = Cluster.create ~m:3 ~n:5 ~gc_enabled:false () in
  for round = 0 to 9 do
    check_ok "write" (write cl ~stripe:0 (stripe_data (Char.chr (65 + round)) 3))
  done;
  match Core.Replica.log cl.Cluster.replicas.(0) ~stripe:0 with
  | Some l -> Alcotest.(check int) "log keeps all versions" 11 (Core.Slog.size l)
  | None -> Alcotest.fail "no log"

let test_optimized_modify_equivalent () =
  (* Section 5.2 bandwidth optimization, for every range shorter than
     the stripe: the same stripe and parity, less traffic. *)
  let m = 5 and n = 8 in
  let run_with opt j0 len =
    let cl = Cluster.create ~m ~n ~optimized_modify:opt () in
    let data = stripe_data 'A' m in
    check_ok "seed" (write cl ~stripe:0 data);
    let before = Cluster.snapshot cl in
    let news = Array.init len (fun i -> Bytes.make bs (Char.chr (112 + i))) in
    check_ok "write_blocks"
      (Cluster.run_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 j0 news));
    let after = Cluster.snapshot cl in
    Array.iteri (fun i b -> data.(j0 + i) <- b) news;
    check_stripe "readback" data (read cl ~coord:5 ~stripe:0 ());
    let cfg = cl.Cluster.cfg in
    let encoded = Erasure.Codec.encode (Core.Config.codec cfg ~stripe:0) data in
    Array.iteri
      (fun pos addr ->
        if pos >= m then
          match Core.Replica.log cl.Cluster.replicas.(addr) ~stripe:0 with
          | Some l ->
              Alcotest.(check bool) "parity matches a fresh encode" true
                (Bytes.equal (snd (Core.Slog.max_block l)) encoded.(pos))
          | None -> Alcotest.fail "no parity log")
      (Core.Config.members_array cfg ~stripe:0);
    (Metrics.Snapshot.get after "net.bytes" -. Metrics.Snapshot.get before "net.bytes")
    /. float_of_int bs
  in
  for j0 = 0 to m - 1 do
    for len = 1 to min (m - j0) (m - 1) do
      let naive = run_with false j0 len and optimized = run_with true j0 len in
      let what = Printf.sprintf "j0=%d len=%d" j0 len in
      (* Order&Read returns the range's len blocks. Naive Modify then
         ships old+new of the range to all n; optimized ships each
         in-range member its new block and each of the n - m parities
         one folded delta. *)
      Alcotest.(check (float 0.)) ("naive modify traffic " ^ what)
        (float_of_int (len + (2 * len * n))) naive;
      Alcotest.(check (float 0.)) ("optimized modify traffic " ^ what)
        (float_of_int ((2 * len) + n - m)) optimized
    done
  done

let test_read_block_after_partial_write () =
  (* Table 1 read-block/S path: a partial stripe write forces the
     block read through recovery. *)
  let cl = Cluster.create ~m:3 ~n:5 () in
  let old_data = stripe_data 'A' 3 in
  check_ok "seed" (write cl ~stripe:0 old_data);
  inject_partial_write cl ~stripe:0 ~doomed:4 ~reach:[ 1 ] (stripe_data 'X' 3);
  match Cluster.run_op ~coord:0 cl (fun c -> Coordinator.read_blocks c ~stripe:0 0 ~len:1) with
  | Some (Ok [| b |]) ->
      Alcotest.(check bool) "rolled-back block value" true (Bytes.equal b old_data.(0))
  | _ -> Alcotest.fail "read_block after partial write"

let test_recover_idempotent () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  let data = stripe_data 'A' 3 in
  check_ok "write" (write cl ~stripe:0 data);
  check_stripe "recover returns current" data
    (Cluster.run_op cl (fun c -> Coordinator.recover c ~stripe:0));
  check_stripe "recover again" data
    (Cluster.run_op ~coord:2 cl (fun c ->
         Coordinator.with_retries c (fun () -> Coordinator.recover c ~stripe:0)));
  check_stripe "normal read still fine" data (read cl ~stripe:0 ())

let test_scrub_clean_stripe () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  let data = stripe_data 'A' 3 in
  check_ok "seed" (write cl ~stripe:0 data);
  (match
     Cluster.run_op ~coord:1 cl (fun c ->
         Coordinator.with_retries c (fun () -> Coordinator.scrub c ~stripe:0))
   with
  | Some (Ok []) -> ()
  | Some (Ok _) -> Alcotest.fail "clean stripe reported corruption"
  | _ -> Alcotest.fail "scrub failed");
  check_stripe "data intact after scrub" data (read cl ~coord:2 ~stripe:0 ())

let test_scrub_detects_and_repairs () =
  let cl = Cluster.create ~m:3 ~n:5 () in
  let data = stripe_data 'A' 3 in
  check_ok "seed" (write cl ~stripe:0 data);
  (* Corrupt brick 1's stored block: silent bit rot beneath the
     protocol ((n - m) / 2 = 1 corruption is identifiable for 3-of-5). *)
  (match Core.Replica.log cl.Cluster.replicas.(1) ~stripe:0 with
  | Some l -> Core.Slog.corrupt_newest l
  | None -> Alcotest.fail "no log");
  (* A fast read through corrupted targets would return bad data —
     this is exactly what scrub exists to catch. *)
  (match Cluster.run_op ~coord:0 cl (fun c -> Coordinator.scrub c ~stripe:0) with
  | Some (Ok positions) ->
      Alcotest.(check (list int)) "corrupted positions found" [ 1 ] positions
  | _ -> Alcotest.fail "scrub failed");
  (* After the repair every brick holds consistent blocks again. *)
  check_stripe "repaired" data (read cl ~coord:3 ~stripe:0 ());
  match
    Cluster.run_op ~coord:2 cl (fun c ->
        Coordinator.with_retries c (fun () -> Coordinator.scrub c ~stripe:0))
  with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "second scrub should be clean"

let test_scrub_repairs_up_to_bound () =
  (* (n - m) / 2 = 2 corrupted blocks of a 2-of-6 stripe are still
     identified and repaired (the Reed-Solomon error-correction
     bound). *)
  let cl = Cluster.create ~m:2 ~n:6 () in
  let data = stripe_data 'A' 2 in
  check_ok "seed" (write cl ~stripe:0 data);
  List.iter
    (fun b ->
      match Core.Replica.log cl.Cluster.replicas.(b) ~stripe:0 with
      | Some l -> Core.Slog.corrupt_newest l
      | None -> ())
    [ 0; 3 ];
  (match
     Cluster.run_op ~coord:1 cl (fun c ->
         Coordinator.with_retries c (fun () -> Coordinator.scrub c ~stripe:0))
   with
  | Some (Ok positions) ->
      Alcotest.(check (list int)) "two corruptions" [ 0; 3 ] positions
  | _ -> Alcotest.fail "scrub failed");
  check_stripe "fully repaired" data (read cl ~coord:4 ~stripe:0 ())

(* ------------------------------------------------------------------ *)
(* Model-based sequential state machine property                       *)
(* ------------------------------------------------------------------ *)

(* Apply a random sequence of operations (through rotating
   coordinators, with retries) and mirror every mutation in a plain
   in-memory model; afterwards every read path must agree with the
   model. This is the strongest functional test: it composes stripe,
   block and multi-block operations in arbitrary orders. *)
type model_op =
  | MWrite_stripe of int  (* stripe *)
  | MWrite_block of int * int  (* stripe, j *)
  | MWrite_blocks of int * int * int  (* stripe, j0, len *)
  | MRead_stripe of int
  | MRead_block of int * int

let model_op_gen ~stripes ~m =
  QCheck.Gen.(
    int_range 0 (stripes - 1) >>= fun stripe ->
    int_range 0 (m - 1) >>= fun j ->
    int_range 1 (m - j) >>= fun len ->
    oneofl
      [
        MWrite_stripe stripe;
        MWrite_block (stripe, j);
        MWrite_blocks (stripe, j, len);
        MRead_stripe stripe;
        MRead_block (stripe, j);
      ])

let run_model_sequence (m, n, ops) =
  let stripes = 3 in
  let cl = Cluster.create ~m ~n ~block_size:bs () in
  let model =
    Array.init stripes (fun _ -> Array.init m (fun _ -> Bytes.make bs '\000'))
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Bytes.make bs (Char.chr (33 + (!counter mod 94)))
  in
  let ok = ref true in
  List.iteri
    (fun i op ->
      if !ok then begin
        let coord = i mod n in
        let result =
          Cluster.run_op ~coord cl (fun c ->
              Coordinator.with_retries ~attempts:4 c (fun () ->
                  match op with
                  | MWrite_stripe stripe ->
                      let data = Array.init m (fun _ -> fresh ()) in
                      Result.map
                        (fun () ->
                          Array.blit data 0 model.(stripe) 0 m;
                          true)
                        (Coordinator.write_stripe c ~stripe data)
                  | MWrite_block (stripe, j) ->
                      let b = fresh () in
                      Result.map
                        (fun () ->
                          model.(stripe).(j) <- b;
                          true)
                        (Coordinator.write_blocks c ~stripe j [| b |])
                  | MWrite_blocks (stripe, j0, len) ->
                      let news = Array.init len (fun _ -> fresh ()) in
                      Result.map
                        (fun () ->
                          Array.blit news 0 model.(stripe) j0 len;
                          true)
                        (Coordinator.write_blocks c ~stripe j0 news)
                  | MRead_stripe stripe ->
                      Result.map
                        (fun data ->
                          Array.for_all2 Bytes.equal data model.(stripe))
                        (Coordinator.read_stripe c ~stripe)
                  | MRead_block (stripe, j) ->
                      Result.map
                        (fun bs -> Bytes.equal bs.(0) model.(stripe).(j))
                        (Coordinator.read_blocks c ~stripe j ~len:1)))
        in
        match result with
        | Some (Ok true) -> ()
        | Some (Ok false) -> ok := false  (* read disagreed with model *)
        | Some (Error _) -> ok := false  (* sequential ops must not abort *)
        | None -> ok := false
      end)
    ops;
  (* Final sweep: every stripe must match the model via a fresh
     coordinator. *)
  if !ok then
    for stripe = 0 to stripes - 1 do
      match
        Cluster.run_op ~coord:(stripe mod n) cl (fun c ->
            Coordinator.with_retries ~attempts:4 c (fun () ->
                Coordinator.read_stripe c ~stripe))
      with
      | Some (Ok data) ->
          if not (Array.for_all2 Bytes.equal data model.(stripe)) then
            ok := false
      | _ -> ok := false
    done;
  !ok

let model_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"random op sequences match model"
       (QCheck.make
          QCheck.Gen.(
            oneofl [ (2, 4); (3, 5); (5, 8) ] >>= fun (m, n) ->
            list_size (int_range 5 25) (model_op_gen ~stripes:3 ~m)
            >>= fun ops -> return (m, n, ops)))
       run_model_sequence)

let () =
  Alcotest.run "register"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "geometries" `Quick test_roundtrip_geometries;
          Alcotest.test_case "overwrite sequence" `Quick test_overwrite_sequence;
          Alcotest.test_case "unwritten reads zero" `Quick
            test_unwritten_stripe_reads_zero;
          Alcotest.test_case "independent stripes" `Quick test_independent_stripes;
          Alcotest.test_case "block ops" `Quick test_block_ops;
          Alcotest.test_case "block ops on parity code" `Quick
            test_block_ops_on_parity_code;
          Alcotest.test_case "multi-block ops" `Quick test_multi_block_ops;
          Alcotest.test_case "multi-block costs" `Quick test_multi_block_costs;
          Alcotest.test_case "multi-block degenerate cases" `Quick
            test_multi_block_degenerates_to_stripe;
          Alcotest.test_case "multi-block after single-block" `Quick
            test_multi_block_after_single_block_write;
          Alcotest.test_case "input validation" `Quick test_input_validation;
        ] );
      ( "costs",
        [
          Alcotest.test_case "fast paths match Table 1" `Quick test_costs_fast_paths;
          Alcotest.test_case "read slow path" `Quick test_read_slow_path_costs;
          Alcotest.test_case "optimized modify" `Quick test_optimized_modify_equivalent;
        ] );
      ( "partial-writes",
        [
          Alcotest.test_case "rolled back below m" `Quick test_partial_write_rolled_back;
          Alcotest.test_case "rolled forward at m" `Quick
            test_partial_write_rolled_forward;
          Alcotest.test_case "block read after partial write" `Quick
            test_read_block_after_partial_write;
          Alcotest.test_case "recover idempotent" `Quick test_recover_idempotent;
          Alcotest.test_case "slow write keeps one content per timestamp"
            `Quick test_slow_write_one_content_per_ts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash tolerance boundary" `Quick
            test_crash_tolerance_boundary;
          Alcotest.test_case "total crash and restart" `Quick
            test_total_crash_and_restart;
          Alcotest.test_case "message loss" `Quick test_message_loss_resilience;
          Alcotest.test_case "write_block with crashed target" `Quick
            test_write_block_with_crashed_target;
          Alcotest.test_case "concurrent writers" `Quick
            test_concurrent_writers_abort_or_serialize;
          Alcotest.test_case "idle coordinator writes on the fast path"
            `Quick test_idle_coordinator_writes_fast;
          Alcotest.test_case "mc counts sends to a crashed brick" `Quick
            test_mc_dead_drops_counted;
        ] );
      ( "order-elision",
        [
          Alcotest.test_case "repeat write-stripe elides order" `Quick
            test_repeat_write_stripe_elides;
          Alcotest.test_case "write-block keeps Order&Read" `Quick
            test_block_write_never_elides;
          Alcotest.test_case "1-of-3 never elides" `Quick
            test_replication_never_elides;
          Alcotest.test_case "crash empties the cache" `Quick
            test_crash_empties_cache;
          Alcotest.test_case "mc cache shared across domains" `Quick
            test_cache_shared_across_domains;
        ] );
      ( "degraded-reads",
        [
          Alcotest.test_case "read pass writes nothing" `Quick
            test_degraded_read_pass;
          Alcotest.test_case "write skips the fast path" `Quick
            test_degraded_write_skips_fast_path;
          Alcotest.test_case "recover clears suspicion" `Quick
            test_recover_clears_suspicion;
          Alcotest.test_case "mc crash/recover" `Quick test_degraded_read_mc;
        ] );
      ( "lazy head",
        [
          Alcotest.test_case "above top_ts, the paper's rule" `Quick
            test_lazy_head_rule;
        ] );
      ( "gc",
        [
          Alcotest.test_case "bounds logs" `Quick test_gc_bounds_logs;
          Alcotest.test_case "disabled grows" `Quick test_gc_disabled_grows;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "clean stripe" `Quick test_scrub_clean_stripe;
          Alcotest.test_case "detects and repairs" `Quick
            test_scrub_detects_and_repairs;
          Alcotest.test_case "repairs up to the RS bound" `Quick
            test_scrub_repairs_up_to_bound;
        ] );
      ("model", [ model_test ]);
    ]
