(* Tests for the FAB volume layer: layouts and virtual-disk I/O. *)

module V = Fab.Volume
module Layout = Core.Layout
module Pool = Fab.Pool

let bs = 512

let pattern len seed =
  Bytes.init len (fun i -> Char.chr ((i + seed) mod 251))

(* --- layouts --- *)

let test_fixed_layout () =
  let f = Layout.make Layout.Fixed ~bricks:5 ~n:5 in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3; 4 |] (f 0);
  Alcotest.(check (array int)) "same everywhere" (f 0) (f 99)

let test_fixed_requires_equal () =
  Alcotest.check_raises "bricks <> n"
    (Invalid_argument "Core.Layout.make: Fixed needs bricks = n") (fun () ->
      ignore (Layout.make Layout.Fixed ~bricks:6 ~n:5 0))

let test_rotating_layout () =
  let f = Layout.make Layout.Rotating ~bricks:7 ~n:3 in
  Alcotest.(check (array int)) "stripe 0" [| 0; 1; 2 |] (f 0);
  Alcotest.(check (array int)) "stripe 5" [| 5; 6; 0 |] (f 5);
  (* Parity role (position n-1) visits every brick. *)
  let parity_bricks =
    List.sort_uniq compare (List.init 7 (fun s -> (f s).(2)))
  in
  Alcotest.(check int) "parity rotates over all bricks" 7
    (List.length parity_bricks)

let test_random_layout_properties () =
  let f = Layout.make (Layout.Random 42) ~bricks:20 ~n:8 in
  for stripe = 0 to 200 do
    let members = f stripe in
    Alcotest.(check int) "n members" 8 (Array.length members);
    let sorted = List.sort_uniq compare (Array.to_list members) in
    Alcotest.(check int) "distinct" 8 (List.length sorted);
    List.iter
      (fun a -> Alcotest.(check bool) "in range" true (a >= 0 && a < 20))
      sorted
  done;
  (* Deterministic. *)
  let g = Layout.make (Layout.Random 42) ~bricks:20 ~n:8 in
  Alcotest.(check (array int)) "deterministic" (f 77) (g 77);
  (* Different seeds give different placements somewhere. *)
  let h = Layout.make (Layout.Random 43) ~bricks:20 ~n:8 in
  Alcotest.(check bool) "seed matters" true
    (List.exists (fun s -> f s <> h s) (List.init 50 Fun.id))

let test_random_layout_balances () =
  let bricks = 12 in
  let f = Layout.make (Layout.Random 1) ~bricks ~n:4 in
  let load = Array.make bricks 0 in
  for stripe = 0 to 999 do
    Array.iter (fun a -> load.(a) <- load.(a) + 1) (f stripe)
  done;
  let expected = 1000 * 4 / bricks in
  Array.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "brick %d load %d ~ %d" i l expected)
        true
        (float_of_int (abs (l - expected)) < 0.25 *. float_of_int expected))
    load

(* Every policy accessor reads a row built when its range was added,
   so a lookup allocates nothing: on a fixed cluster, a rotating
   volume and a pool volume after another volume's range. *)
let test_lookups_allocate_nothing () =
  let module C = Core.Config in
  let cfg cl = cl.Core.Cluster.cfg in
  let pool = Pool.create ~bricks:6 ~block_size:bs () in
  let _first = Pool.create_volume pool ~name:"a" ~m:1 ~n:3 ~stripes:2 () in
  let pv = Pool.create_volume pool ~name:"b" ~m:2 ~n:4 ~stripes:8 () in
  let setups =
    [
      ("fixed cluster", cfg (Core.Cluster.create ~m:2 ~n:4 ()), 3);
      ( "rotating volume",
        cfg (V.cluster (V.create ~bricks:6 ~m:2 ~n:4 ~stripes:8 ())),
        5 );
      ("pool volume", cfg (Pool.cluster pool), V.stripe_offset pv + 3);
    ]
  in
  let keep x = ignore (Sys.opaque_identity x) in
  let accessors =
    [
      ("m", fun cfg stripe -> keep (C.m cfg ~stripe));
      ("quorum_size", fun cfg stripe -> keep (C.quorum_size cfg ~stripe));
      ("fault_bound", fun cfg stripe -> keep (C.fault_bound cfg ~stripe));
      ("codec", fun cfg stripe -> keep (C.codec cfg ~stripe));
      ("members", fun cfg stripe -> keep (C.members cfg ~stripe));
      ("members_array", fun cfg stripe -> keep (C.members_array cfg ~stripe));
      ("pos_of_addr", fun cfg stripe -> keep (C.pos_of_addr cfg ~stripe 2));
    ]
  in
  List.iter
    (fun (setup, cfg, stripe) ->
      List.iter
        (fun (name, f) ->
          let before = Gc.minor_words () in
          for _ = 1 to 10_000 do
            f cfg stripe
          done;
          let words = (Gc.minor_words () -. before) /. 10_000. in
          Alcotest.(check (float 0.)) (setup ^ ": " ^ name) 0. words)
        accessors)
    setups

(* --- volumes --- *)

let test_volume_addressing () =
  let v = V.create ~m:4 ~n:6 ~stripes:10 ~block_size:bs () in
  Alcotest.(check int) "capacity" 40 (V.capacity_blocks v);
  Alcotest.(check (pair int int)) "lba 0" (0, 0) (V.stripe_of_lba v 0);
  Alcotest.(check (pair int int)) "lba 5" (1, 1) (V.stripe_of_lba v 5);
  Alcotest.(check (pair int int)) "last" (9, 3) (V.stripe_of_lba v 39);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Fab.Volume: logical block address out of range")
    (fun () -> ignore (V.stripe_of_lba v 40))

let run_write v ~coord ~lba data =
  match V.run_op v (fun () -> V.write v ~coord ~lba data) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "volume write failed"

let run_read v ~coord ~lba ~count =
  match V.run_op v (fun () -> V.read v ~coord ~lba ~count) with
  | Some (Ok b) -> b
  | _ -> Alcotest.fail "volume read failed"

let test_volume_roundtrip_aligned () =
  let v = V.create ~m:4 ~n:6 ~stripes:8 ~block_size:bs () in
  let data = pattern (3 * 4 * bs) 7 in
  run_write v ~coord:0 ~lba:4 data;  (* stripes 1, 2, 3 fully *)
  let got = run_read v ~coord:3 ~lba:4 ~count:12 in
  Alcotest.(check bool) "aligned roundtrip" true (Bytes.equal got data)

let test_volume_roundtrip_unaligned () =
  let v = V.create ~m:4 ~n:6 ~stripes:8 ~block_size:bs () in
  let data = pattern (7 * bs) 13 in
  run_write v ~coord:1 ~lba:2 data;  (* spans stripes 0..2 partially *)
  let got = run_read v ~coord:5 ~lba:2 ~count:7 in
  Alcotest.(check bool) "unaligned roundtrip" true (Bytes.equal got data);
  (* Neighbouring blocks untouched (still zero). *)
  let left = run_read v ~coord:0 ~lba:0 ~count:2 in
  Alcotest.(check bool) "left untouched" true
    (Bytes.for_all (fun c -> c = '\000') left);
  let right = run_read v ~coord:0 ~lba:9 ~count:2 in
  Alcotest.(check bool) "right untouched" true
    (Bytes.for_all (fun c -> c = '\000') right)

let test_volume_single_block_ops () =
  let v = V.create ~m:3 ~n:5 ~stripes:4 ~block_size:bs () in
  for lba = 0 to 11 do
    let data = pattern bs lba in
    run_write v ~coord:(lba mod 5) ~lba data;
    let got = run_read v ~coord:((lba + 1) mod 5) ~lba ~count:1 in
    Alcotest.(check bool) (Printf.sprintf "lba %d" lba) true (Bytes.equal got data)
  done

let test_volume_over_more_bricks () =
  (* 12 bricks, 3-of-5 stripes with a rotating layout. *)
  let v = V.create ~m:3 ~n:5 ~bricks:12 ~stripes:24 ~block_size:bs () in
  let data = pattern (24 * 3 * bs) 3 in
  run_write v ~coord:0 ~lba:0 data;
  let got = run_read v ~coord:7 ~lba:0 ~count:(24 * 3) in
  Alcotest.(check bool) "full volume roundtrip over 12 bricks" true
    (Bytes.equal got data)

let test_volume_random_layout () =
  let v =
    V.create ~m:2 ~n:4 ~bricks:10 ~layout:(Layout.Random 5) ~stripes:16
      ~block_size:bs ()
  in
  let data = pattern (16 * 2 * bs) 9 in
  run_write v ~coord:2 ~lba:0 data;
  Alcotest.(check bool) "random layout roundtrip" true
    (Bytes.equal (run_read v ~coord:9 ~lba:0 ~count:32) data)

let test_volume_survives_brick_crash () =
  let v = V.create ~m:3 ~n:5 ~stripes:6 ~block_size:bs () in
  let data = pattern (6 * 3 * bs) 11 in
  run_write v ~coord:0 ~lba:0 data;
  Brick.crash (V.cluster v).Core.Cluster.bricks.(2);
  let got = run_read v ~coord:0 ~lba:0 ~count:18 in
  Alcotest.(check bool) "readable with a crashed brick" true (Bytes.equal got data);
  (* Writes still work too. *)
  let data2 = pattern (3 * bs) 17 in
  run_write v ~coord:1 ~lba:6 data2;
  Alcotest.(check bool) "write with crashed brick" true
    (Bytes.equal (run_read v ~coord:3 ~lba:6 ~count:3) data2)

let test_rebuild_brick () =
  let v = V.create ~m:3 ~n:5 ~stripes:6 ~block_size:bs () in
  let data = pattern (6 * 3 * bs) 23 in
  run_write v ~coord:0 ~lba:0 data;
  let victim = 4 in
  Brick.crash (V.cluster v).Core.Cluster.bricks.(victim);
  (* Overwrite part of the volume while the brick is down. *)
  let data2 = pattern (2 * 3 * bs) 29 in
  run_write v ~coord:0 ~lba:0 data2;
  Brick.recover (V.cluster v).Core.Cluster.bricks.(victim);
  (match V.run_op v (fun () -> V.rebuild_brick v ~brick:victim ~coord:0) with
  | Some (Ok touched) -> Alcotest.(check int) "touched all its stripes" 6 touched
  | _ -> Alcotest.fail "rebuild failed");
  (* After rebuild the recovered brick serves consistent reads. *)
  let got = V.run_op v (fun () -> V.read v ~coord:victim ~lba:0 ~count:6) in
  match got with
  | Some (Ok b) -> Alcotest.(check bool) "rebuilt data" true (Bytes.equal b data2)
  | _ -> Alcotest.fail "read via rebuilt brick"

let test_volume_validation () =
  let v = V.create ~m:3 ~n:5 ~stripes:2 ~block_size:bs () in
  Alcotest.check_raises "bad count"
    (Invalid_argument "Fab.Volume.read: count <= 0") (fun () ->
      ignore (V.run_op v (fun () -> V.read v ~coord:0 ~lba:0 ~count:0)));
  Alcotest.check_raises "read oob"
    (Invalid_argument "Fab.Volume.read: range out of bounds") (fun () ->
      ignore (V.run_op v (fun () -> V.read v ~coord:0 ~lba:5 ~count:2)));
  Alcotest.check_raises "write not block multiple"
    (Invalid_argument "Fab.Volume.write: length not a positive block multiple")
    (fun () ->
      ignore (V.run_op v (fun () -> V.write v ~coord:0 ~lba:0 (Bytes.create 100))));
  (* A view onto a cluster must have the cluster's geometry: at m = 3 or
     at 32-byte blocks the first write would fail, and at m = 1 LBA 1
     would map to stripe 1 block 0 instead of stripe 0 block 1. *)
  let cluster = Core.Cluster.create ~m:2 ~n:4 ~block_size:64 () in
  let view ~m ~block_size () =
    V.of_cluster ~cluster ~m ~stripes:4 ~block_size ~op_retries:1
      ~stripe_offset:0 ()
  in
  List.iter
    (fun (name, m, block_size, msg) ->
      Alcotest.check_raises name
        (Invalid_argument ("Fab.Volume.of_cluster: " ^ msg))
        (fun () -> ignore (view ~m ~block_size ())))
    [
      ("of_cluster m too large", 3, 64, "m differs from the cluster's");
      ("of_cluster m too small", 1, 64, "m differs from the cluster's");
      ( "of_cluster block size", 2, 32,
        "block_size differs from the cluster's" );
    ];
  Alcotest.(check (pair int int)) "of_cluster cluster geometry" (0, 1)
    (V.stripe_of_lba (view ~m:2 ~block_size:64 ()) 1)

let test_volume_scrub () =
  let v = V.create ~m:3 ~n:5 ~stripes:4 ~block_size:bs () in
  let data = pattern (4 * 3 * bs) 41 in
  run_write v ~coord:0 ~lba:0 data;
  (* Rot two blocks in different stripes. *)
  List.iter
    (fun (brick, stripe) ->
      match
        Core.Replica.log (V.cluster v).Core.Cluster.replicas.(brick) ~stripe
      with
      | Some l -> Core.Slog.corrupt_newest l
      | None -> Alcotest.fail "no log")
    [ (2, 1); (4, 3) ];
  (match V.run_op v (fun () -> V.scrub v ~coord:0) with
  | Some (Ok repaired) ->
      Alcotest.(check (list (pair int (list int))))
        "repaired stripes" [ (1, [ 2 ]); (3, [ 4 ]) ] repaired
  | _ -> Alcotest.fail "scrub failed");
  Alcotest.(check bool) "data intact" true
    (Bytes.equal (run_read v ~coord:1 ~lba:0 ~count:12) data);
  match V.run_op v (fun () -> V.scrub v ~coord:2) with
  | Some (Ok []) -> ()
  | _ -> Alcotest.fail "second scrub should be clean"

(* --- brick pools with multiple volumes --- *)

let test_pool_two_volumes_isolated () =
  let pool = Pool.create ~bricks:10 ~block_size:bs () in
  let db = Pool.create_volume pool ~name:"db" ~m:5 ~n:8 ~stripes:4 () in
  let logs = Pool.create_volume pool ~name:"logs" ~m:1 ~n:3 ~stripes:6 () in
  Alcotest.(check (list string)) "names" [ "db"; "logs" ] (Pool.volume_names pool);
  Alcotest.(check int) "db capacity" 20 (V.capacity_blocks db);
  Alcotest.(check int) "logs capacity" 6 (V.capacity_blocks logs);
  (* Write different data to both; they share bricks but not stripes. *)
  let db_data = pattern (20 * bs) 31 in
  let logs_data = pattern (6 * bs) 37 in
  (match Pool.run_op pool (fun () -> V.write db ~coord:0 ~lba:0 db_data) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "db write");
  (match Pool.run_op pool (fun () -> V.write logs ~coord:1 ~lba:0 logs_data) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "logs write");
  (match Pool.run_op pool (fun () -> V.read db ~coord:2 ~lba:0 ~count:20) with
  | Some (Ok got) -> Alcotest.(check bool) "db intact" true (Bytes.equal got db_data)
  | _ -> Alcotest.fail "db read");
  match Pool.run_op pool (fun () -> V.read logs ~coord:3 ~lba:0 ~count:6) with
  | Some (Ok got) ->
      Alcotest.(check bool) "logs intact" true (Bytes.equal got logs_data)
  | _ -> Alcotest.fail "logs read"

(* The pool runs on the multicore backend too: two volumes with
   different codes over one set of bricks, each written and read back
   through coordinators on two domains. *)
let test_pool_on_mc () =
  let pool =
    Pool.create ~backend:(Core.Cluster.Mc { domains = 2 }) ~bricks:5
      ~block_size:bs ()
  in
  Fun.protect
    ~finally:(fun () -> Core.Cluster.shutdown (Pool.cluster pool))
    (fun () ->
      let a = Pool.create_volume pool ~name:"a" ~m:2 ~n:4 ~stripes:3 () in
      let b = Pool.create_volume pool ~name:"b" ~m:1 ~n:3 ~stripes:2 () in
      List.iteri
        (fun i (v, blocks) ->
          let data = pattern (blocks * bs) (41 + i) in
          (match Pool.run_op pool (fun () -> V.write v ~coord:i ~lba:0 data) with
          | Some (Ok ()) -> ()
          | _ -> Alcotest.failf "volume %d write" i);
          match
            Pool.run_op pool (fun () ->
                V.read v ~coord:(i + 2) ~lba:0 ~count:blocks)
          with
          | Some (Ok got) ->
              Alcotest.(check bool)
                (Printf.sprintf "volume %d intact" i)
                true (Bytes.equal got data)
          | _ -> Alcotest.failf "volume %d read" i)
        [ (a, 6); (b, 2) ])

let test_pool_heterogeneous_fault_tolerance () =
  (* Volumes with different codes tolerate different failure counts on
     the same bricks. *)
  let pool = Pool.create ~bricks:8 ~block_size:bs () in
  let tough = Pool.create_volume pool ~name:"tough" ~m:2 ~n:8 ~stripes:2 () in
  let fragile = Pool.create_volume pool ~name:"fragile" ~m:5 ~n:7 ~stripes:2 () in
  let d1 = pattern (2 * bs) 5 and d2 = pattern (5 * bs) 9 in
  (match Pool.run_op pool (fun () -> V.write tough ~coord:0 ~lba:0 d1) with
  | Some (Ok ()) -> () | _ -> Alcotest.fail "tough write");
  (match Pool.run_op pool (fun () -> V.write fragile ~coord:0 ~lba:0 d2) with
  | Some (Ok ()) -> () | _ -> Alcotest.fail "fragile write");
  (* tough (2-of-8) tolerates 3 crashes; fragile (5-of-7) only 1. *)
  let bricks = (Pool.cluster pool).Core.Cluster.bricks in
  Brick.crash bricks.(0);
  Brick.crash bricks.(1);
  (match Pool.run_op pool (fun () -> V.read tough ~coord:4 ~lba:0 ~count:2) with
  | Some (Ok got) -> Alcotest.(check bool) "tough survives 2 crashes" true (Bytes.equal got d1)
  | _ -> Alcotest.fail "tough read");
  (match
     Pool.run_op ~horizon:300. pool (fun () ->
         V.read fragile ~coord:4 ~lba:0 ~count:5)
   with
  | Some _ -> Alcotest.fail "fragile must stall at 2 crashes (f = 1)"
  | None -> ());
  Brick.recover bricks.(0);
  match Pool.run_op pool (fun () -> V.read fragile ~coord:4 ~lba:0 ~count:5) with
  | Some (Ok got) ->
      Alcotest.(check bool) "fragile back with 1 crash" true (Bytes.equal got d2)
  | _ -> Alcotest.fail "fragile read after recovery"

let test_pool_volume_management () =
  let pool = Pool.create ~bricks:5 ~block_size:bs () in
  let _a = Pool.create_volume pool ~name:"a" ~m:3 ~n:5 ~stripes:2 () in
  Alcotest.(check bool) "find" true (Pool.find_volume pool "a" <> None);
  Alcotest.(check bool) "missing" true (Pool.find_volume pool "zz" = None);
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Fab.Pool.create_volume: volume \"a\" already exists")
    (fun () -> ignore (Pool.create_volume pool ~name:"a" ~m:1 ~n:3 ~stripes:1 ()));
  Alcotest.check_raises "n too large"
    (Invalid_argument "Fab.Pool.create_volume: n exceeds pool brick count")
    (fun () -> ignore (Pool.create_volume pool ~name:"big" ~m:5 ~n:8 ~stripes:1 ()));
  Alcotest.(check bool) "delete" true (Pool.delete_volume pool "a");
  Alcotest.(check bool) "delete again" false (Pool.delete_volume pool "a");
  Alcotest.(check (list string)) "empty" [] (Pool.volume_names pool);
  (* Stripe ids are never reused: a new volume works fine. *)
  let b = Pool.create_volume pool ~name:"b" ~m:2 ~n:4 ~stripes:2 () in
  let data = pattern (2 * bs) 3 in
  (match Pool.run_op pool (fun () -> V.write b ~coord:0 ~lba:0 (Bytes.sub data 0 (2*bs))) with
  | Some (Ok ()) -> () | _ -> Alcotest.fail "write after delete");
  match Pool.run_op pool (fun () -> V.read b ~coord:1 ~lba:0 ~count:2) with
  | Some (Ok got) -> Alcotest.(check bool) "readback" true (Bytes.equal got (Bytes.sub data 0 (2*bs)))
  | _ -> Alcotest.fail "read after delete"

(* Deleting a volume forgets its name only: a write in flight on it,
   whatever its phase at the delete, still completes. *)
let test_pool_delete_in_flight () =
  List.iter
    (fun at ->
      let pool = Pool.create ~bricks:5 ~block_size:bs () in
      let v = Pool.create_volume pool ~name:"v" ~m:2 ~n:4 ~stripes:2 () in
      let rt = (Pool.cluster pool).Core.Cluster.runtime in
      let result = ref None in
      Runtime.spawn rt (fun () ->
          result := Some (V.write v ~coord:0 ~lba:0 (pattern (2 * bs) 5)));
      ignore
        (Runtime.timer rt ~delay:at (fun () ->
             ignore (Pool.delete_volume pool "v")));
      Core.Cluster.run (Pool.cluster pool);
      match !result with
      | Some (Ok ()) -> ()
      | _ -> Alcotest.failf "write with a delete at t = %g did not finish" at)
    [ 0.001; 0.5; 1.; 2.; 3. ]

let () =
  Alcotest.run "fab"
    [
      ( "layout",
        [
          Alcotest.test_case "fixed" `Quick test_fixed_layout;
          Alcotest.test_case "fixed requires bricks = n" `Quick
            test_fixed_requires_equal;
          Alcotest.test_case "rotating" `Quick test_rotating_layout;
          Alcotest.test_case "random properties" `Quick test_random_layout_properties;
          Alcotest.test_case "random balances load" `Quick test_random_layout_balances;
          Alcotest.test_case "lookups allocate nothing" `Quick
            test_lookups_allocate_nothing;
        ] );
      ( "volume",
        [
          Alcotest.test_case "addressing" `Quick test_volume_addressing;
          Alcotest.test_case "aligned roundtrip" `Quick test_volume_roundtrip_aligned;
          Alcotest.test_case "unaligned roundtrip" `Quick
            test_volume_roundtrip_unaligned;
          Alcotest.test_case "single blocks" `Quick test_volume_single_block_ops;
          Alcotest.test_case "more bricks than n" `Quick test_volume_over_more_bricks;
          Alcotest.test_case "random layout" `Quick test_volume_random_layout;
          Alcotest.test_case "survives brick crash" `Quick
            test_volume_survives_brick_crash;
          Alcotest.test_case "rebuild brick" `Quick test_rebuild_brick;
          Alcotest.test_case "scrub repairs bit rot" `Quick test_volume_scrub;
          Alcotest.test_case "validation" `Quick test_volume_validation;
        ] );
      ( "pool",
        [
          Alcotest.test_case "two volumes isolated" `Quick
            test_pool_two_volumes_isolated;
          Alcotest.test_case "heterogeneous fault tolerance" `Quick
            test_pool_heterogeneous_fault_tolerance;
          Alcotest.test_case "volume management" `Quick
            test_pool_volume_management;
          Alcotest.test_case "two volumes on mc" `Quick test_pool_on_mc;
          Alcotest.test_case "delete with a write in flight" `Quick
            test_pool_delete_in_flight;
        ] );
    ]
