(* Ablation experiments X1-X4 (claims made in prose by the paper):

   X1 (section 3): operations abort only under concurrent conflicts on
      the same stripe or badly skewed clocks — sweep both knobs and
      measure abort rates.
   X2 (section 5.2): bandwidth optimization for block writes.
   X3 (section 1.2): the small-write penalty of erasure coding —
      2(n-m+1) disk I/Os per small write — against replication, across
      read/write mixes.
   X4 (section 5.1): garbage collection bounds the version logs.  *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module Gen = Workload.Gen
module Client = Workload.Client
open Util

(* ------------------------------------------------------------------ *)
(* X1: abort rate vs concurrency and clock skew                        *)
(* ------------------------------------------------------------------ *)

(* Closed-loop clients on one shared register cluster; conflict
   pressure is controlled by the number of stripes they spread over
   (fewer stripes = more write-write conflicts). *)
let abort_rate ~clients ~stripes ~skew ~seed =
  let cl = Cluster.create ~seed ~m:3 ~n:5 ~block_size:64 () in
  Array.iteri
    (fun pid c ->
      Core.Clock.set_skew (Coordinator.clock c)
        (skew *. (float_of_int pid -. 2.)))
    cl.Cluster.coordinators;
  let rng = Random.State.make [| seed; 77 |] in
  let ops_per_client = 40 in
  let total = ref 0 and aborts = ref 0 in
  for client = 0 to clients - 1 do
    let coord = client mod 5 in
    Cluster.spawn ~coord cl (fun c ->
        for i = 0 to ops_per_client - 1 do
          (* Random think time so operations interleave. *)
          Runtime.sleep cl.Cluster.runtime (Random.State.float rng 20.);
          let stripe = Random.State.int rng stripes in
          let outcome =
            if i mod 2 = 0 then
              Coordinator.write_stripe c ~stripe
                (stripe_data (Char.chr (65 + (i mod 26))) 3 64)
              |> Result.map (fun () -> ())
            else Coordinator.read_stripe c ~stripe |> Result.map (fun _ -> ())
          in
          incr total;
          match outcome with Ok () -> () | Error _ -> incr aborts
        done);
  done;
  Cluster.run ~horizon:100_000. cl;
  (float_of_int !aborts /. float_of_int (max 1 !total), !total)

let x1 () =
  section "X1 | Abort rate vs concurrency and clock skew (section 3)";
  Printf.printf "  3-of-5 register cluster, mixed 50/50 read-write clients.\n\n";
  Printf.printf "  %-44s %10s %8s\n" "configuration" "aborts" "ops";
  let show name rate total =
    Printf.printf "  %-44s %9.2f%% %8d\n" name (100. *. rate) total
  in
  let r, t = abort_rate ~clients:1 ~stripes:4 ~skew:0. ~seed:11 in
  show "1 client (no concurrency), no skew" r t;
  let r, t = abort_rate ~clients:4 ~stripes:64 ~skew:0. ~seed:12 in
  show "4 clients over 64 stripes (low conflict)" r t;
  let r, t = abort_rate ~clients:4 ~stripes:4 ~skew:0. ~seed:13 in
  show "4 clients over 4 stripes (high conflict)" r t;
  let r, t = abort_rate ~clients:4 ~stripes:1 ~skew:0. ~seed:14 in
  show "4 clients over 1 stripe (max conflict)" r t;
  let r, t = abort_rate ~clients:4 ~stripes:64 ~skew:50. ~seed:15 in
  show "4 clients, 64 stripes, clock skew 50 delta" r t;
  let r, t = abort_rate ~clients:4 ~stripes:64 ~skew:500. ~seed:16 in
  show "4 clients, 64 stripes, clock skew 500 delta" r t;
  Printf.printf
    "\n  paper: aborts require concurrent conflicting access to the same\n\
    \  stripe, or timestamps that do not form a logical clock; spreading\n\
    \  data over stripes and synchronizing clocks makes both rare.\n"

(* ------------------------------------------------------------------ *)
(* X2: bandwidth-optimized block writes                                *)
(* ------------------------------------------------------------------ *)

let x2 () =
  section "X2 | Block-write bandwidth optimization (section 5.2)";
  let measure ~optimized j0 news =
    let cl =
      Cluster.create ~m:5 ~n:8 ~block_size:1024 ~optimized_modify:optimized ()
    in
    let _ =
      measure_op cl (fun c ->
          Coordinator.write_stripe c ~stripe:0 (stripe_data 'A' 5 1024))
    in
    let _, costs =
      measure_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 j0 news)
    in
    costs
  in
  let one = [| Bytes.make 1024 'z' |] in
  let three = Array.init 3 (fun i -> Bytes.make 1024 (Char.chr (120 + i))) in
  Printf.printf "  5-of-8 code, one fast block-range write:\n\n";
  Printf.printf "  %-34s %7s %14s %14s\n" "variant" "blocks" "messages"
    "net b/w (B)";
  List.iter
    (fun (name, optimized, j0, news) ->
      let costs = measure ~optimized j0 news in
      Printf.printf "  %-34s %7d %14.0f %14.1f\n" name (Array.length news)
        costs.msgs costs.bytes)
    [
      ("naive Modify (old+new to all n)", false, 2, one);
      ("delta Modify (p_j + parity only)", true, 2, one);
      ("naive Modify (old+new to all n)", false, 1, three);
      ("delta Modify (range + parity only)", true, 1, three);
    ];
  Printf.printf
    "\n  paper: sending a single coded delta to each parity process (and\n\
    \  nothing to the other data processes) cuts write bandwidth from\n\
    \  (2n+1)B to (k+2)B while leaving the protocol unchanged; a range of\n\
    \  len blocks folds its deltas into one per parity process, cutting\n\
    \  (len+2*len*n)B to (2*len+k)B.\n"

(* ------------------------------------------------------------------ *)
(* X3: small-write penalty, EC vs replication, across workload mixes   *)
(* ------------------------------------------------------------------ *)

let x3 () =
  section "X3 | Small-write penalty and workload mixes (section 1.2)";
  let run_mix ~m ~n ~read_fraction =
    let v =
      Fab.Volume.create ~m ~n ~stripes:32 ~block_size:512 ~seed:7 ()
    in
    let gen =
      Gen.make
        { Gen.read_fraction; addr = Gen.Uniform; op_blocks = 1 }
        ~capacity_blocks:(Fab.Volume.capacity_blocks v)
        ~rng:(Random.State.make [| 42 |])
    in
    let stats = Client.fresh_stats () in
    let before = Metrics.Snapshot.take (Fab.Volume.cluster v).Cluster.metrics in
    Client.spawn v ~coord:0 ~gen ~ops:200 stats;
    Fab.Volume.run v;
    let after = Metrics.Snapshot.take (Fab.Volume.cluster v).Cluster.metrics in
    let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
    let ios = (d "disk.reads" +. d "disk.writes") /. 200. in
    let lat = Metrics.Hist.mean stats.Client.latency in
    (ios, lat)
  in
  Printf.printf
    "  200 single-block ops, disk I/Os per op and mean latency (delta):\n\n";
  Printf.printf "  %-26s %22s %22s\n" "" "E.C.(5,8)" "3-way replication";
  Printf.printf "  %-26s %10s %10s %10s %10s\n" "workload" "IO/op" "latency"
    "IO/op" "latency";
  List.iter
    (fun (name, rf) ->
      let ec_io, ec_lat = run_mix ~m:5 ~n:8 ~read_fraction:rf in
      let r_io, r_lat = run_mix ~m:1 ~n:3 ~read_fraction:rf in
      Printf.printf "  %-26s %10.2f %10.2f %10.2f %10.2f\n" name ec_io ec_lat
        r_io r_lat)
    [
      ("write-only", 0.0);
      ("mixed 50/50", 0.5);
      ("read-intensive (95% R)", 0.95);
      ("read-only", 1.0);
    ];
  Printf.printf
    "\n  paper: a small write costs ~2(n-m+1) = %d disk I/Os under E.C.(5,8)\n\
    \  (read old data + parities, write them back) versus %d block writes\n\
    \  under 3-way replication, so erasure coding targets read-intensive\n\
    \  workloads where its capacity advantage is free.\n"
    (2 * (8 - 5 + 1))
    3

(* ------------------------------------------------------------------ *)
(* X4: garbage collection bounds the logs                              *)
(* ------------------------------------------------------------------ *)

let x4 () =
  section "X4 | Garbage collection of version logs (section 5.1)";
  let log_stats ~gc ~crashes =
    let cl = Cluster.create ~seed:3 ~m:3 ~n:5 ~block_size:128 ~gc_enabled:gc () in
    let writes = 60 in
    for round = 0 to writes - 1 do
      (* Periodically crash and recover a brick so some writes land
         partially and logs see real version churn. *)
      if crashes && round mod 10 = 4 then Cluster.crash cl (round mod 5);
      if crashes && round mod 10 = 9 then Cluster.recover cl (round mod 5);
      ignore
        (Cluster.run_op ~coord:(round mod 5) cl (fun c ->
             Coordinator.with_retries c (fun () ->
                 Coordinator.write_stripe c ~stripe:0
                   (stripe_data (Char.chr (65 + (round mod 26))) 3 128))))
    done;
    let sizes =
      Array.to_list
        (Array.map
           (fun r ->
             match Core.Replica.log r ~stripe:0 with
             | Some l -> Core.Slog.size l
             | None -> 0)
           cl.Cluster.replicas)
    in
    let removed =
      Array.fold_left
        (fun acc r -> acc + Core.Replica.gc_removed r)
        0 cl.Cluster.replicas
    in
    (sizes, removed)
  in
  Printf.printf "  60 stripe writes to one register (3-of-5):\n\n";
  Printf.printf "  %-34s %-22s %10s\n" "configuration" "log sizes per brick"
    "gc'd entries";
  List.iter
    (fun (name, gc, crashes) ->
      let sizes, removed = log_stats ~gc ~crashes in
      Printf.printf "  %-34s %-22s %10d\n" name
        (String.concat "," (List.map string_of_int sizes))
        removed)
    [
      ("gc on, healthy run", true, false);
      ("gc on, periodic brick crashes", true, true);
      ("gc off, healthy run", false, false);
    ];
  Printf.printf
    "\n  paper: once a write is complete at a full quorum, all older\n\
    \  versions can be dropped; each log needs only the newest complete\n\
    \  version, so logs stay O(1) instead of growing with every write.\n"

(* ------------------------------------------------------------------ *)
(* X5: multi-block operations (footnote 2 extension)                   *)
(* ------------------------------------------------------------------ *)

let x5 () =
  section "X5 | Multi-block operations vs per-block loops (footnote 2)";
  let m = 5 and n = 8 and bs = 1024 in
  let range = 3 in
  let news = Array.init range (fun i -> Bytes.make bs (Char.chr (65 + i))) in
  let seed cl =
    ignore
      (measure_op cl (fun c ->
           Coordinator.write_stripe c ~stripe:0 (stripe_data 'S' m bs)))
  in
  (* per-block loop: range single-block writes *)
  let cl = Cluster.create ~m ~n ~block_size:bs () in
  seed cl;
  let before = Cluster.snapshot cl in
  let t0 = Runtime.now cl.Cluster.runtime in
  (match
     Cluster.run_op cl (fun c ->
         let rec go i =
           if i >= range then Ok ()
           else
             match
               Coordinator.with_retries c (fun () ->
                   Coordinator.write_blocks c ~stripe:0 (1 + i) [| news.(i) |])
             with
             | Ok () -> go (i + 1)
             | Error _ as e -> e
         in
         go 0)
   with
  | Some (Ok ()) -> ()
  | _ -> Printf.printf "  (per-block loop aborted)\n");
  let loop_lat = Runtime.now cl.Cluster.runtime -. t0 in
  let after = Cluster.snapshot cl in
  let d1 name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  (* one multi-block operation *)
  let cl = Cluster.create ~m ~n ~block_size:bs () in
  seed cl;
  let before = Cluster.snapshot cl in
  let t0 = Runtime.now cl.Cluster.runtime in
  (match
     Cluster.run_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 1 news)
   with
  | Some (Ok ()) -> ()
  | _ -> Printf.printf "  (multi write aborted)\n");
  let multi_lat = Runtime.now cl.Cluster.runtime -. t0 in
  let after = Cluster.snapshot cl in
  let d2 name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Printf.printf "  writing a %d-block range inside a 5-of-8 stripe:\n\n" range;
  Printf.printf "  %-28s %10s %10s %12s %12s\n" "method" "latency" "msgs"
    "disk I/Os" "net b/w (B)";
  Printf.printf "  %-28s %10.0f %10.0f %12.0f %12.0f\n"
    (Printf.sprintf "%d x write-block" range)
    loop_lat (d1 "net.msgs")
    (d1 "disk.reads" +. d1 "disk.writes")
    (d1 "net.bytes" /. float_of_int bs);
  Printf.printf "  %-28s %10.0f %10.0f %12.0f %12.0f\n" "1 x write-blocks"
    multi_lat (d2 "net.msgs")
    (d2 "disk.reads" +. d2 "disk.writes")
    (d2 "net.bytes" /. float_of_int bs);
  Printf.printf
    "\n  paper, footnote 2: \"the single-block methods can easily be\n\
    \  extended to access multiple blocks\" — doing so amortizes the two\n\
    \  protocol rounds and the per-parity read-modify-write over the range.\n"

(* ------------------------------------------------------------------ *)
(* X6: why quorums + versioning — the section 6 data-loss contrast     *)
(* ------------------------------------------------------------------ *)

let x6 () =
  section "X6 | Client-directed EC without quorums loses data (section 6)";
  Printf.printf
    "  The paper's example: a 2-of-3 code; a client crashes after updating\n\
    \  a single data device; a second device then fails terminally.\n\n";
  let bs = 64 in
  let tag b = Bytes.get b 0 in
  let old_stripe = [| Bytes.make bs 'o'; Bytes.make bs 'p' |] in
  let new_stripe = [| Bytes.make bs 'N'; Bytes.make bs 'M' |] in

  (* Naive client-directed baseline. *)
  let d = Baseline.Direct.create ~m:2 ~n:3 ~block_size:bs () in
  (match Baseline.Direct.run_op d (fun () -> Baseline.Direct.write d old_stripe) with
  | Some (Ok ()) -> () | _ -> failwith "seed");
  Baseline.Direct.write_first d new_stripe;
  Printf.printf "  [direct]  client crashed after updating device 0 only\n";
  Baseline.Direct.crash_device d 1;
  Printf.printf "  [direct]  device 1 failed terminally\n";
  (match Baseline.Direct.run_op d (fun () -> Baseline.Direct.read d) with
  | Some (Ok got) ->
      let o = tag old_stripe.(1) and n = tag new_stripe.(1) and g = tag got.(1) in
      Printf.printf
        "  [direct]  read decodes block 1 as %C — old was %C, new was %C: %s\n"
        g o n
        (if g <> o && g <> n then "GARBAGE (silent corruption)"
         else "(happened to survive)")
  | _ -> Printf.printf "  [direct]  read failed outright\n");

  (* Same run against the quorum protocol. *)
  let cl = Cluster.create ~m:2 ~n:3 ~block_size:bs () in
  (match
     Cluster.run_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 old_stripe)
   with
  | Some (Ok ()) -> () | _ -> failwith "seed2");
  (* Partial write reaching one device, then coordinator crash. *)
  Cluster.spawn ~coord:2 cl (fun c ->
      ignore (Coordinator.write_stripe c ~stripe:0 new_stripe));
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:1.5 (fun () ->
         Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:2 ~dst:1 true;
         Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:2 ~dst:2 true));
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:4.5 (fun () ->
         Brick.crash cl.Cluster.bricks.(2)));
  Cluster.run ~horizon:30. cl;
  Printf.printf "  [quorum]  coordinator crashed after its write reached brick 0 only\n";
  Brick.crash cl.Cluster.bricks.(1);
  Printf.printf "  [quorum]  ... then brick 1 failed\n";
  (* f = 0 for 2-of-3 (f = (n-m)/2 = 0): with a brick down no quorum
     forms, so the read stalls rather than lies. With m=2, n=4 (f=1)
     the same scenario returns the old stripe; show that instead. *)
  (match
     Cluster.run_op ~coord:0 ~horizon:200. cl (fun c ->
         Coordinator.read_stripe c ~stripe:0)
   with
  | None ->
      Printf.printf
        "  [quorum]  2-of-3 tolerates f = 0 crashes: the read STALLS (no quorum)\n\
        \  [quorum]  -> unavailability, never corruption\n"
  | Some (Ok got) ->
      Printf.printf "  [quorum]  read returned %C stripe safely\n" (tag got.(1))
  | Some (Error _) -> Printf.printf "  [quorum]  read aborted\n");
  let cl = Cluster.create ~m:2 ~n:4 ~block_size:bs () in
  (match
     Cluster.run_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 old_stripe)
   with
  | Some (Ok ()) -> () | _ -> failwith "seed3");
  Cluster.spawn ~coord:3 cl (fun c ->
      ignore (Coordinator.write_stripe c ~stripe:0 new_stripe));
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:1.5 (fun () ->
         for dst = 1 to 3 do
           Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:3 ~dst true
         done));
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:4.5 (fun () ->
         Brick.crash cl.Cluster.bricks.(3)));
  ignore
    (Runtime.timer cl.Cluster.runtime ~delay:5.0 (fun () ->
         for dst = 1 to 3 do
           Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:3 ~dst false
         done;
         Brick.recover cl.Cluster.bricks.(3)));
  Cluster.run ~horizon:30. cl;
  Brick.crash cl.Cluster.bricks.(1);
  (match
     Cluster.run_op ~coord:0 ~horizon:500. cl (fun c ->
         Coordinator.with_retries c (fun () -> Coordinator.read_stripe c ~stripe:0))
   with
  | Some (Ok got) ->
      Printf.printf
        "  [quorum]  with 2-of-4 (f = 1), the same double failure reads %C/%C:\n\
        \  [quorum]  -> the partial write was rolled back; data is intact\n"
        (tag got.(0)) (tag got.(1))
  | _ -> Printf.printf "  [quorum]  2-of-4 read did not complete (unexpected)\n");
  Printf.printf
    "\n  paper, section 6: the algorithm of [2] can lose data under a client\n\
    \  crash plus a device failure; ours tolerates the crash of all\n\
    \  processes and never returns a mixed-version stripe.\n"

let run () =
  x1 ();
  x2 ();
  x3 ();
  x4 ();
  x5 ();
  x6 ()
