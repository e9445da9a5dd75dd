(* Chaos subsystem tests.

   - Plan files round-trip through print/parse, and parse errors are
     reported with line context.
   - Quorum loss fails fast: with more than n - q bricks down every
     operation returns `Unavailable within the configured deadline, the
     same operation succeeds after recovery, and no crash hooks
     accumulate across the outage.
   - Scrub under fire: bit rot injected while full-stripe writes are in
     flight; Volume.scrub repairs every corrupted block and the final
     history is strictly linearizable.
   - The harness is deterministic: same (plan, seed, knobs) produces a
     byte-identical event trace, also under seeded random loss and
     delay, and the deployment seed reaches the fault model.
   - The deliberately broken --chaos-unsafe-skip-order variant is
     caught by the harness and ddmin-shrinks to a small reproducer that
     still fails unsafe and passes safe. *)

module Cluster = Core.Cluster
module Faultnet = Simnet.Faultnet
module Coordinator = Core.Coordinator
module Plan = Chaos.Plan
module Harness = Chaos.Harness
module H = Linearize.History
module Check = Linearize.Check

let bs = 64

let value_block s =
  let b = Bytes.make bs '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) bs);
  b

let block_value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

(* --- plan files --- *)

let test_plan_roundtrip () =
  List.iter
    (fun (name, plan) ->
      match Plan.of_string (Plan.to_string plan) with
      | Ok plan' ->
          Alcotest.(check string)
            (Printf.sprintf "%s round-trips" name)
            (Plan.to_string plan) (Plan.to_string plan')
      | Error e -> Alcotest.failf "%s failed to re-parse: %s" name e)
    Plan.builtins

let test_plan_parse () =
  let src =
    "# commissioning test\n\
     name demo\n\
     horizon 100\n\n\
     at 10 crash 1\n\
     at 20 partition 0,1|2,3,4\n\
     at 30 heal\n\
     at 40 drop 0.25\n\
     at 50 skew 2 -7.5\n\
     at 60 torn-crash 0\n\
     at 70 bit-rot 3 1\n"
  in
  match Plan.of_string src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check string) "name" "demo" p.Plan.name;
      Alcotest.(check int) "events" 7 (List.length p.Plan.events);
      Alcotest.(check int) "max brick" 4 (Plan.max_brick p)

let test_plan_parse_errors () =
  let bad l =
    match Plan.of_string l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" l
  in
  bad "at 10 crash 1\n";                  (* missing horizon *)
  bad "horizon 100\nat 10 frobnicate 1\n";(* unknown fault *)
  bad "horizon 100\nat nope crash 1\n";   (* bad time *)
  bad "horizon 100\nat 200 crash 1\n"     (* beyond horizon *)

(* NaN passes a [<= 0.] check. Past the entry points it becomes a
   timer deadline, which the timer queue refuses deep inside a run
   (on mc, inside a task). Each entry point rejects it up front. *)
let test_nan_rejected () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "NaN %s accepted" what
  in
  (match Plan.of_string "horizon 100\nat nan crash 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NaN event time parsed");
  (match Plan.of_string "horizon nan\nat 10 crash 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NaN horizon parsed");
  let plan = Plan.make ~name:"one" ~horizon:100. [] in
  rejects "plan event time" (fun () ->
      Plan.make ~name:"nan" ~horizon:100. [ { Plan.at = nan; fault = Heal } ]);
  rejects "random-plan horizon" (fun () ->
      Plan.random ~rng:(Random.State.make [| 1 |]) ~bricks:5 ~horizon:nan);
  rejects "deadline" (fun () -> Harness.run ~deadline:nan ~seed:1 plan);
  rejects "harness time scale" (fun () ->
      Harness.run
        ~backend:(Mc { domains = 1; time_scale = nan })
        ~seed:1 plan);
  let cl = Cluster.create ~seed:1 ~m:2 ~n:5 ~block_size:bs () in
  rejects "nemesis time scale" (fun () ->
      Chaos.Nemesis.install ~time_scale:nan plan cl)

(* --- quorum-loss liveness (fail fast, recover, no hook leaks) --- *)

let test_quorum_loss_fail_fast () =
  let deadline = 200. in
  let cl = Cluster.create ~seed:5 ~m:2 ~n:5 ~block_size:bs ~deadline () in
  let rt = cl.Cluster.runtime in
  let hooks () =
    Array.to_list (Array.map Brick.hook_count cl.Cluster.bricks)
  in
  let baseline = hooks () in
  let data tag = Array.init 2 (fun j -> value_block (Printf.sprintf "%s%d" tag j)) in
  (* q = 4, so two bricks down is one more than the system tolerates. *)
  Cluster.crash cl 3;
  Cluster.crash cl 4;
  (match
     Cluster.run_op ~coord:0 cl (fun c ->
         let t0 = Runtime.now rt in
         let r = Coordinator.write_stripe c ~stripe:0 (data "a") in
         (r, Runtime.now rt -. t0))
   with
  | Some (Error `Unavailable, elapsed) ->
      Alcotest.(check bool)
        (Printf.sprintf "failed fast (%.0f <= %.0f + slack)" elapsed deadline)
        true
        (elapsed <= (2. *. deadline) +. 50.)
  | Some (Ok (), _) -> Alcotest.fail "write succeeded without a quorum"
  | Some (Error `Aborted, _) -> Alcotest.fail "expected `Unavailable, got abort"
  | None -> Alcotest.fail "operation stuck (fiber never completed)");
  (* Reads fail fast too. *)
  (match Cluster.run_op ~coord:1 cl (fun c -> Coordinator.read_stripe c ~stripe:1) with
  | Some (Error `Unavailable) -> ()
  | Some _ -> Alcotest.fail "read should be unavailable"
  | None -> Alcotest.fail "read stuck");
  (* Recovery restores service for the very same operation. *)
  Cluster.recover cl 3;
  Cluster.recover cl 4;
  (match Cluster.run_op ~coord:0 cl (fun c -> Coordinator.write_stripe c ~stripe:0 (data "b")) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write after recovery failed");
  (match Cluster.run_op ~coord:2 cl (fun c -> Coordinator.read_stripe c ~stripe:0) with
  | Some (Ok got) ->
      Alcotest.(check string) "reads the recovered write" "b0"
        (block_value got.(0))
  | _ -> Alcotest.fail "read after recovery failed");
  (* Failed and retried operations must not accumulate crash hooks. *)
  Alcotest.(check (list int)) "hook counts balanced" baseline (hooks ())

(* --- scrub under fire --- *)

module V = Fab.Volume

let test_scrub_under_fire () =
  let m = 2 and stripes = 4 in
  let v = V.create ~seed:11 ~m ~n:5 ~stripes ~block_size:bs () in
  let cl = V.cluster v in
  let rt = cl.Cluster.runtime in
  let histories = Array.init (stripes * m) (fun _ -> H.create ()) in
  let uid = ref 0 in
  (* Stripe logs are created lazily by the first store, so rot that
     races the very first writes may find nothing — like the nemesis,
     treat that as a no-op unless the caller requires a target. *)
  let rot ?(required = false) brick stripe =
    match Core.Replica.log cl.Cluster.replicas.(brick) ~stripe with
    | Some l -> Core.Slog.corrupt_newest l
    | None -> if required then Alcotest.fail "no log to corrupt"
  in
  (* Full-stripe writers (no read-modify-write, so corruption cannot
     launder itself into a freshly written version) racing bit rot. *)
  let writer coord rounds =
    Runtime.spawn cl.Cluster.runtime (fun () ->
        for _ = 1 to rounds do
          Runtime.sleep cl.Cluster.runtime (10. +. float_of_int (coord * 3));
          incr uid;
          let stripe = !uid mod stripes in
          let values =
            List.init m (fun j -> Printf.sprintf "u%d.b%d" !uid j)
          in
          let now = Runtime.now rt in
          let ids =
            List.mapi
              (fun j v ->
                ( j,
                  H.invoke histories.((stripe * m) + j) ~client:coord
                    ~kind:H.Write ~written:v ~now () ))
              values
          in
          let data =
            Bytes.concat Bytes.empty (List.map value_block values)
          in
          let r = V.write v ~coord ~lba:(stripe * m) data in
          let now = Runtime.now rt in
          List.iter
            (fun (j, id) ->
              let h = histories.((stripe * m) + j) in
              match r with
              | Ok () -> H.complete_write h id ~now
              | Error _ -> H.abort h id ~now)
            ids
        done)
  in
  writer 0 8;
  writer 1 8;
  writer 2 8;
  (* Rot strikes while the writers run... *)
  List.iter
    (fun (delay, brick, stripe) ->
      ignore
        (Runtime.timer rt ~delay (fun () -> rot brick stripe)))
    [ (25., 1, 0); (45., 3, 2); (70., 0, 1); (95., 4, 3) ];
  V.run v;
  (* ...and twice more on the quiescent volume, where the corrupted
     entry is certainly the newest version and must be found. *)
  rot ~required:true 2 1;
  rot ~required:true 4 3;
  let repaired =
    match V.run_op v (fun () -> V.scrub v ~coord:0) with
    | Some (Ok r) -> r
    | _ -> Alcotest.fail "scrub failed"
  in
  Alcotest.(check bool) "scrub found the quiescent corruption" true
    (List.mem_assoc 1 repaired && List.mem_assoc 3 repaired);
  (match V.run_op v (fun () -> V.scrub v ~coord:1) with
  | Some (Ok []) -> ()
  | Some (Ok l) ->
      Alcotest.failf "second scrub still repairing %d stripes"
        (List.length l)
  | _ -> Alcotest.fail "second scrub failed");
  (* Every block now reads as some value a client actually wrote, and
     each per-block history is strictly linearizable. *)
  for lba = 0 to (stripes * m) - 1 do
    let stripe, j = V.stripe_of_lba v lba in
    let h = histories.((stripe * m) + j) in
    match V.run_op v (fun () -> V.read v ~coord:(lba mod 5) ~lba ~count:1) with
    | Some (Ok b) ->
        let now = Runtime.now rt in
        let id = H.invoke h ~client:5 ~kind:H.Read ~now () in
        H.complete_read h id ~value:(block_value b) ~now
    | _ -> Alcotest.failf "final read of lba %d failed" lba
  done;
  Array.iteri
    (fun idx h ->
      match Check.strict h with
      | Ok () -> ()
      | Error viol ->
          Alcotest.failf "block %d after scrub: %a" idx Check.pp_violation
            viol)
    histories

(* --- nemesis restore --- *)

let test_nemesis_restore () =
  (* Regression: the fault closures mutate the very record [install]
     returns, so [restore] sees the links and skew the plan left down
     and actually heals them — even when shrinking dropped the
     matching link-up / skew-reset events from the schedule. *)
  let cl =
    Cluster.create ~seed:3 ~m:2 ~n:4 ~block_size:bs ~deadline:100. ()
  in
  let plan =
    Plan.make ~name:"restore-regression" ~horizon:10.
      [
        { Plan.at = 1.; fault = Plan.Link_down (0, 2) };
        { Plan.at = 1.; fault = Plan.Link_down (0, 3) };
        { Plan.at = 2.; fault = Plan.Skew (0, 42.) };
      ]
  in
  let nem = Chaos.Nemesis.install plan cl in
  Cluster.run ~horizon:10. cl;
  let clk = Coordinator.clock cl.Cluster.coordinators.(0) in
  Alcotest.(check (float 0.)) "skew applied" 42. (Core.Clock.skew clk);
  let data tag = Array.init 2 (fun j -> value_block (Printf.sprintf "%s%d" tag j)) in
  (* Two of four request links dead: coordinator 0 cannot reach a
     quorum of 3 and must fail fast. *)
  (match
     Cluster.run_op ~coord:0 cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 (data "x"))
   with
  | Some (Error `Unavailable) -> ()
  | Some (Ok ()) -> Alcotest.fail "write reached a quorum through dead links"
  | Some (Error `Aborted) -> Alcotest.fail "expected `Unavailable, got abort"
  | None -> Alcotest.fail "write stuck");
  Chaos.Nemesis.restore nem;
  Alcotest.(check (float 0.)) "skew restored" 0. (Core.Clock.skew clk);
  (match
     Cluster.run_op ~coord:0 cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 (data "y"))
   with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write after restore failed");
  match
    Cluster.run_op ~coord:2 cl (fun c -> Coordinator.read_stripe c ~stripe:0)
  with
  | Some (Ok got) ->
      Alcotest.(check string) "reads the post-restore write" "y0"
        (block_value got.(0))
  | _ -> Alcotest.fail "read after restore failed"

(* --- plans on the multicore backend (DESIGN 4i) --- *)

let test_plan_slow_roundtrip () =
  let src = "name slowplan\nhorizon 100\nat 10 slow 2 1\nat 20 slow 0 0\n" in
  match Plan.of_string src with
  | Error e -> Alcotest.failf "slow plan failed to parse: %s" e
  | Ok p ->
      (match List.map (fun e -> e.Plan.fault) p.Plan.events with
      | [ Plan.Slow (2., 1.); Plan.Slow (0., 0.) ] -> ()
      | _ -> Alcotest.fail "slow events parsed to the wrong faults");
      (match Plan.of_string (Plan.to_string p) with
      | Ok p' ->
          Alcotest.(check string) "slow round-trips" (Plan.to_string p)
            (Plan.to_string p')
      | Error e -> Alcotest.failf "printed slow plan failed to re-parse: %s" e)

let test_plan_random_wellformed () =
  let rng = Random.State.make [| 42 |] in
  for i = 0 to 4 do
    let p = Plan.random ~rng ~bricks:5 ~horizon:600. in
    Alcotest.(check bool)
      (Printf.sprintf "random plan %d has events" i)
      true
      (List.length p.Plan.events > 0);
    Alcotest.(check bool)
      (Printf.sprintf "random plan %d stays on-deployment" i)
      true
      (Plan.max_brick p <= 4);
    match Plan.of_string (Plan.to_string p) with
    | Ok p' ->
        Alcotest.(check string)
          (Printf.sprintf "random plan %d round-trips" i)
          (Plan.to_string p) (Plan.to_string p')
    | Error e -> Alcotest.failf "random plan %d invalid: %s" i e
  done;
  (match Plan.random ~rng ~bricks:1 ~horizon:600. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bricks < 2 accepted");
  match Plan.random ~rng ~bricks:5 ~horizon:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "horizon <= 0 accepted"

(* A small mc deployment for the nemesis tests: fast deadline so
   fault-induced failures surface in milliseconds, not seconds. *)
let with_mc_cluster f =
  let cl =
    Cluster.create ~backend:(Mc { domains = 2 }) ~m:2 ~n:5 ~block_size:bs
      ~deadline:0.05 ~retry_every:0.01 ()
  in
  let fnet = Cluster.faultnet cl in
  Fun.protect
    ~finally:(fun () ->
      if Cluster.try_quiesce ~timeout:30. cl then Cluster.shutdown cl
      else Alcotest.fail "mc cluster failed to quiesce")
    (fun () -> f cl fnet)

let mc_write cl ~coord tag =
  Coordinator.write_blocks
    cl.Cluster.coordinators.(coord)
    ~stripe:0 0 [| value_block tag |]

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

let test_mc_rejects_sim_only_faults () =
  with_mc_cluster (fun cl _fnet ->
      let reject name fault =
        let plan =
          Plan.make ~name:"simonly" ~horizon:10. [ { Plan.at = 1.; fault } ]
        in
        match Chaos.Nemesis.install plan cl with
        | exception Invalid_argument msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s error names the variant" name)
              true
              (contains ~needle:name msg)
        | _ -> Alcotest.failf "%s accepted on mc" name
      in
      reject "torn-crash" (Plan.Torn_crash 1);
      reject "bit-rot" (Plan.Bit_rot (1, 0));
      reject "sector-error" (Plan.Sector_error (1, 0));
      (match Chaos.Nemesis.inject cl (Plan.Bit_rot (1, 0)) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "inject bit-rot accepted on mc");
      (* lenient: the sim-only event is skipped, the rest scheduled —
         and restore tears it all back down. *)
      let mixed =
        Plan.make ~name:"lenient" ~horizon:10.
          [
            { Plan.at = 1.; fault = Plan.Bit_rot (1, 0) };
            { Plan.at = 2.; fault = Plan.Drop 0.5 };
          ]
      in
      let nem = Chaos.Nemesis.install ~lenient:true mixed cl in
      Chaos.Nemesis.restore nem)

let test_mc_restore_cancels_pending () =
  (* Install a plan whose events are all far in the future, restore
     immediately: every timer is cancelled, nothing is ever applied,
     and the Faultnet counters prove no fault ever bit. *)
  with_mc_cluster (fun cl fnet ->
      let plan =
        Plan.make ~name:"pending" ~horizon:200.
          [
            { Plan.at = 100.; fault = Plan.Crash 1 };
            { Plan.at = 100.; fault = Plan.Drop 0.9 };
            { Plan.at = 100.; fault = Plan.Partition [ [ 0 ]; [ 1; 2; 3; 4 ] ] };
          ]
      in
      let nem = Chaos.Nemesis.install plan cl in
      Chaos.Nemesis.restore nem;
      Chaos.Nemesis.restore nem;
      (* idempotent *)
      Alcotest.(check int) "nothing applied" 0
        (List.length (Chaos.Nemesis.applied nem));
      let s = Faultnet.stats fnet in
      Alcotest.(check int) "no drops" 0 s.Faultnet.dropped;
      Alcotest.(check int) "no cuts" 0 s.Faultnet.cut;
      let snap = Faultnet.snapshot fnet in
      Alcotest.(check bool) "no partition" true (snap.Faultnet.groups = None);
      Alcotest.(check (float 0.)) "no drop rate" 0. snap.Faultnet.drop;
      match mc_write cl ~coord:0 "pending-ok" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed on a healthy deployment")

let test_mc_skew_restore () =
  (* Skew runs on mc: the plan's offset is scaled by [time_scale] into
     wall-clock seconds, moves the coordinator's timestamps, and
     restore puts back the skew the clock had before the plan. *)
  with_mc_cluster (fun cl _fnet ->
      let rt = cl.Cluster.runtime in
      let clk = Coordinator.clock cl.Cluster.coordinators.(0) in
      Core.Clock.set_skew clk 0.005;
      let plan =
        Plan.make ~name:"mc-skew" ~horizon:400.
          [ { Plan.at = 0.; fault = Plan.Skew (0, 42.) } ]
      in
      let nem = Chaos.Nemesis.install ~time_scale:0.001 plan cl in
      let rec wait_applied tries =
        if Chaos.Nemesis.applied nem = [] then
          if tries = 0 then Alcotest.fail "skew event never fired"
          else begin
            Runtime.sleep rt 0.01;
            wait_applied (tries - 1)
          end
      in
      wait_applied 500;
      Alcotest.(check (float 1e-12)) "skew applied, scaled" 0.042
        (Core.Clock.skew clk);
      let floor = int_of_float ((Runtime.now rt +. 0.042) *. 1e6) in
      (match Core.Clock.new_ts clk with
      | Core.Timestamp.Ts { time; _ } ->
          Alcotest.(check bool) "timestamps lead by the skew" true
            (time >= floor)
      | _ -> Alcotest.fail "expected a concrete timestamp");
      (match mc_write cl ~coord:0 "skewed" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed under skew");
      Chaos.Nemesis.restore nem;
      Alcotest.(check (float 0.)) "skew restored" 0.005 (Core.Clock.skew clk);
      (* Coordinator 1's clock trails the skewed write by ~42 ms: its
         first attempt may be refused, and the retry succeeds because
         the refusal's replies caught its clock up. *)
      let c1 = cl.Cluster.coordinators.(1) in
      match
        Coordinator.with_retries ~attempts:2 c1 (fun () ->
            mc_write cl ~coord:1 "after-restore")
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed after restore")

let test_mc_faults_bite_and_heal () =
  (* The PR 4 review bug, asserted on mc with the Faultnet counters: a
     scheduled partition must actually suppress messages (cut counter
     grows, quorum-cut writes fail), and restore must actually heal it
     (writes succeed again, configuration snapshot back to health). *)
  with_mc_cluster (fun cl fnet ->
      let rt = cl.Cluster.runtime in
      let plan =
        Plan.make ~name:"bite" ~horizon:400.
          [ { Plan.at = 0.; fault = Plan.Partition [ [ 0 ]; [ 1; 2; 3; 4 ] ] } ]
      in
      let nem = Chaos.Nemesis.install ~time_scale:0.001 plan cl in
      let rec wait_applied tries =
        if Chaos.Nemesis.applied nem = [] then
          if tries = 0 then Alcotest.fail "partition event never fired"
          else begin
            Runtime.sleep rt 0.01;
            wait_applied (tries - 1)
          end
      in
      wait_applied 500;
      let cut0 = (Faultnet.stats fnet).Faultnet.cut in
      (* Coordinator 0 is alone on its side: 1 < q = 4. *)
      (match mc_write cl ~coord:0 "partitioned" with
      | Error (`Unavailable | `Aborted) -> ()
      | Ok () -> Alcotest.fail "write reached a quorum across the partition");
      let cut1 = (Faultnet.stats fnet).Faultnet.cut in
      Alcotest.(check bool)
        (Printf.sprintf "partition suppressed messages (%d > %d)" cut1 cut0)
        true (cut1 > cut0);
      Chaos.Nemesis.restore nem;
      (match mc_write cl ~coord:0 "healed" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write failed after restore");
      let snap = Faultnet.snapshot fnet in
      Alcotest.(check bool) "partition gone" true
        (snap.Faultnet.groups = None);
      Alcotest.(check int) "applied exactly the partition" 1
        (List.length (Chaos.Nemesis.applied nem)))

let test_mc_harness_smoke () =
  (* One seed of the canned mc plan through the full chaos harness
     under real parallelism: crash with real mailbox teardown,
     recovery with the section 4 replay, partition, drop, slow — and
     the per-block histories must come back strictly linearizable with
     no stuck ops and no leaked crash hooks. *)
  let plan = Plan.builtin "mc-mixed" in
  let r =
    Harness.run
      ~backend:(Harness.Mc { domains = 2; time_scale = 0.001 })
      ~seed:1 plan
  in
  if Harness.failed r then
    Alcotest.failf "mc harness run failed: %a" Harness.pp_result r

(* --- harness determinism --- *)

let test_trace_determinism () =
  let plan = Plan.builtin "rolling-partition" in
  let r1 = Harness.run ~capture_trace:true ~seed:7 plan in
  let r2 = Harness.run ~capture_trace:true ~seed:7 plan in
  (match (r1.Harness.trace, r2.Harness.trace) with
  | Some t1, Some t2 ->
      Alcotest.(check bool) "trace nonempty" true (String.length t1 > 0);
      Alcotest.(check bool) "byte-identical traces" true (String.equal t1 t2)
  | _ -> Alcotest.fail "traces not captured");
  Alcotest.(check (list int)) "identical outcome counts"
    [ r1.Harness.ok; r1.Harness.aborted; r1.Harness.unavailable ]
    [ r2.Harness.ok; r2.Harness.aborted; r2.Harness.unavailable ];
  Alcotest.(check bool) "clean run" false (Harness.failed r1)

(* Random loss, added delay and a partition on sim, all drawn by the
   deployment's Faultnet: the same seed replays byte-for-byte (faults
   included), and the seed reaches the fault sampler. *)
let seeded_fault_run ~seed =
  let plan =
    Plan.make ~name:"seeded-faults" ~horizon:120.
      [
        { Plan.at = 0.; fault = Plan.Drop 0.2 };
        { Plan.at = 0.; fault = Plan.Slow (0.5, 2.) };
        { Plan.at = 30.; fault = Plan.Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
        { Plan.at = 60.; fault = Plan.Heal };
      ]
  in
  let cl = Cluster.create ~seed ~m:2 ~n:5 ~block_size:bs ~deadline:100. () in
  let buf = Buffer.create (1 lsl 16) in
  Obs.add_sink cl.Cluster.obs
    (Obs.Sink.make (fun ev ->
         Buffer.add_string buf (Obs.to_json ev);
         Buffer.add_char buf '\n'));
  let nem = Chaos.Nemesis.install plan cl in
  for coord = 0 to 2 do
    Cluster.spawn ~coord cl (fun c ->
        for k = 1 to 8 do
          Runtime.sleep cl.Cluster.runtime 5.;
          let stripe = (coord + k) mod 3 in
          if k mod 2 = 0 then
            ignore (Coordinator.read_stripe c ~stripe)
          else
            ignore
              (Coordinator.write_stripe c ~stripe
                 (Array.init 2 (fun j ->
                      value_block (Printf.sprintf "c%dk%dj%d" coord k j))))
        done)
  done;
  Cluster.run ~horizon:plan.Plan.horizon cl;
  Chaos.Nemesis.restore nem;
  Cluster.run cl;
  (Buffer.contents buf, Faultnet.stats (Cluster.faultnet cl))

let test_seeded_faults_determinism () =
  let t1, s1 = seeded_fault_run ~seed:21 in
  let t2, s2 = seeded_fault_run ~seed:21 in
  Alcotest.(check bool) "faults bit" true
    (s1.Faultnet.dropped > 0 && s1.Faultnet.cut > 0
    && s1.Faultnet.delayed > 0);
  Alcotest.(check bool) "byte-identical traces" true (String.equal t1 t2);
  Alcotest.(check bool) "identical fault stats" true (s1 = s2);
  let _, s3 = seeded_fault_run ~seed:22 in
  Alcotest.(check bool) "another seed, other fault draws" true (s1 <> s3)

(* --- bundled plans stay clean; the unsafe variant is caught --- *)

let test_bundled_plans_clean () =
  List.iter
    (fun (name, plan) ->
      for seed = 1 to 3 do
        let r = Harness.run ~seed plan in
        if Harness.failed r then
          Alcotest.failf "plan %s seed %d: %a" name seed Harness.pp_result r
      done)
    Plan.builtins

let test_unsafe_variant_caught_and_shrunk () =
  let plan = Plan.builtin "crash-storm" in
  let failing_seed =
    let rec scan seed =
      if seed > 10 then
        Alcotest.fail "unsafe variant escaped 10 seeds of crash-storm"
      else if Harness.failed (Harness.run ~unsafe_skip_order:true ~seed plan)
      then seed
      else scan (seed + 1)
    in
    scan 1
  in
  let check p =
    Harness.failed (Harness.run ~unsafe_skip_order:true ~seed:failing_seed p)
  in
  let minimal = Chaos.Shrink.shrink ~check plan in
  Alcotest.(check bool) "shrunk plan still fails unsafe" true (check minimal);
  Alcotest.(check bool) "shrinking removed events" true
    (List.length minimal.Plan.events < List.length plan.Plan.events);
  Alcotest.(check bool) "horizon trimmed" true
    (minimal.Plan.horizon <= plan.Plan.horizon);
  (* The same reproducer is clean under the real protocol: the failure
     is the order-phase elision, not the fault schedule. *)
  let safe = Harness.run ~seed:failing_seed minimal in
  if Harness.failed safe then
    Alcotest.failf "safe protocol fails the shrunk plan: %a"
      Harness.pp_result safe

let () =
  Alcotest.run "chaos"
    [
      ( "plan",
        [
          Alcotest.test_case "builtin round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "slow round-trip" `Quick test_plan_slow_roundtrip;
          Alcotest.test_case "random plans well-formed" `Quick
            test_plan_random_wellformed;
          Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "quorum loss fails fast" `Quick
            test_quorum_loss_fail_fast;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "scrub under fire" `Slow test_scrub_under_fire;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "restore heals links and skew" `Quick
            test_nemesis_restore;
        ] );
      ( "mc",
        [
          Alcotest.test_case "sim-only faults rejected by name" `Quick
            test_mc_rejects_sim_only_faults;
          Alcotest.test_case "restore cancels pending timers" `Quick
            test_mc_restore_cancels_pending;
          Alcotest.test_case "restore heals skew" `Quick
            test_mc_skew_restore;
          Alcotest.test_case "faults bite and heal (faultnet counters)"
            `Quick test_mc_faults_bite_and_heal;
          Alcotest.test_case "harness smoke under real parallelism" `Slow
            test_mc_harness_smoke;
        ] );
      ( "harness",
        [
          Alcotest.test_case "trace determinism" `Slow test_trace_determinism;
          Alcotest.test_case "seeded faults replay" `Slow
            test_seeded_faults_determinism;
          Alcotest.test_case "bundled plans clean" `Slow
            test_bundled_plans_clean;
          Alcotest.test_case "unsafe variant caught and shrunk" `Slow
            test_unsafe_variant_caught_and_shrunk;
        ] );
    ]
