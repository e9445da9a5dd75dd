(* Tests for the simulated channel, the fault model its messages
   consult, and the fabric above them that counts and traces every
   message: a {!Quorum.Fabric} over the {!Simnet.Net} channel, as a sim
   deployment wires it. *)

module E = Dessim.Engine
module Net = Simnet.Net
module Faultnet = Simnet.Faultnet

let make_faulty ?(n = 4) ?(config = Net.default_config) ?obs () =
  let e = E.create () in
  let metrics = Metrics.Registry.create () in
  let faults = Faultnet.create ~seed:1 ~n in
  let net = Net.create ?obs e ~config ~n in
  let fabric =
    Quorum.Fabric.create ~now:(fun () -> E.now e) ~metrics ?obs ~faults ~n
      ~lost:(fun () -> Net.lost net)
      ~carry:(Net.carry net) ()
  in
  (e, metrics, fabric, faults)

let make ?n ?config () =
  let e, metrics, fabric, _ = make_faulty ?n ?config () in
  (e, metrics, fabric)

let register (f : _ Quorum.Rpc.transport) addr handler =
  f.xregister addr handler

let send ?(background = false) (f : _ Quorum.Rpc.transport) ~src ~dst
    ~bytes_on_wire msg =
  f.xsend ~background ~ctx:Obs.no_ctx ~info:None ~src ~dst ~bytes_on_wire msg

let test_delivery_and_delay () =
  let e, _, net = make () in
  let got = ref [] in
  register net 1 (fun ~src msg -> got := (src, msg, E.now e) :: !got);
  send net ~src:0 ~dst:1 ~bytes_on_wire:0 "hello";
  E.run e;
  match !got with
  | [ (0, "hello", t) ] -> Alcotest.(check (float 0.0)) "one delta" 1.0 t
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_no_handler_drops () =
  let e, _, net = make () in
  send net ~src:0 ~dst:2 ~bytes_on_wire:0 "void";
  E.run e  (* no exception, nothing delivered *)

let test_counters () =
  let e, metrics, net = make () in
  register net 1 (fun ~src:_ _ -> ());
  send net ~src:0 ~dst:1 ~bytes_on_wire:100 "a";
  send net ~src:0 ~dst:1 ~bytes_on_wire:28 "b";
  send ~background:true net ~src:0 ~dst:1 ~bytes_on_wire:7 "bg";
  E.run e;
  Alcotest.(check (float 0.0)) "msgs" 2. (Metrics.Registry.value metrics "net.msgs");
  Alcotest.(check (float 0.0)) "bytes" 128. (Metrics.Registry.value metrics "net.bytes");
  Alcotest.(check (float 0.0)) "bg msgs" 1. (Metrics.Registry.value metrics "net.msgs.bg");
  Alcotest.(check (float 0.0)) "bg bytes" 7. (Metrics.Registry.value metrics "net.bytes.bg")

let test_drop_probability () =
  let config = { Net.default_config with drop = 0.5 } in
  let e, _, net = make ~config () in
  let received = ref 0 in
  register net 1 (fun ~src:_ _ -> incr received);
  for _ = 1 to 1000 do
    send net ~src:0 ~dst:1 ~bytes_on_wire:0 ()
  done;
  E.run e;
  Alcotest.(check bool)
    (Printf.sprintf "fair loss: got %d of 1000" !received)
    true
    (!received > 350 && !received < 650)

let test_jitter_reorders () =
  let config = { Net.default_config with jitter = 5.0 } in
  let e, _, net = make ~config () in
  let order = ref [] in
  register net 1 (fun ~src:_ i -> order := i :: !order);
  for i = 1 to 50 do
    send net ~src:0 ~dst:1 ~bytes_on_wire:0 i
  done;
  E.run e;
  let arrived = List.rev !order in
  Alcotest.(check int) "all arrive" 50 (List.length arrived);
  Alcotest.(check bool) "reordered" true (arrived <> List.init 50 (fun i -> i + 1))

let test_partition_and_heal () =
  let e, _, net, faults = make_faulty () in
  let got = ref 0 in
  register net 2 (fun ~src:_ _ -> incr got);
  Faultnet.partition faults [ [ 0; 1 ]; [ 2; 3 ] ];
  send net ~src:0 ~dst:2 ~bytes_on_wire:0 ();  (* across: lost *)
  send net ~src:3 ~dst:2 ~bytes_on_wire:0 ();  (* within: delivered *)
  E.run e;
  Alcotest.(check int) "only intra-group" 1 !got;
  Faultnet.heal faults;
  send net ~src:0 ~dst:2 ~bytes_on_wire:0 ();
  E.run e;
  Alcotest.(check int) "after heal" 2 !got

let test_partition_implicit_group () =
  let e, _, net, faults = make_faulty ~n:5 () in
  let got = ref 0 in
  register net 4 (fun ~src:_ _ -> incr got);
  Faultnet.partition faults [ [ 0; 1 ] ];
  (* 2, 3, 4 form the implicit group. *)
  send net ~src:3 ~dst:4 ~bytes_on_wire:0 ();
  send net ~src:0 ~dst:4 ~bytes_on_wire:0 ();
  E.run e;
  Alcotest.(check int) "implicit group communicates" 1 !got

let test_partition_overlap_rejected () =
  let faults = Faultnet.create ~seed:1 ~n:4 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Simnet.Faultnet.partition: address in two groups")
    (fun () -> Faultnet.partition faults [ [ 0; 1 ]; [ 1; 2 ] ])

let test_link_down () =
  let e, _, net, faults = make_faulty () in
  let got = ref 0 in
  register net 1 (fun ~src:_ _ -> incr got);
  Faultnet.set_link_down faults ~src:0 ~dst:1 true;
  send net ~src:0 ~dst:1 ~bytes_on_wire:0 ();
  (* Reverse direction unaffected. *)
  register net 0 (fun ~src:_ _ -> incr got);
  send net ~src:1 ~dst:0 ~bytes_on_wire:0 ();
  E.run e;
  Alcotest.(check int) "directed" 1 !got;
  Faultnet.set_link_down faults ~src:0 ~dst:1 false;
  send net ~src:0 ~dst:1 ~bytes_on_wire:0 ();
  E.run e;
  Alcotest.(check int) "revived" 2 !got

let test_bad_drop_rejected () =
  let faults = Faultnet.create ~seed:1 ~n:4 in
  Alcotest.check_raises "p = 1 breaks fair loss"
    (Invalid_argument "Simnet.Faultnet.set_drop: need 0 <= p < 1 for fair loss")
    (fun () -> Faultnet.set_drop faults 1.0)

let test_addr_range () =
  let _, _, net = make () in
  Alcotest.check_raises "bad addr"
    (Invalid_argument "Quorum.Fabric: address out of range") (fun () ->
      send net ~src:0 ~dst:9 ~bytes_on_wire:0 ())

(* Net.create checks the healthy channel: fair loss needs drop < 1,
   and a negative delay or jitter would schedule into the past. *)
let test_create_checks_config () =
  let bad config =
    Alcotest.match_raises "bad config rejected"
      (function Invalid_argument _ -> true | _ -> false)
      (fun () -> ignore (make ~config ()))
  in
  bad { Net.default_config with drop = 1.0 };
  bad { Net.default_config with drop = -0.1 };
  bad { Net.default_config with delay = -1. };
  bad { Net.default_config with jitter = -0.5 };
  ignore (make ~config:{ Net.default_config with drop = 0.99 } ())

(* A cut message is a lost message: counted in net.msgs and net.drops,
   and traced as msg_send followed by msg_drop. *)
let test_cut_counts_as_drop () =
  let obs = Obs.create () in
  let kinds = ref [] in
  Obs.add_sink obs (Obs.Sink.make (fun ev -> kinds := ev.Obs.kind :: !kinds));
  let e, metrics, net, faults = make_faulty ~obs () in
  register net 1 (fun ~src:_ _ -> Alcotest.fail "cut message delivered");
  Faultnet.partition faults [ [ 0 ] ];
  send net ~src:0 ~dst:1 ~bytes_on_wire:5 ();
  E.run e;
  Alcotest.(check (float 0.)) "msgs" 1. (Metrics.Registry.value metrics "net.msgs");
  Alcotest.(check (float 0.)) "drops" 1. (Metrics.Registry.value metrics "net.drops");
  Alcotest.(check int) "one cut" 1 (Faultnet.stats faults).Faultnet.cut;
  match List.rev !kinds with
  | [ Obs.Msg_send _; Obs.Msg_drop { dst = 1; bytes = 5; bg = false } ] -> ()
  | _ -> Alcotest.fail "expected msg_send then msg_drop"

(* The seed alone decides the fault draws: one seed replays the same
   verdicts, another seed draws others, and a healthy fabric draws
   nothing (its verdicts are all Deliver). *)
let test_seeded_sampler () =
  let verdicts ~seed =
    let f = Faultnet.create ~seed ~n:2 in
    Faultnet.set_drop f 0.5;
    Faultnet.set_delay f ~delay:0. ~jitter:1.;
    List.init 64 (fun _ -> Faultnet.decide f ~src:0 ~dst:1)
  in
  Alcotest.(check bool) "same seed, same verdicts" true
    (verdicts ~seed:3 = verdicts ~seed:3);
  Alcotest.(check bool) "other seed, other verdicts" true
    (verdicts ~seed:3 <> verdicts ~seed:4);
  let healthy = Faultnet.create ~seed:3 ~n:2 in
  Alcotest.(check bool) "healthy fabric delivers" true
    (List.for_all (( = ) Faultnet.Deliver)
       (List.init 64 (fun _ -> Faultnet.decide healthy ~src:0 ~dst:1)))

(* A Delay verdict adds to the channel's own delay. *)
let test_fault_delay_adds () =
  let e, _, net, faults = make_faulty () in
  let at = ref nan in
  register net 1 (fun ~src:_ () -> at := E.now e);
  Faultnet.set_delay faults ~delay:2. ~jitter:0.;
  send net ~src:0 ~dst:1 ~bytes_on_wire:0 ();
  E.run e;
  Alcotest.(check (float 0.)) "1 delta + 2 added" 3. !at

let () =
  Alcotest.run "simnet"
    [
      ( "delivery",
        [
          Alcotest.test_case "delivery and delay" `Quick test_delivery_and_delay;
          Alcotest.test_case "no handler drops" `Quick test_no_handler_drops;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "drop probability" `Quick test_drop_probability;
          Alcotest.test_case "jitter reorders" `Quick test_jitter_reorders;
        ] );
      ( "faults",
        [
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "implicit group" `Quick test_partition_implicit_group;
          Alcotest.test_case "overlap rejected" `Quick test_partition_overlap_rejected;
          Alcotest.test_case "directed link down" `Quick test_link_down;
          Alcotest.test_case "drop = 1 rejected" `Quick test_bad_drop_rejected;
          Alcotest.test_case "address range" `Quick test_addr_range;
        ] );
      ( "one fault model",
        [
          Alcotest.test_case "create checks config" `Quick
            test_create_checks_config;
          Alcotest.test_case "cut counts as a drop" `Quick
            test_cut_counts_as_drop;
          Alcotest.test_case "fault delay adds" `Quick test_fault_delay_adds;
          Alcotest.test_case "seeded sampler" `Quick test_seeded_sampler;
        ] );
    ]
