(* Tests for m-quorum systems (Appendix A) and the quorum RPC. *)

module MQ = Quorum.Mquorum
module Rpc = Quorum.Rpc
module E = Dessim.Engine

(* ------------------------------------------------------------------ *)
(* m-quorum systems                                                    *)
(* ------------------------------------------------------------------ *)

let test_existence_theorem_exhaustive () =
  (* Theorem 2: an m-quorum system exists iff n >= 2f + m. Check the
     canonical construction against a brute-force witness search for
     all small parameters. *)
  for n = 1 to 10 do
    for m = 1 to n do
      for f = 0 to n do
        let claimed = MQ.exists ~n ~m ~f in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d m=%d f=%d" n m f)
          (n >= (2 * f) + m)
          claimed;
        if claimed then begin
          let q = MQ.create_f ~n ~m ~f in
          Alcotest.(check int) "quorum size" (n - f) (MQ.quorum_size q)
        end
        else
          Alcotest.check_raises "create_f rejects"
            (Invalid_argument
               (Printf.sprintf
                  "Quorum.Mquorum: no m-quorum system for n=%d m=%d f=%d (need \
                   n >= 2f+m)"
                  n m f))
            (fun () -> ignore (MQ.create_f ~n ~m ~f))
      done
    done
  done

(* All subsets of size k of [0, n). *)
let rec subsets k lo n =
  if k = 0 then [ [] ]
  else if lo >= n then []
  else
    List.map (fun s -> lo :: s) (subsets (k - 1) (lo + 1) n)
    @ subsets k (lo + 1) n

let test_consistency_property () =
  (* CONSISTENCY: any two canonical quorums intersect in >= m processes
     (exhaustive over all minimal quorums for small systems). *)
  List.iter
    (fun (n, m) ->
      let q = MQ.create ~n ~m in
      let size = MQ.quorum_size q in
      let quorums = subsets size 0 n in
      List.iter
        (fun q1 ->
          List.iter
            (fun q2 ->
              Alcotest.(check bool) "intersection >= m" true
                (MQ.check_intersection q q1 q2))
            quorums)
        quorums)
    [ (3, 1); (4, 2); (5, 3); (6, 2); (8, 5) ]

let test_availability_property () =
  (* AVAILABILITY: for every f-subset of faulty processes there is a
     quorum avoiding all of them. Canonical quorums are all (n-f)-sets,
     so the complement of any f-set is a quorum. *)
  List.iter
    (fun (n, m) ->
      let q = MQ.create ~n ~m in
      let f = MQ.f q in
      List.iter
        (fun faulty ->
          let alive = List.filter (fun p -> not (List.mem p faulty)) (List.init n Fun.id) in
          Alcotest.(check bool) "complement is quorum" true (MQ.is_quorum q alive))
        (subsets f 0 n))
    [ (3, 1); (5, 3); (8, 5); (7, 3) ]

let test_max_f () =
  Alcotest.(check int) "5-of-8 tolerates 1" 1 (MQ.max_f ~n:8 ~m:5);
  Alcotest.(check int) "3-of-5 tolerates 1" 1 (MQ.max_f ~n:5 ~m:3);
  Alcotest.(check int) "1-of-3 tolerates 1" 1 (MQ.max_f ~n:3 ~m:1);
  Alcotest.(check int) "1-of-5 tolerates 2" 2 (MQ.max_f ~n:5 ~m:1);
  Alcotest.(check int) "2-of-8 tolerates 3" 3 (MQ.max_f ~n:8 ~m:2)

let test_is_quorum_rejects_junk () =
  let q = MQ.create ~n:5 ~m:3 in
  Alcotest.(check bool) "duplicates" false (MQ.is_quorum q [ 0; 0; 1; 2 ]);
  Alcotest.(check bool) "out of range" false (MQ.is_quorum q [ 0; 1; 2; 9 ]);
  Alcotest.(check bool) "too small" false (MQ.is_quorum q [ 0; 1; 2 ]);
  Alcotest.(check bool) "exact quorum" true (MQ.is_quorum q [ 0; 1; 2; 3 ])

let qtest name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name gen f)

let quorum_props =
  [
    qtest "random (n,m): two random quorums intersect in >= m"
      (QCheck.make
         QCheck.Gen.(
           int_range 1 12 >>= fun n ->
           int_range 1 n >>= fun m ->
           let q = MQ.create ~n ~m in
           let size = MQ.quorum_size q in
           let pick st =
             let arr = Array.init n Fun.id in
             for i = n - 1 downto 1 do
               let j = int_bound i st in
               let t = arr.(i) in
               arr.(i) <- arr.(j);
               arr.(j) <- t
             done;
             Array.to_list (Array.sub arr 0 size)
           in
           fun st -> (n, m, pick st, pick st)))
      (fun (n, m, q1, q2) ->
        let q = MQ.create ~n ~m in
        ignore n;
        ignore m;
        MQ.check_intersection q q1 q2);
  ]

(* ------------------------------------------------------------------ *)
(* Quorum RPC                                                          *)
(* ------------------------------------------------------------------ *)

type harness = {
  e : E.t;
  rt : Runtime.t;
  faults : Simnet.Faultnet.t;
  rpc : (string, string) Rpc.t;
  bricks : Brick.t array;
}

(* [slow] adds an extra one-way delay to every message bound for the
   listed addresses. *)
let harness ?(n = 5) ?(config = Simnet.Net.default_config) ?(slow = []) () =
  let e = E.create () in
  let metrics = Metrics.Registry.create () in
  let rt = Runtime_sim.of_engine e in
  let faults = Simnet.Faultnet.create ~seed:1 ~n in
  let net = Simnet.Net.create e ~config ~n in
  let transport =
    Quorum.Fabric.create ~now:(fun () -> E.now e) ~metrics ~faults ~n
      ~lost:(fun () -> Simnet.Net.lost net)
      ~carry:(fun ~dst ~delay deliver ->
        let extra = Option.value (List.assoc_opt dst slow) ~default:0. in
        Simnet.Net.carry net ~dst ~delay:(delay +. extra) deliver)
      ()
  in
  let rpc =
    Rpc.create ~rt ~transport ~req_bytes:String.length
      ~rep_bytes:String.length ~retry_every:8. ~grace:1. ()
  in
  let bricks = Array.init n (fun id -> Brick.create ~metrics rt ~id) in
  (* Each server echoes with its address unless its brick is down. *)
  Array.iteri
    (fun i b ->
      Rpc.serve rpc ~addr:i (fun ~src:_ ~ctx:_ req ->
          if Brick.is_alive b then Some (Printf.sprintf "%s/%d" req i)
          else None))
    bricks;
  { e; rt; faults; rpc; bricks }

let members n = List.init n Fun.id

let test_basic_call () =
  let h = harness () in
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 5) ~quorum:4
             (fun _ -> "ping")));
  E.run h.e;
  match !result with
  | Some replies ->
      Alcotest.(check bool) "at least a quorum" true (List.length replies >= 4);
      List.iter
        (fun (src, rep) ->
          Alcotest.(check string) "echo" (Printf.sprintf "ping/%d" src) rep)
        replies;
      Alcotest.(check (float 0.0)) "one round trip" 2. (E.now h.e)
  | None -> Alcotest.fail "call did not complete"

let test_call_with_crashed_members () =
  let h = harness () in
  Brick.crash h.bricks.(3);
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 5) ~quorum:4
             (fun _ -> "x")));
  E.run ~until:100. h.e;
  match !result with
  | Some replies ->
      Alcotest.(check int) "quorum of alive" 4 (List.length replies);
      Alcotest.(check bool) "crashed absent" false
        (List.mem_assoc 3 replies)
  | None -> Alcotest.fail "call did not complete"

let test_retransmission_overcomes_loss () =
  let h = harness ~config:{ Simnet.Net.default_config with drop = 0.4 } () in
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(1) ~members:(members 5) ~quorum:5
             (fun _ -> "lossy")));
  E.run ~until:10_000. h.e;
  Alcotest.(check bool) "eventually completes" true (!result <> None)

let test_coordinator_crash_cancels () =
  let h = harness () in
  (* No servers installed in a fresh partitioned net would be complex;
     instead partition the coordinator away so the call hangs. *)
  Simnet.Faultnet.partition h.faults [ [ 0 ]; [ 1; 2; 3; 4 ] ];
  let cancelled = ref false in
  let completed = ref false in
  Runtime.spawn h.rt (fun () ->
      match
        Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 5) ~quorum:4
          (fun _ -> "doomed")
      with
      | _ -> completed := true
      | exception Runtime.Cancelled ->
          cancelled := true;
          raise Runtime.Cancelled);
  ignore (E.schedule h.e ~delay:50. (fun () -> Brick.crash h.bricks.(0)));
  E.run ~until:200. h.e;
  Alcotest.(check bool) "not completed" false !completed;
  Alcotest.(check bool) "fiber saw Cancelled" true !cancelled

let test_until_waits_for_target () =
  let h = harness () in
  (* Delay replies from 4 by slowing its link; until-predicate wants 4. *)
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 5) ~quorum:3
             ~until:(fun replies -> List.mem_assoc 4 replies)
             (fun _ -> "t")));
  E.run h.e;
  match !result with
  | Some replies -> Alcotest.(check bool) "target included" true (List.mem_assoc 4 replies)
  | None -> Alcotest.fail "no result"

let test_until_gives_up_after_grace () =
  let h = harness () in
  Brick.crash h.bricks.(4);
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 5) ~quorum:3
             ~until:(fun replies -> List.mem_assoc 4 replies)
             (fun _ -> "t")));
  E.run ~until:100. h.e;
  match !result with
  | Some replies ->
      Alcotest.(check bool) "settled without target" false (List.mem_assoc 4 replies);
      Alcotest.(check int) "everyone alive answered" 4 (List.length replies)
  | None -> Alcotest.fail "call hung despite grace"

let test_per_destination_requests () =
  let h = harness () in
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      result :=
        Some
          (Rpc.call h.rpc ~coord:h.bricks.(2) ~members:(members 5) ~quorum:5
             (fun dst -> Printf.sprintf "req%d" dst)));
  E.run h.e;
  match !result with
  | Some replies ->
      List.iter
        (fun (src, rep) ->
          Alcotest.(check string) "tailored" (Printf.sprintf "req%d/%d" src src) rep)
        replies
  | None -> Alcotest.fail "no result"

let test_notify_is_best_effort () =
  let h = harness () in
  let seen = ref 0 in
  Array.iteri
    (fun i b ->
      Rpc.serve h.rpc ~addr:i (fun ~src:_ ~ctx:_ _ ->
          if Brick.is_alive b then incr seen;
          None))
    h.bricks;
  Rpc.notify h.rpc ~coord:h.bricks.(0) ~members:(members 5) "gc";
  E.run h.e;
  Alcotest.(check int) "all received" 5 !seen

(* Requests to member 2 take 11 time units and to member 3 take 31,
   against a first retransmission 6..10 units in: member 2 receives the
   request twice and answers twice, at t = 12 and again about 8 later.
   Its second answer must not count toward the all-members quorum (which
   would complete the call at ~20 without member 3), must not appear in
   the replies, and the second retransmission must skip it. *)
let test_duplicate_reply_counts_once () =
  let h = harness ~slow:[ (2, 10.); (3, 30.) ] () in
  let asked = Array.make 4 0 in
  Array.iteri
    (fun i b ->
      Rpc.serve h.rpc ~addr:i (fun ~src:_ ~ctx:_ req ->
          asked.(i) <- asked.(i) + 1;
          if Brick.is_alive b then Some (Printf.sprintf "%s/%d" req i)
          else None))
    h.bricks;
  let result = ref None in
  Runtime.spawn h.rt (fun () ->
      let replies =
        Rpc.call h.rpc ~coord:h.bricks.(0) ~members:(members 4) ~quorum:4
          (fun _ -> "q")
      in
      result := Some (replies, E.now h.e));
  E.run ~until:200. h.e;
  match !result with
  | None -> Alcotest.fail "call did not complete"
  | Some (replies, at) ->
      Alcotest.(check int) "member 2 asked twice" 2 asked.(2);
      Alcotest.(check (list int)) "one reply per member" [ 0; 1; 2; 3 ]
        (List.sort compare (List.map fst replies));
      Alcotest.(check (float 0.)) "completed on member 3's reply" 32. at

let test_quorum_larger_than_members_rejected () =
  let h = harness () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Quorum.Rpc.call: quorum larger than member count")
    (fun () ->
      Runtime.spawn h.rt (fun () ->
          ignore
            (Rpc.call h.rpc ~coord:h.bricks.(0) ~members:[ 0; 1 ] ~quorum:3
               (fun _ -> "x"))))

let () =
  Alcotest.run "quorum"
    [
      ( "mquorum",
        [
          Alcotest.test_case "existence theorem (exhaustive)" `Quick
            test_existence_theorem_exhaustive;
          Alcotest.test_case "consistency property" `Quick test_consistency_property;
          Alcotest.test_case "availability property" `Quick test_availability_property;
          Alcotest.test_case "max_f" `Quick test_max_f;
          Alcotest.test_case "is_quorum input validation" `Quick
            test_is_quorum_rejects_junk;
        ]
        @ quorum_props );
      ( "rpc",
        [
          Alcotest.test_case "basic call" `Quick test_basic_call;
          Alcotest.test_case "crashed members skipped" `Quick
            test_call_with_crashed_members;
          Alcotest.test_case "retransmission overcomes loss" `Quick
            test_retransmission_overcomes_loss;
          Alcotest.test_case "coordinator crash cancels" `Quick
            test_coordinator_crash_cancels;
          Alcotest.test_case "until waits for target" `Quick
            test_until_waits_for_target;
          Alcotest.test_case "until gives up after grace" `Quick
            test_until_gives_up_after_grace;
          Alcotest.test_case "per-destination requests" `Quick
            test_per_destination_requests;
          Alcotest.test_case "duplicate reply counts once" `Quick
            test_duplicate_reply_counts_once;
          Alcotest.test_case "notify best effort" `Quick test_notify_is_best_effort;
          Alcotest.test_case "quorum bound validated" `Quick
            test_quorum_larger_than_members_rejected;
        ] );
    ]
