(* Tests for the LS97-style replicated-register baseline. *)

module L = Baseline.Ls97

let bs = 1024
let blk c = Bytes.make bs c

let write t ~coord ~reg v = L.run_op t (fun () -> L.write t ~coord ~reg v)
let read t ~coord ~reg = L.run_op t (fun () -> L.read t ~coord ~reg)

let check_ok msg = function
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail msg

let check_value msg expected = function
  | Some (Ok b) -> Alcotest.(check bool) msg true (Bytes.equal b expected)
  | _ -> Alcotest.fail msg

let test_roundtrip () =
  let t = L.create ~n:5 () in
  check_ok "write" (write t ~coord:0 ~reg:0 (blk 'a'));
  check_value "read" (blk 'a') (read t ~coord:3 ~reg:0);
  check_ok "overwrite" (write t ~coord:1 ~reg:0 (blk 'b'));
  check_value "read new" (blk 'b') (read t ~coord:4 ~reg:0)

(* LS97 on the multicore backend: the same replicas and RPC over the
   mc substrate's mailboxes and receive loops. *)
let test_ls97_on_mc () =
  let t = L.create ~backend:(Core.Cluster.Mc { domains = 2 }) ~n:5 () in
  Fun.protect
    ~finally:(fun () -> L.shutdown t)
    (fun () ->
      check_ok "write" (write t ~coord:0 ~reg:3 (blk 'm'));
      check_value "read" (blk 'm') (read t ~coord:4 ~reg:3))

let test_fresh_register_is_zero () =
  let t = L.create ~n:3 () in
  check_value "zero" (Bytes.make bs '\000') (read t ~coord:0 ~reg:9)

let test_registers_independent () =
  let t = L.create ~n:3 () in
  check_ok "w0" (write t ~coord:0 ~reg:0 (blk 'x'));
  check_ok "w1" (write t ~coord:1 ~reg:1 (blk 'y'));
  check_value "r0" (blk 'x') (read t ~coord:2 ~reg:0);
  check_value "r1" (blk 'y') (read t ~coord:0 ~reg:1)

let test_costs_match_table1 () =
  (* LS97 columns of Table 1: read 4delta/4n msgs/n reads/n writes/2nB;
     write 4delta/4n msgs/0 reads/n writes/nB. *)
  let n = 8 in
  let nf = float_of_int n and bf = float_of_int bs in
  let t = L.create ~n () in
  check_ok "seed" (write t ~coord:0 ~reg:0 (blk 'a'));
  let before = L.snapshot t in
  let t0 = ref 0. in
  let lat = ref 0. in
  (match
     L.run_op t (fun () ->
         t0 := Runtime.now (L.runtime t);
         let r = L.read t ~coord:0 ~reg:0 in
         lat := Runtime.now (L.runtime t) -. !t0;
         r)
   with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "read");
  let after = L.snapshot t in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check (float 0.)) "read latency 4 delta" 4. !lat;
  Alcotest.(check (float 0.)) "read msgs 4n" (4. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "read disk reads n" nf (d "disk.reads");
  Alcotest.(check (float 0.)) "read bandwidth 2nB" (2. *. nf *. bf) (d "net.bytes");
  Alcotest.(check (float 0.)) "read disk writes n (blind write-back)" nf
    (d "disk.writes");

  let before = L.snapshot t in
  check_ok "write" (write t ~coord:1 ~reg:0 (blk 'b'));
  let after = L.snapshot t in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  Alcotest.(check (float 0.)) "write msgs 4n" (4. *. nf) (d "net.msgs");
  Alcotest.(check (float 0.)) "write disk reads 0" 0. (d "disk.reads");
  Alcotest.(check (float 0.)) "write disk writes n" nf (d "disk.writes");
  Alcotest.(check (float 0.)) "write bandwidth nB" (nf *. bf) (d "net.bytes")

let test_majority_crash_tolerance () =
  let t = L.create ~n:5 () in
  check_ok "write" (write t ~coord:0 ~reg:0 (blk 'a'));
  L.crash t 3;
  L.crash t 4;
  check_value "read with minority down" (blk 'a') (read t ~coord:0 ~reg:0);
  check_ok "write with minority down" (write t ~coord:1 ~reg:0 (blk 'b'));
  L.crash t 2;
  (match L.run_op ~horizon:300. t (fun () -> L.read t ~coord:0 ~reg:0) with
  | None -> ()
  | Some _ -> Alcotest.fail "majority down must stall");
  L.recover t 2;
  check_value "after recovery" (blk 'b') (read t ~coord:0 ~reg:0)

let test_read_completes_partial_write () =
  (* The contrast with the paper's strict semantics: under LS97 a
     partial write CAN surface later, completed by a read's
     write-back. We inject a partial write that reaches one replica
     and observe a subsequent read adopt and complete it. *)
  let t = L.create ~n:3 () in
  check_ok "seed" (write t ~coord:0 ~reg:0 (blk 'a'));
  (* Partial write: replicas 0 and 1 are down exactly while the Put
     messages arrive, so the new value lands only on replica 2; the
     writer then crashes before gathering a majority of acks. *)
  let rt = L.runtime t in
  Runtime.spawn rt (fun () ->
      ignore (L.write t ~coord:2 ~reg:0 (blk 'p')));
  ignore (Runtime.timer rt ~delay:2.5 (fun () -> L.crash t 0; L.crash t 1));
  ignore (Runtime.timer rt ~delay:3.5 (fun () ->
      L.crash t 2;  (* the writer dies; its write reached only replica 2 *)
      L.recover t 0; L.recover t 1));
  L.run ~horizon:50. t;
  L.recover t 2;
  (* A read whose quorum samples replica 2 adopts the partial value and
     its write-back completes the dead coordinator's write — allowed by
     plain linearizability, excluded by strict linearizability. Crash
     replica 0 so the majority must include replica 2. *)
  L.crash t 0;
  check_value "partial write surfaced later" (blk 'p') (read t ~coord:1 ~reg:0);
  L.recover t 0;
  (* The write-back fixed the value at a majority: now every quorum
     reports it. *)
  check_value "and it sticks" (blk 'p') (read t ~coord:0 ~reg:0)

let test_validation () =
  let t = L.create ~n:3 () in
  Alcotest.check_raises "block size"
    (Invalid_argument "Baseline.Ls97.write: wrong block size") (fun () ->
      ignore (L.run_op t (fun () -> L.write t ~coord:0 ~reg:0 (Bytes.create 5))));
  Alcotest.check_raises "n too small"
    (Invalid_argument "Baseline.Ls97.create: n < 2") (fun () ->
      ignore (L.create ~n:1 ()))

(* --- Direct (client-coordinated, section 6 contrast) --- *)

module D = Baseline.Direct

let test_direct_roundtrip () =
  let d = D.create ~m:3 ~n:5 ~block_size:64 () in
  let stripe = Array.init 3 (fun i -> Bytes.make 64 (Char.chr (97 + i))) in
  (match D.run_op d (fun () -> D.write d stripe) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "direct write");
  match D.run_op d (fun () -> D.read d) with
  | Some (Ok got) ->
      Alcotest.(check bool) "roundtrip" true (Array.for_all2 Bytes.equal got stripe)
  | _ -> Alcotest.fail "direct read"

let test_direct_survives_f_failures_when_quiet () =
  (* With no partial writes the naive design reads fine with n-m
     devices dead — erasure coding itself works. *)
  let d = D.create ~m:2 ~n:4 ~block_size:64 () in
  let stripe = Array.init 2 (fun i -> Bytes.make 64 (Char.chr (65 + i))) in
  (match D.run_op d (fun () -> D.write d stripe) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write");
  D.crash_device d 0;
  D.crash_device d 3;
  match D.run_op d (fun () -> D.read d) with
  | Some (Ok got) ->
      Alcotest.(check bool) "degraded read" true
        (Array.for_all2 Bytes.equal got stripe)
  | _ -> Alcotest.fail "degraded read failed"

let test_direct_mixed_versions_corrupt () =
  (* The paper's section 6 scenario: partial client write + device
     failure = garbage. This test documents the flaw the quorum
     protocol exists to fix. *)
  let d = D.create ~m:2 ~n:3 ~block_size:64 () in
  let old_stripe = [| Bytes.make 64 'o'; Bytes.make 64 'p' |] in
  let new_stripe = [| Bytes.make 64 'N'; Bytes.make 64 'M' |] in
  (match D.run_op d (fun () -> D.write d old_stripe) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "seed");
  D.write_first d new_stripe;
  D.crash_device d 1;
  match D.run_op d (fun () -> D.read d) with
  | Some (Ok got) ->
      let g = Bytes.get got.(1) 0 in
      Alcotest.(check bool) "block 0 is the new value" true
        (Bytes.equal got.(0) new_stripe.(0));
      Alcotest.(check bool)
        (Printf.sprintf "block 1 decodes to garbage (%C)" g)
        true
        (g <> 'p' && g <> 'M')
  | _ -> Alcotest.fail "read"

let test_direct_too_many_failures () =
  let d = D.create ~m:2 ~n:3 ~block_size:64 () in
  D.crash_device d 0;
  D.crash_device d 1;
  match D.run_op d (fun () -> D.read d) with
  | Some (Error `Failed) -> ()
  | _ -> Alcotest.fail "should report failure"

let () =
  Alcotest.run "baseline"
    [
      ( "ls97",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "fresh register zero" `Quick test_fresh_register_is_zero;
          Alcotest.test_case "independent registers" `Quick test_registers_independent;
          Alcotest.test_case "costs match Table 1" `Quick test_costs_match_table1;
          Alcotest.test_case "majority crash tolerance" `Quick
            test_majority_crash_tolerance;
          Alcotest.test_case "partial write surfaces later (plain lin.)" `Quick
            test_read_completes_partial_write;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "roundtrip on mc" `Quick test_ls97_on_mc;
        ] );
      ( "direct",
        [
          Alcotest.test_case "roundtrip" `Quick test_direct_roundtrip;
          Alcotest.test_case "degraded read when quiet" `Quick
            test_direct_survives_f_failures_when_quiet;
          Alcotest.test_case "mixed versions corrupt (section 6)" `Quick
            test_direct_mixed_versions_corrupt;
          Alcotest.test_case "too many failures" `Quick
            test_direct_too_many_failures;
        ] );
    ]
