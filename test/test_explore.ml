(* Systematic schedule exploration.

   The engine's chooser hook lets a test control which of several
   simultaneous events fires first — exactly the nondeterminism a real
   network exhibits when messages race. Two modes:

   - bounded-exhaustive: enumerate choice sequences depth-first (with a
     budget) and check every explored schedule;
   - randomized: draw many random schedules of a larger scenario.

   Both replay the scenario from scratch per schedule and verify the
   recorded history is strictly linearizable. This complements the
   crash fuzzer: it systematically covers message-ordering races that
   seed-based jitter only samples. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module H = Linearize.History
module Check = Linearize.Check

let block_size = 16

let value_block s =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let block_value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

(* Run one scenario under the choice function [choose]; returns the
   history of block 0 and how many reads were re-targeted.
   [choose pos alternatives] picks the event index for the [pos]'th
   choice point. [faults] crash or recover a brick at a time; those at
   time 0 apply before the first op. *)
let run_scenario ?(faults = []) ~m ~n ~ops ~choose () =
  let cl = Cluster.create ~m ~n ~block_size () in
  let rt = cl.Cluster.runtime in
  List.iter
    (fun (at, fault) ->
      let apply () =
        match fault with
        | `Crash b -> Cluster.crash cl b
        | `Recover b -> Cluster.recover cl b
      in
      if at <= 0. then apply ()
      else ignore (Runtime.timer rt ~delay:at apply))
    faults;
  let h = H.create () in
  let pos = ref 0 in
  Dessim.Engine.set_chooser (Cluster.sim_engine cl)
    (Some
       (fun k ->
         let idx = choose !pos k in
         incr pos;
         idx));
  List.iter
    (fun (coord, delay, op) ->
      ignore
        (Runtime.timer rt ~delay (fun () ->
             Runtime.spawn cl.Cluster.runtime (fun () ->
                 let now () = Runtime.now rt in
                 match op with
                 | `Write value ->
                     let id =
                       H.invoke h ~client:coord ~kind:H.Write ~written:value
                         ~now:(now ()) ()
                     in
                     (* History tracks block 0's projection; the other
                        blocks get distinct filler so decode mixups
                        would be caught as unwritten values. *)
                     let stripe_val =
                       Array.init m (fun i ->
                           if i = 0 then value_block value
                           else value_block (Printf.sprintf "%s#%d" value i))
                     in
                     (match
                        Coordinator.write_stripe cl.Cluster.coordinators.(coord)
                          ~stripe:0 stripe_val
                      with
                     | Ok () -> H.complete_write h id ~now:(now ())
                     | Error _ -> H.abort h id ~now:(now ()))
                 | `Read ->
                     let id =
                       H.invoke h ~client:coord ~kind:H.Read ~now:(now ()) ()
                     in
                     (match
                        Coordinator.read_stripe cl.Cluster.coordinators.(coord)
                          ~stripe:0
                      with
                     | Ok data ->
                         H.complete_read h id ~value:(block_value data.(0))
                           ~now:(now ())
                     | Error _ -> H.abort h id ~now:(now ()))
                 | `Write_block value ->
                     let id =
                       H.invoke h ~client:coord ~kind:H.Write ~written:value
                         ~now:(now ()) ()
                     in
                     (match
                        Coordinator.write_blocks cl.Cluster.coordinators.(coord)
                          ~stripe:0 0 [| value_block value |]
                      with
                     | Ok () -> H.complete_write h id ~now:(now ())
                     | Error _ -> H.abort h id ~now:(now ()))
                 | `Read_blocks len ->
                     (* Block 0 alone, or a range starting at it. *)
                     let id =
                       H.invoke h ~client:coord ~kind:H.Read ~now:(now ()) ()
                     in
                     (match
                        Coordinator.read_blocks cl.Cluster.coordinators.(coord)
                          ~stripe:0 0 ~len
                      with
                     | Ok blocks ->
                         H.complete_read h id ~value:(block_value blocks.(0))
                           ~now:(now ())
                     | Error _ -> H.abort h id ~now:(now ()))))))
    ops;
  Cluster.run ~horizon:1_000. cl;
  (h, int_of_float (Metrics.Registry.value cl.Cluster.metrics "coord.retargets"))

(* Bounded-exhaustive DFS over choice sequences. The prefix fixes the
   first choices; beyond it we take 0 and record how many alternatives
   existed, then backtrack from the right. *)
let explore ~m ~n ~ops ~budget check =
  let explored = ref 0 in
  let exhausted = ref false in
  let prefix = ref [||] in
  let continue_ = ref true in
  while !continue_ && !explored < budget do
    incr explored;
    let alternatives = ref [] in
    (* alternatives.(i) = k at choice point i, newest first *)
    let choose pos k =
      alternatives := k :: !alternatives;
      if pos < Array.length !prefix then !prefix.(pos) else 0
    in
    let h, _ = run_scenario ~m ~n ~ops ~choose () in
    check h;
    (* Build the taken-choice array for backtracking. *)
    let alts = Array.of_list (List.rev !alternatives) in
    let taken =
      Array.init (Array.length alts) (fun i ->
          if i < Array.length !prefix then !prefix.(i) else 0)
    in
    (* Find the rightmost incrementable position. *)
    let rec findpos i =
      if i < 0 then None
      else if taken.(i) + 1 < alts.(i) then Some i
      else findpos (i - 1)
    in
    match findpos (Array.length alts - 1) with
    | None ->
        exhausted := true;
        continue_ := false
    | Some i ->
        let next = Array.sub taken 0 (i + 1) in
        next.(i) <- next.(i) + 1;
        prefix := next
  done;
  (!explored, !exhausted)

let check_linearizable label h =
  match Check.strict h with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "%s: schedule violates strict linearizability: %a" label
        Check.pp_violation v

let test_exhaustive_concurrent_writes () =
  (* Two concurrent writers on a 1-of-2 register (quorum = both), then
     a read: every interleaving of their message races must be
     linearizable. The scenario is small enough to explore fully. *)
  let ops =
    [ (0, 0., `Write "w1"); (1, 0., `Write "w2"); (0, 50., `Read) ]
  in
  let explored, exhausted =
    explore ~m:1 ~n:2 ~ops ~budget:30_000 (check_linearizable "2 writers")
  in
  Printf.printf "exhaustive 2-writer exploration: %d schedules%s\n" explored
    (if exhausted then " (complete)" else " (budget hit)");
  Alcotest.(check bool) "explored many schedules" true (explored > 100)

let test_exhaustive_write_read_race () =
  let ops = [ (0, 0., `Write "w"); (1, 0., `Read); (1, 50., `Read) ] in
  let explored, exhausted =
    explore ~m:1 ~n:2 ~ops ~budget:30_000
      (check_linearizable "write-read race")
  in
  Printf.printf "exhaustive write/read exploration: %d schedules%s\n" explored
    (if exhausted then " (complete)" else " (budget hit)");
  Alcotest.(check bool) "explored many schedules" true (explored > 100)

let test_exhaustive_staggered_ops () =
  (* Writers starting one delta apart race the first writer's second
     phase against the second writer's first phase. *)
  let ops =
    [ (0, 0., `Write "w1"); (1, 1., `Write "w2"); (2, 30., `Read) ]
  in
  let explored, _ =
    explore ~m:1 ~n:3 ~ops ~budget:8_000 (check_linearizable "staggered")
  in
  Printf.printf "staggered exploration: %d schedules\n" explored;
  Alcotest.(check bool) "explored" true (explored > 50)

let test_random_schedules_erasure () =
  (* Random schedules of a 2-of-4 register under three concurrent
     clients; 400 distinct schedules. *)
  let rng = Random.State.make [| 99 |] in
  for round = 1 to 400 do
    let choose _pos k = Random.State.int rng k in
    let ops =
      [
        (0, 0., `Write (Printf.sprintf "a%d" round));
        (1, 0., `Write (Printf.sprintf "b%d" round));
        (2, 1., `Read);
        (3, 40., `Read);
      ]
    in
    let h, _ = run_scenario ~m:2 ~n:4 ~ops ~choose () in
    check_linearizable "random schedule" h
  done

let test_random_schedules_dead_member () =
  (* Brick 0 — block 0's member — is down for the whole scenario, so
     reads of block 0 alone or of a range over it are re-targeted at
     live members and decoded, racing a stripe write and a block write
     that takes the slow path; 300 random schedules of a 3-of-5
     register. *)
  let rng = Random.State.make [| 7 |] in
  let fired = ref 0 and rounds = ref 0 in
  for round = 1 to 300 do
    let choose _pos k = Random.State.int rng k in
    let ops =
      [
        (1, 0., `Write (Printf.sprintf "a%d" round));
        (2, 0., `Write_block (Printf.sprintf "b%d" round));
        (3, 1., `Read_blocks 1);
        (4, 3., `Read_blocks 2);
        (3, 5., `Read_blocks 2);
        (4, 12., `Read_blocks 1);
        (1, 30., `Read);
      ]
    in
    let h, k = run_scenario ~faults:[ (0., `Crash 0) ] ~m:3 ~n:5 ~ops ~choose () in
    check_linearizable "dead member schedule" h;
    fired := !fired + k;
    if k > 0 then incr rounds
  done;
  Printf.printf "re-targeted reads: %d, in %d of 300 schedules\n" !fired
    !rounds;
  Alcotest.(check bool) "the re-targeted read fired in most schedules" true
    (!rounds >= 250)

let test_random_schedules_stale_target () =
  (* f = 2 (3-of-7): bricks 0 and 1 are down while a stripe write
     completes; brick 1 then comes back stale. Coordinator 3 already
     suspects brick 0, so its next read of block 0 goes straight to the
     degraded read — whose first targets in position order include the
     stale brick 1. Its round must see two versions and recover rather
     than decode old and new blocks together. *)
  let rng = Random.State.make [| 11 |] in
  let fired = ref 0 in
  for round = 1 to 200 do
    let choose _pos k = Random.State.int rng k in
    let ops =
      [
        (3, 1., `Read_blocks 1);
        (2, 10., `Write (Printf.sprintf "a%d" round));
        (3, 30., `Read_blocks 1);
        (4, 31., `Read_blocks 2);
        (2, 60., `Read);
      ]
    in
    let h, k =
      run_scenario
        ~faults:[ (0., `Crash 0); (0., `Crash 1); (25., `Recover 1) ]
        ~m:3 ~n:7 ~ops ~choose ()
    in
    check_linearizable "stale target schedule" h;
    fired := !fired + k
  done;
  Printf.printf "re-targeted reads: %d over 200 schedules\n" !fired;
  Alcotest.(check bool) "the re-targeted read fired" true (!fired >= 200)

let () =
  Alcotest.run "explore"
    [
      ( "schedules",
        [
          Alcotest.test_case "exhaustive: concurrent writes" `Slow
            test_exhaustive_concurrent_writes;
          Alcotest.test_case "exhaustive: write-read race" `Slow
            test_exhaustive_write_read_race;
          Alcotest.test_case "exhaustive: staggered ops" `Slow
            test_exhaustive_staggered_ops;
          Alcotest.test_case "random schedules (2-of-4)" `Slow
            test_random_schedules_erasure;
          Alcotest.test_case "random schedules, dead data member" `Slow
            test_random_schedules_dead_member;
          Alcotest.test_case "random schedules, stale degraded target" `Slow
            test_random_schedules_stale_target;
        ] );
    ]
