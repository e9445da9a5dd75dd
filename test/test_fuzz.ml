(* Randomized strict-linearizability fuzzing.

   Each round builds a register cluster, unleashes several concurrent
   clients issuing block- and stripe-level reads and writes at random
   times, and injects brick crashes, recoveries and message loss. All
   operations are recorded into per-block histories; pending operations
   whose coordinator crashed are marked partial with their crash time.
   Every history must admit a conforming total order (Definition 5). *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module H = Linearize.History
module Check = Linearize.Check

let block_size = 64

(* Encode / decode values as block contents. *)
let value_block s =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) block_size);
  b

let block_value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

type op_record = {
  ids : (int * int) list;  (* (block index, history op id) *)
  stripe : int;
  coord : int;
  invoked_at : float;
  mutable done_ : bool;
}

(* [dead_member] rounds run a geometry with f = 2, crash one data
   member at the start and bring it back late, with no other crash or
   partition: block reads and block ranges over it take the
   re-targeted (degraded) read, and writes to it the slow path. A
   second member is down for a while early on, so it comes back stale
   and may be among a degraded read's targets. Returns the re-targeted
   read count. *)
let fuzz_round ?(dead_member = false) ~seed () =
  let rng = Random.State.make [| seed; 0xfab |] in
  let m, n =
    if dead_member then (if Random.State.bool rng then (2, 6) else (3, 7))
    else
      match Random.State.int rng 3 with
      | 0 -> (1, 3)
      | 1 -> (2, 4)
      | _ -> (3, 5)
  in
  let drop = [| 0.; 0.05; 0.15 |].(Random.State.int rng 3) in
  let jitter = [| 0.; 0.; 2.5 |].(Random.State.int rng 3) in
  (* A third of the rounds skew every coordinator's clock by up to
     20 delta either way: more aborts, but never inconsistency. *)
  let skews =
    if Random.State.int rng 3 = 0 then
      Some (Array.init n (fun _ -> Random.State.float rng 40. -. 20.))
    else None
  in
  let cl =
    Cluster.create ~seed ~m ~n ~block_size
      ~gc_enabled:(Random.State.bool rng)
      ~optimized_modify:(Random.State.bool rng)
      ~net_config:{ Simnet.Net.default_config with drop; jitter }
      ()
  in
  Option.iter
    (Array.iteri (fun pid skew ->
         Core.Clock.set_skew
           (Coordinator.clock cl.Cluster.coordinators.(pid))
           skew))
    skews;
  let rt = cl.Cluster.runtime in
  let stripes = 2 in
  let histories = Array.init (stripes * m) (fun _ -> H.create ()) in
  let hist ~stripe ~j = histories.((stripe * m) + j) in
  let ops : op_record list ref = ref [] in
  let crashes : (int * float) list ref = ref [] in
  let uid = ref 0 in


  let record_op ~coord ~stripe ~blocks ~kind ~values =
    let now = Runtime.now rt in
    let ids =
      List.map2
        (fun j v ->
          let id =
            match kind with
            | H.Write ->
                H.invoke (hist ~stripe ~j) ~client:coord ~kind ~written:v ~now ()
            | H.Read -> H.invoke (hist ~stripe ~j) ~client:coord ~kind ~now ()
          in
          (j, id))
        blocks values
    in
    let r = { ids; stripe; coord; invoked_at = now; done_ = false } in
    ops := r :: !ops;
    r
  in

  let finish_op ~stripe r outcome =
    let now = Runtime.now rt in
    r.done_ <- true;
    List.iter
      (fun (j, id) ->
        let h = hist ~stripe ~j in
        match outcome with
        | `Wrote -> H.complete_write h id ~now
        | `ReadValues values -> H.complete_read h id ~value:(List.assoc j values) ~now
        | `Aborted -> H.abort h id ~now)
      r.ids
  in

  let client coord =
    Runtime.spawn cl.Cluster.runtime (fun () ->
        let c = cl.Cluster.coordinators.(coord) in
        let ops_count = 4 + Random.State.int rng 5 in
        for _ = 1 to ops_count do
          Runtime.sleep cl.Cluster.runtime (Random.State.float rng 30.);
          let stripe = Random.State.int rng stripes in
          match Random.State.int rng 6 with
          | 0 ->
              (* stripe write *)
              incr uid;
              let values =
                List.init m (fun j -> Printf.sprintf "s%d.u%d.b%d" seed !uid j)
              in
              let data = Array.of_list (List.map value_block values) in
              let r =
                record_op ~coord ~stripe ~blocks:(List.init m Fun.id)
                  ~kind:H.Write ~values
              in
              (match Coordinator.write_stripe c ~stripe data with
              | Ok () -> finish_op ~stripe r `Wrote
              | Error _ -> finish_op ~stripe r `Aborted)
          | 1 ->
              (* stripe read *)
              let r =
                record_op ~coord ~stripe ~blocks:(List.init m Fun.id)
                  ~kind:H.Read
                  ~values:(List.init m (fun _ -> ""))
              in
              (match Coordinator.read_stripe c ~stripe with
              | Ok data ->
                  let values =
                    List.init m (fun j -> (j, block_value data.(j)))
                  in
                  finish_op ~stripe r (`ReadValues values)
              | Error _ -> finish_op ~stripe r `Aborted)
          | 2 ->
              (* block write *)
              incr uid;
              let j = Random.State.int rng m in
              let v = Printf.sprintf "s%d.u%d.b%d" seed !uid j in
              let r =
                record_op ~coord ~stripe ~blocks:[ j ] ~kind:H.Write
                  ~values:[ v ]
              in
              (match Coordinator.write_blocks c ~stripe j [| value_block v |] with
              | Ok () -> finish_op ~stripe r `Wrote
              | Error _ -> finish_op ~stripe r `Aborted)
          | 3 ->
              (* block read *)
              let j = Random.State.int rng m in
              let r =
                record_op ~coord ~stripe ~blocks:[ j ] ~kind:H.Read
                  ~values:[ "" ]
              in
              (match Coordinator.read_blocks c ~stripe j ~len:1 with
              | Ok bs -> finish_op ~stripe r (`ReadValues [ (j, block_value bs.(0)) ])
              | Error _ -> finish_op ~stripe r `Aborted)
          | 4 ->
              (* multi-block write over a random range *)
              incr uid;
              let j0 = Random.State.int rng m in
              let len = 1 + Random.State.int rng (m - j0) in
              let values =
                List.init len (fun i ->
                    Printf.sprintf "s%d.u%d.b%d" seed !uid (j0 + i))
              in
              let news = Array.of_list (List.map value_block values) in
              let r =
                record_op ~coord ~stripe
                  ~blocks:(List.init len (fun i -> j0 + i))
                  ~kind:H.Write ~values
              in
              (match Coordinator.write_blocks c ~stripe j0 news with
              | Ok () -> finish_op ~stripe r `Wrote
              | Error _ -> finish_op ~stripe r `Aborted)
          | _ ->
              (* multi-block read over a random range *)
              let j0 = Random.State.int rng m in
              let len = 1 + Random.State.int rng (m - j0) in
              let r =
                record_op ~coord ~stripe
                  ~blocks:(List.init len (fun i -> j0 + i))
                  ~kind:H.Read
                  ~values:(List.init len (fun _ -> ""))
              in
              (match Coordinator.read_blocks c ~stripe j0 ~len with
              | Ok blocks ->
                  let values =
                    List.init len (fun i -> (j0 + i, block_value blocks.(i)))
                  in
                  finish_op ~stripe r (`ReadValues values)
              | Error _ -> finish_op ~stripe r `Aborted)
        done)
  in

  (* Start clients on distinct coordinators. *)
  let nclients = 2 + Random.State.int rng 2 in
  for c = 0 to nclients - 1 do
    client (c mod n)
  done;

  if dead_member then begin
    let down ~at ~back b =
      ignore
        (Runtime.timer rt ~delay:at (fun () ->
             crashes := (b, Runtime.now rt) :: !crashes;
             Brick.crash cl.Cluster.bricks.(b)));
      ignore
        (Runtime.timer rt ~delay:back (fun () ->
             Brick.recover cl.Cluster.bricks.(b)))
    in
    let victim = Random.State.int rng m in
    down victim ~at:1. ~back:(100. +. Random.State.float rng 60.);
    down
      ((victim + 1 + Random.State.int rng (n - 1)) mod n)
      ~at:2. ~back:(20. +. Random.State.float rng 30.)
  end;

  (* Fault injection: a transient network partition. *)
  if (not dead_member) && Random.State.int rng 2 = 0 then begin
    let cut = 1 + Random.State.int rng (n - 1) in
    let members = List.init n Fun.id in
    let side = List.filteri (fun i _ -> i < cut) members in
    let at = Random.State.float rng 150. in
    ignore
      (Runtime.timer rt ~delay:at (fun () ->
           Simnet.Faultnet.partition (Cluster.faultnet cl) [ side ]));
    ignore
      (Runtime.timer rt ~delay:(at +. 30.) (fun () ->
           Simnet.Faultnet.heal (Cluster.faultnet cl)))
  end;

  (* Fault injection: random crash/recover pairs. *)
  let injections = if dead_member then 0 else Random.State.int rng 4 in
  for _ = 1 to injections do
    let victim = Random.State.int rng n in
    let at = Random.State.float rng 200. in
    let back = at +. 5. +. Random.State.float rng 60. in
    ignore
      (Runtime.timer rt ~delay:at (fun () ->
           if Brick.is_alive cl.Cluster.bricks.(victim) then begin
             crashes := (victim, Runtime.now rt) :: !crashes;
             Brick.crash cl.Cluster.bricks.(victim)
           end));
    ignore
      (Runtime.timer rt ~delay:back (fun () ->
           Brick.recover cl.Cluster.bricks.(victim)))
  done;

  Cluster.run ~horizon:5_000. cl;

  (* Mark pending operations of crashed coordinators as partial at the
     first crash after their invocation. *)
  List.iter
    (fun r ->
      if not r.done_ then begin
        let crash_time =
          List.fold_left
            (fun acc (b, t) ->
              if b = r.coord && t >= r.invoked_at then
                match acc with
                | None -> Some t
                | Some t' -> Some (Float.min t t')
              else acc)
            None !crashes
        in
        match crash_time with
        | Some t ->
            List.iter
              (fun (j, id) -> H.crash (hist ~stripe:r.stripe ~j) id ~now:t)
              r.ids
        | None -> ()
      end)
    !ops;

  (* Every per-block history must be strictly linearizable. *)
  Array.iteri
    (fun idx h ->
      match Check.strict h with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf
            "seed %d (m=%d n=%d drop=%.2f), block history %d: %a" seed m n
            drop idx Check.pp_violation v)
    histories;
  int_of_float (Metrics.Registry.value cl.Cluster.metrics "coord.retargets")

let test_fuzz_rounds () =
  for seed = 1 to 40 do
    ignore (fuzz_round ~seed ())
  done

let test_fuzz_more_faults () =
  for seed = 100 to 120 do
    ignore (fuzz_round ~seed ())
  done

let test_fuzz_dead_data_member () =
  let fired = ref 0 and rounds = ref 0 in
  for seed = 200 to 239 do
    let k = fuzz_round ~dead_member:true ~seed () in
    fired := !fired + k;
    if k > 0 then incr rounds
  done;
  Printf.printf "re-targeted reads: %d, in %d of 40 rounds\n" !fired !rounds;
  Alcotest.(check bool) "the re-targeted read fired in half the rounds" true
    (!rounds >= 20)

let () =
  Alcotest.run "fuzz"
    [
      ( "strict-linearizability",
        [
          Alcotest.test_case "randomized rounds" `Slow test_fuzz_rounds;
          Alcotest.test_case "more fault rounds" `Slow test_fuzz_more_faults;
          Alcotest.test_case "dead data member" `Slow test_fuzz_dead_data_member;
        ] );
    ]
