(* Randomized linearizability fuzzing of the pipelined volume path.

   Where test_fuzz drives single register instances through the
   coordinator API, this suite drives whole multi-stripe Volume
   requests with every protocol optimization enabled at once —
   scatter-gather pipelining (window 8) and the coordinator timestamp
   cache (order-phase elision) — under message loss, partitions and
   brick crash/recovery. Each
   logical block keeps its own history; every history must admit a
   conforming total order even though the optimizations reorder rounds
   and skip order phases.

   A second test pins down determinism: two runs from the same seed,
   with pipelining and the timestamp cache on, must emit byte-identical
   JSONL traces. This is what makes `explain` replay and the bench numbers
   trustworthy — the optimizations must not introduce any ordering
   decided by anything but the seeded simulation. *)

module H = Linearize.History
module Check = Linearize.Check
module V = Fab.Volume

let block_size = 64
let m = 2
let n = 4
let stripes = 6 (* 12 logical blocks *)

let value_block s =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) block_size);
  b

let block_value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

(* -- randomized rounds ------------------------------------------------ *)

let fuzz_round ~seed =
  let rng = Random.State.make [| seed; 0xF1BE |] in
  let drop = [| 0.; 0.05; 0.1 |].(Random.State.int rng 3) in
  let jitter = [| 0.; 0.; 2.5 |].(Random.State.int rng 3) in
  let v =
    V.create ~seed ~m ~n ~stripes ~block_size
      ~pipeline_window:8
      ~net_config:{ Simnet.Net.default_config with drop; jitter }
      ()
  in
  let cl = V.cluster v in
  let rt = cl.Core.Cluster.runtime in
  let capacity = V.capacity_blocks v in
  let histories = Array.init capacity (fun _ -> H.create ()) in
  let uid = ref 0 in


  (* Clients run on coordinators 0 and 1 only; fault injection is
     restricted to bricks 2..n-1, so no client operation is ever
     orphaned by a coordinator crash (test_fuzz covers that path). *)
  let client coord =
    Runtime.spawn cl.Core.Cluster.runtime (fun () ->
        let ops = 5 + Random.State.int rng 4 in
        for _ = 1 to ops do
          Runtime.sleep cl.Core.Cluster.runtime (Random.State.float rng 40.);
          let count = 1 + Random.State.int rng 8 in
          let lba = Random.State.int rng (capacity - count + 1) in
          if Random.State.bool rng then begin
            (* multi-stripe write: one unique value per block *)
            incr uid;
            let values =
              List.init count (fun i ->
                  Printf.sprintf "s%d.u%d.l%d" seed !uid (lba + i))
            in
            let payload = Bytes.create (count * block_size) in
            List.iteri
              (fun i s ->
                Bytes.blit (value_block s) 0 payload (i * block_size)
                  block_size)
              values;
            let now = Runtime.now rt in
            let ids =
              List.mapi
                (fun i s ->
                  H.invoke histories.(lba + i) ~client:coord ~kind:H.Write
                    ~written:s ~now ())
                values
            in
            let outcome = V.write v ~coord ~lba payload in
            let now = Runtime.now rt in
            List.iteri
              (fun i id ->
                match outcome with
                | Ok () -> H.complete_write histories.(lba + i) id ~now
                | Error _ -> H.abort histories.(lba + i) id ~now)
              ids
          end
          else begin
            (* multi-stripe read *)
            let now = Runtime.now rt in
            let ids =
              List.init count (fun i ->
                  H.invoke histories.(lba + i) ~client:coord ~kind:H.Read
                    ~now ())
            in
            let outcome = V.read v ~coord ~lba ~count in
            let now = Runtime.now rt in
            List.iteri
              (fun i id ->
                match outcome with
                | Ok data ->
                    let b = Bytes.sub data (i * block_size) block_size in
                    H.complete_read histories.(lba + i) id
                      ~value:(block_value b) ~now
                | Error _ -> H.abort histories.(lba + i) id ~now)
              ids
          end
        done)
  in
  let nclients = 2 + Random.State.int rng 2 in
  for c = 0 to nclients - 1 do
    client (c mod 2)
  done;

  (* Transient partition (heals), as in test_fuzz. *)
  if Random.State.int rng 2 = 0 then begin
    let cut = 1 + Random.State.int rng (n - 1) in
    let members = List.init n Fun.id in
    let side = List.filteri (fun i _ -> i < cut) members in
    let at = Random.State.float rng 150. in
    ignore
      (Runtime.timer rt ~delay:at (fun () ->
           Simnet.Faultnet.partition (Core.Cluster.faultnet cl) [ side ]));
    ignore
      (Runtime.timer rt ~delay:(at +. 30.) (fun () ->
           Simnet.Faultnet.heal (Core.Cluster.faultnet cl)))
  end;

  (* Crash/recover non-coordinator bricks; the crash hook resets the
     victim's coordinator timestamp cache, so post-recovery traffic
     re-runs cold order rounds — exactly the invalidation path the
     elision proof leans on. *)
  let injections = Random.State.int rng 3 in
  for _ = 1 to injections do
    let victim = 2 + Random.State.int rng (n - 2) in
    let at = Random.State.float rng 250. in
    let back = at +. 5. +. Random.State.float rng 60. in
    ignore
      (Runtime.timer rt ~delay:at (fun () ->
           if Brick.is_alive cl.Core.Cluster.bricks.(victim) then
             Brick.crash cl.Core.Cluster.bricks.(victim)));
    ignore
      (Runtime.timer rt ~delay:back (fun () ->
           Brick.recover cl.Core.Cluster.bricks.(victim)))
  done;

  V.run ~horizon:5_000. v;

  Array.iteri
    (fun lba h ->
      match Check.strict h with
      | Ok () -> ()
      | Error viol ->
          Alcotest.failf "seed %d (drop=%.2f jitter=%.1f), lba %d: %a" seed
            drop jitter lba Check.pp_violation viol)
    histories

let test_pipelined_rounds () =
  for seed = 1 to 25 do
    fuzz_round ~seed
  done

let test_pipelined_more_faults () =
  for seed = 200 to 212 do
    fuzz_round ~seed
  done

(* -- determinism ------------------------------------------------------ *)

(* One fixed workload: two clients, interleaved multi-stripe reads and
   writes over a lossy network, all optimizations on. Returns the full
   JSONL trace (no meta header — it carries a wall-clock date). *)
let jsonl_trace ~seed =
  let buf = Buffer.create (1 lsl 16) in
  let v =
    V.create ~seed ~m ~n ~stripes ~block_size
      ~pipeline_window:8
      ~net_config:{ Simnet.Net.default_config with drop = 0.05 }
      ()
  in
  let cl = V.cluster v in
  Obs.add_sink cl.Core.Cluster.obs
    (Obs.Sink.make (fun ev ->
         Buffer.add_string buf (Obs.to_json ev);
         Buffer.add_char buf '\n'));
  let rng = Random.State.make [| seed; 0xDE7 |] in
  for c = 0 to 1 do
    Runtime.spawn cl.Core.Cluster.runtime (fun () ->
        for k = 1 to 6 do
          Runtime.sleep cl.Core.Cluster.runtime (Random.State.float rng 25.);
          let count = 1 + Random.State.int rng 8 in
          let lba = Random.State.int rng (V.capacity_blocks v - count + 1) in
          if (c + k) mod 2 = 0 then
            ignore
              (V.write v ~coord:c ~lba
                 (Bytes.make (count * block_size) (Char.chr (65 + k))))
          else ignore (V.read v ~coord:c ~lba ~count)
        done)
  done;
  V.run ~horizon:5_000. v;
  Buffer.contents buf

let test_same_seed_same_trace () =
  let a = jsonl_trace ~seed:11 in
  let b = jsonl_trace ~seed:11 in
  Alcotest.(check bool)
    "trace is non-trivial (pipelined workload emitted events)" true
    (String.length a > 1000);
  Alcotest.(check bool) "same seed, byte-identical JSONL" true
    (String.equal a b)

let () =
  Alcotest.run "pipeline"
    [
      ( "strict-linearizability",
        [
          Alcotest.test_case "pipelined randomized rounds" `Slow
            test_pipelined_rounds;
          Alcotest.test_case "pipelined fault rounds" `Slow
            test_pipelined_more_faults;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed, identical JSONL" `Quick
            test_same_seed_same_trace;
        ] );
    ]
