(* Failure and recovery walk-through: the scenarios that motivate the
   paper's design, narrated step by step.

   Run with:  dune exec examples/failure_recovery.exe

   1. A coordinator crashes mid-write leaving a partial write; the
      next read decides its fate (roll back below m, roll forward at
      or above m) and later reads stick with that decision — strict
      linearizability in action.
   2. A brick dies, misses writes, recovers, and is re-synchronized
      with the rebuild tool.
   3. A network partition stalls the minority side without ever
      compromising safety. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator

let block_size = 256
let say fmt = Printf.printf fmt

let stripe_of tag m =
  Array.init m (fun i -> Bytes.make block_size (Char.chr (Char.code tag + i)))

let show_read cl ~coord ~stripe label =
  match
    Cluster.run_op ~coord cl (fun c ->
        Coordinator.with_retries c (fun () -> Coordinator.read_stripe c ~stripe))
  with
  | Some (Ok data) ->
      say "  %s -> stripe starts with %C\n" label (Bytes.get data.(0) 0);
      Some data
  | Some (Error _) ->
      say "  %s -> aborted\n" label;
      None
  | None ->
      say "  %s -> no result (stalled)\n" label;
      None

(* Crash a write coordinator while its Write-phase messages can reach
   only [reach] bricks. *)
let partial_write cl ~doomed ~reach data =
  let n = Array.length cl.Cluster.bricks in
  Cluster.spawn ~coord:doomed cl (fun c ->
      ignore (Coordinator.write_stripe c ~stripe:0 data));
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
  Cluster.run ~horizon:50. cl

let scenario_partial_writes () =
  say "--- 1. partial writes: roll-back vs roll-forward (3-of-5 code) ---\n";
  let cl = Cluster.create ~m:3 ~n:5 ~block_size () in
  (match
     Cluster.run_op cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 (stripe_of 'A' 3))
   with
  | Some (Ok ()) -> say "  wrote version 'A' normally\n"
  | _ -> failwith "seed write");

  say "  coordinator 4 starts writing 'X' but crashes: blocks reach 1 brick (< m = 3)\n";
  partial_write cl ~doomed:4 ~reach:[ 0 ] (stripe_of 'X' 3);
  ignore (show_read cl ~coord:1 ~stripe:0 "read after the crash");
  ignore (show_read cl ~coord:4 ~stripe:0 "read via the recovered coordinator");
  say "  => the partial 'X' was rolled back; it can never appear now\n\n";

  say "  coordinator 3 starts writing 'Q' and crashes: blocks reach 3 bricks (= m)\n";
  partial_write cl ~doomed:3 ~reach:[ 0; 1; 2 ] (stripe_of 'Q' 3);
  ignore (show_read cl ~coord:2 ~stripe:0 "read after the crash");
  ignore (show_read cl ~coord:0 ~stripe:0 "read again");
  say "  => enough blocks survived, so the read rolled 'Q' forward; it sticks\n\n"

let scenario_brick_rebuild () =
  say "--- 2. brick death, recovery and rebuild (5-of-8 volume) ---\n";
  let v = Fab.Volume.create ~m:5 ~n:8 ~stripes:12 ~block_size () in
  let payload tag = Bytes.make (5 * block_size) tag in
  for s = 0 to 11 do
    match
      Fab.Volume.run_op v (fun () ->
          Fab.Volume.write v ~coord:0 ~lba:(s * 5) (payload 'a'))
    with
    | Some (Ok ()) -> ()
    | _ -> failwith "fill"
  done;
  say "  filled 12 stripes with 'a'\n";
  let bricks = (Fab.Volume.cluster v).Core.Cluster.bricks in
  Brick.crash bricks.(6);
  say "  brick 6 crashed\n";
  for s = 0 to 5 do
    match
      Fab.Volume.run_op v (fun () ->
          Fab.Volume.write v ~coord:1 ~lba:(s * 5) (payload 'b'))
    with
    | Some (Ok ()) -> ()
    | _ -> failwith "degraded write"
  done;
  say "  overwrote stripes 0-5 with 'b' while brick 6 was down\n";
  Brick.recover bricks.(6);
  say "  brick 6 recovered; its log still holds the old versions\n";
  (match Fab.Volume.run_op v (fun () -> Fab.Volume.rebuild_brick v ~brick:6 ~coord:2) with
  | Some (Ok n) -> say "  rebuild touched %d stripes\n" n
  | _ -> failwith "rebuild");
  (match
     Fab.Volume.run_op v (fun () -> Fab.Volume.read v ~coord:6 ~lba:0 ~count:5)
   with
  | Some (Ok b) ->
      say "  read via brick 6 after rebuild: stripe 0 starts with %C\n\n"
        (Bytes.get b 0)
  | _ -> failwith "read after rebuild")

let scenario_partition () =
  say "--- 3. network partition: minority stalls, majority proceeds ---\n";
  let cl = Cluster.create ~m:3 ~n:5 ~block_size () in
  (match
     Cluster.run_op cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 (stripe_of 'A' 3))
   with
  | Some (Ok ()) -> say "  wrote 'A' before the partition\n"
  | _ -> failwith "seed");
  Simnet.Faultnet.partition (Cluster.faultnet cl) [ [ 0; 1; 2; 3 ]; [ 4 ] ];
  say "  partitioned: {0,1,2,3} | {4}  (quorum size is 4)\n";
  ignore (show_read cl ~coord:1 ~stripe:0 "read from the majority side");
  (match
     Cluster.run_op ~coord:4 ~horizon:200. cl (fun c ->
         Coordinator.read_stripe c ~stripe:0)
   with
  | None -> say "  read from the isolated brick 4 -> stalls (no quorum), as it must\n"
  | Some _ -> say "  unexpected completion on minority side!\n");
  Simnet.Faultnet.heal (Cluster.faultnet cl);
  say "  partition healed\n";
  ignore (show_read cl ~coord:4 ~stripe:0 "read via brick 4 after healing");
  say "\n"

let () =
  scenario_partial_writes ();
  scenario_brick_rebuild ();
  scenario_partition ();
  say "done.\n"
