(* Experiment F5 — the paper's Figure 5 scenario, executed.

   Replication-as-erasure-coding over three processes (m = 1, n = 3).
   write1(v') crashes after storing v' on a single process; read2 runs
   and returns v. The paper's point: once read2 returned v, no later
   read may return v' — a naive highest-timestamp read-back would do
   exactly that after process a recovers. We run the scenario against
   our implementation, record the history, and hand it to the
   strict-linearizability checker. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module H = Linearize.History
module Check = Linearize.Check
open Util

let block_size = 64

let blk s =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  b

let value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

let run () =
  section "F5 | Figure 5: partial writes never surface after a newer read";
  let cl = Cluster.create ~m:1 ~n:3 ~block_size () in
  let h = H.create () in
  let rt = cl.Cluster.runtime in
  let now () = Runtime.now rt in

  (* write0(v): a complete write so the register holds v. *)
  let id = H.invoke h ~client:0 ~kind:H.Write ~written:"v" ~now:(now ()) () in
  (match
     Cluster.run_op ~coord:0 cl (fun c ->
         Coordinator.write_stripe c ~stripe:0 [| blk "v" |])
   with
  | Some (Ok ()) -> H.complete_write h id ~now:(now ())
  | _ -> failwith "seed write failed");

  (* write1(v') from process a (brick 1): its Write-phase messages
     reach only itself, then it crashes. *)
  let w1 = H.invoke h ~client:1 ~kind:H.Write ~written:"v'" ~now:(now ()) () in
  Cluster.spawn ~coord:1 cl (fun c ->
      ignore (Coordinator.write_stripe c ~stripe:0 [| blk "v'" |]));
  ignore
    (Runtime.timer rt ~delay:1.5 (fun () ->
         Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:1 ~dst:0 true;
         Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:1 ~dst:2 true));
  let crash_at = ref 0. in
  ignore
    (Runtime.timer rt ~delay:4.5 (fun () ->
         crash_at := now ();
         Brick.crash cl.Cluster.bricks.(1)));
  Cluster.run ~horizon:20. cl;
  H.crash h w1 ~now:!crash_at;
  Printf.printf "  write1(v') crashed at t=%.1f having stored v' on 1 of 3 processes\n" !crash_at;

  (* read2 via process b (brick 0): must return v, rolling write1 back. *)
  let do_read name coord =
    let id = H.invoke h ~client:coord ~kind:H.Read ~now:(now ()) () in
    match
      Cluster.run_op ~coord cl (fun c ->
          Coordinator.with_retries c (fun () -> Coordinator.read_stripe c ~stripe:0))
    with
    | Some (Ok data) ->
        let v = value data.(0) in
        H.complete_read h id ~value:v ~now:(now ());
        Printf.printf "  %s returned %S\n" name v;
        v
    | _ ->
        H.abort h id ~now:(now ());
        Printf.printf "  %s aborted\n" name;
        "<aborted>"
  in
  let r2 = do_read "read2 (while a is down)" 0 in

  (* Process a recovers — in the naive protocol its higher-timestamped
     v' would now win. *)
  Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:1 ~dst:0 false;
  Simnet.Faultnet.set_link_down (Cluster.faultnet cl) ~src:1 ~dst:2 false;
  Brick.recover cl.Cluster.bricks.(1);
  Printf.printf "  process a recovered with its leftover v'\n";
  let r3 = do_read "read3 (after a recovered)" 2 in
  let r4 = do_read "read4 (coordinated by a itself)" 1 in

  let verdict =
    match Check.strict h with
    | Ok () -> "strictly linearizable"
    | Error v -> Format.asprintf "VIOLATION: %a" Check.pp_violation v
  in
  Printf.printf "\n  paper: read3 must return v even though v' has a higher timestamp\n";
  Printf.printf "  measured: read2=%S read3=%S read4=%S -> %s\n" r2 r3 r4 verdict;
  if r2 <> "v" || r3 <> "v" || r4 <> "v" then
    Printf.printf "  *** UNEXPECTED: the rolled-back value surfaced ***\n"
