(* Observability-layer tests.

   Unit tests cover JSONL wire-format round-trips and
   the span well-formedness checker; a deterministic two-writer
   scenario pins the Retry outcome attribution; and a randomized
   property (reusing the fuzz harness recipe: concurrent clients,
   message loss, brick crash/recovery) asserts that every op id opens
   and closes exactly one span, phases nest without overlap, and the
   event stream reconstructs the same message/disk totals as the
   Metrics counters that EXPERIMENTS.md's Table 1 relies on. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator

let block_size = 64

let event_t =
  Alcotest.testable Obs.pp_event (fun (a : Obs.event) b -> a = b)

(* An in-memory sink that keeps every event, oldest first. *)
let collector () =
  let evs = ref [] in
  ( Obs.Sink.serialized (Obs.Sink.make (fun ev -> evs := ev :: !evs)),
    fun () -> List.rev !evs )

(* ------------------------------------------------------------------ *)
(* JSONL wire format                                                   *)
(* ------------------------------------------------------------------ *)

(* One event per kind, exercising every actor and outcome. *)
let sample_events =
  let open Obs in
  [
    { time = 0.5; actor = Coord 1; op = 3; phase = None;
      kind = Span_start { op_kind = "read-stripe"; stripe = 2 } };
    { time = 1.5; actor = Coord 1; op = 3; phase = Some Fast_read;
      kind = Phase_start };
    { time = 2.5; actor = Brick 0; op = 3; phase = Some Fast_read;
      kind = Msg_send { dst = 2; bytes = 96; label = "read"; bg = false } };
    { time = 2.5; actor = Brick 2; op = 3; phase = Some Fast_read;
      kind = Msg_recv { src = 0; label = "read" } };
    { time = 2.75; actor = Brick 2; op = 9; phase = Some Gc;
      kind = Msg_drop { dst = 1; bytes = 32; bg = true } };
    { time = 3.; actor = Brick 2; op = 3; phase = Some Order;
      kind = Io_read { blocks = 2 } };
    { time = 3.; actor = Brick 2; op = 3; phase = Some Modify;
      kind = Io_write { blocks = 1 } };
    { time = 3.5; actor = Coord 1; op = 3; phase = Some Recover;
      kind = Timeout { missing = 2; attempt = 1 } };
    { time = 3.75; actor = Coord 1; op = 3; phase = None;
      kind = Retarget { suspect = 4 } };
    { time = 4.; actor = Coord 1; op = 3; phase = Some Write;
      kind = Phase_end };
    { time = 4.5; actor = Sim; op = -1; phase = None;
      kind = Queue_depth { depth = 7 } };
    { time = 5.; actor = Coord 1; op = 3; phase = None;
      kind = Span_end { op_kind = "read-stripe"; stripe = 2; outcome = Ok } };
    { time = 6.; actor = Coord 0; op = 4; phase = None;
      kind = Span_end { op_kind = "write-block"; stripe = 0; outcome = Abort } };
    { time = 7.; actor = Coord 0; op = 5; phase = None;
      kind = Span_end { op_kind = "write-block"; stripe = 0; outcome = Retry } };
  ]

let test_json_roundtrip () =
  List.iter
    (fun ev ->
      match Obs.of_json (Obs.to_json ev) with
      | `Event ev' -> Alcotest.check event_t "round-trip" ev ev'
      | `Meta _ -> Alcotest.fail "parsed as meta"
      | `Error e -> Alcotest.failf "parse error: %s" e)
    sample_events

let test_json_meta_and_errors () =
  let meta = [ ("tool", Obs.Json.S "test"); ("seed", Obs.Json.I 42) ] in
  (match Obs.of_json (Obs.Meta.line meta) with
  | `Meta kvs ->
      Alcotest.(check bool) "tool" true
        (List.assoc_opt "tool" kvs = Some (Obs.Json.S "test"));
      Alcotest.(check bool) "seed" true
        (List.assoc_opt "seed" kvs = Some (Obs.Json.I 42))
  | _ -> Alcotest.fail "meta line did not parse as meta");
  (match Obs.of_json "{\"ev\": \"no-such-event\", \"t\": 1.0}" with
  | `Error _ -> ()
  | _ -> Alcotest.fail "unknown event kind accepted");
  match Obs.of_json "not json at all" with
  | `Error _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

(* ------------------------------------------------------------------ *)
(* The JSON codec                                                      *)
(* ------------------------------------------------------------------ *)

(* Strings lean on the bytes the escaper must handle: quotes,
   backslashes, control bytes and bytes >= 128. *)
let json_string =
  QCheck.Gen.(
    string_size ~gen:(oneof [ char; oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\001'; '\031'; '/' ] ])
      (0 -- 8))

(* Floats that survive the [%.12g] format: negative, tiny and huge
   exponents, and integral values on both sides of the 1e15 switch. *)
let json_float =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun m e -> float_of_string (Printf.sprintf "%.12g" (m *. (10. ** float_of_int e))))
          (float_range (-10.) 10.) (int_range (-40) 40);
        map float_of_int small_signed_int;
        map (fun e -> -.(10. ** float_of_int e)) (int_range 10 20);
      ])

let json_gen =
  let open QCheck.Gen in
  let open Obs.Json in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun s -> S s) json_string;
               map (fun i -> I i) int;
               map (fun f -> F f) json_float;
               map (fun b -> B b) bool;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> A l) (list_size (0 -- 4) (self (n / 4))));
               ( 1,
                 map (fun l -> O l)
                   (list_size (0 -- 4) (pair json_string (self (n / 4)))) );
             ])

let test_json_codec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"parse (render v) = v"
       (QCheck.make ~print:Obs.Json.render json_gen)
       (fun v -> Obs.Json.parse (Obs.Json.render v) = v))

(* The number format is part of the wire format: vdbench's stdout and
   every BENCH file depend on it. *)
let test_json_number_format () =
  let open Obs.Json in
  List.iter
    (fun (want, v) -> Alcotest.(check string) want want (render v))
    [
      ("3.0", F 3.);
      ("-2.0", F (-2.));
      ("0.0", F 0.);
      ("1e+15", F 1e15);
      ("0.5", F 0.5);
      ("-0.125", F (-0.125));
      ("1e-07", F 1e-7);
      ("0.333333333333", F (1. /. 3.));
      ("123456.789", F 123456.789);
      ("3", I 3);
      ("-7", I (-7));
      ("true", B true);
      ({|"a\"b\\\n\t\u0001"|}, S "a\"b\\\n\t\001");
      ({|{"k":1,"l":[],"o":{},"a":[1.5,"x"]}|},
       O [ ("k", I 1); ("l", A []); ("o", O []); ("a", A [ F 1.5; S "x" ]) ]);
    ];
  Alcotest.(check string) "obj = render (O ...)"
    (render (O [ ("x", B false) ]))
    (obj [ ("x", B false) ])

let test_json_to_file () =
  let open Obs.Json in
  let doc =
    O
      [
        ("meta", O [ ("seed", I 9) ]);
        ("rows", A [ O [ ("w", I 0) ]; O [] ]);
        ("empty", O []);
      ]
  in
  let path = Filename.temp_file "obs_json" ".json" in
  to_file path doc;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "layout"
    "{\n\
    \  \"meta\": {\n\
    \    \"seed\": 9\n\
    \  },\n\
    \  \"rows\": [{\n\
    \    \"w\": 0\n\
    \  }, {}],\n\
    \  \"empty\": {}\n\
     }\n"
    text;
  Alcotest.(check bool) "parses back" true (parse text = doc)

let test_json_rejects () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | v -> Alcotest.failf "accepted %S as %s" input (Obs.Json.render v)
      | exception Obs.Json.Error _ -> ())
    [
      "{} x";
      "{}}";
      "1 2";
      {|"abc|};
      {|{"a":"b|};
      "tru";
      "fals";
      "null";
      {|{"a":null}|};
      "[1,]";
      {|{"a" 1}|};
      "[1 2]";
      "";
      "-";
    ]

let test_json_nested_event () =
  List.iter
    (fun line ->
      match Obs.of_json line with
      | `Error _ -> ()
      | _ -> Alcotest.failf "nested event line accepted: %s" line)
    [
      {|{"t":1.0,"actor":"c0","ev":"msg_recv","src":1,"msg":{"x":1}}|};
      {|{"t":1.0,"actor":"c0","ev":"msg_recv","src":[1],"msg":"read"}|};
      {|{"ev":"meta","git":{"sha":"x"}}|};
      {|["t",1.0]|};
    ]

(* ------------------------------------------------------------------ *)
(* Well-formedness checker                                             *)
(* ------------------------------------------------------------------ *)

let span ?(op = 1) ?(t0 = 0.) events =
  let open Obs in
  let mk time phase kind = { time; actor = Coord 0; op; phase; kind } in
  mk t0 None (Span_start { op_kind = "op"; stripe = 0 })
  :: (events |> List.map (fun (dt, phase, kind) -> mk (t0 +. dt) phase kind))
  @ [ mk (t0 +. 10.) None
        (Span_end { op_kind = "op"; stripe = 0; outcome = Ok }) ]

let test_well_formed () =
  let open Obs in
  let ok =
    span
      [
        (1., Some Order, Phase_start);
        (2., Some Order, Phase_end);
        (3., Some Write, Phase_start);
        (4., Some Write, Phase_end);
      ]
  in
  Alcotest.(check (list string)) "clean span" [] (Check.well_formed ok);
  (* Unattributed events are ignored. *)
  let unattributed =
    { time = 0.; actor = Sim; op = -1; phase = None;
      kind = Queue_depth { depth = 0 } }
  in
  Alcotest.(check (list string)) "op -1 ignored" []
    (Check.well_formed (unattributed :: ok));
  let dup = span [] @ span [] in
  Alcotest.(check bool) "duplicate span flagged" true
    (Check.well_formed dup <> []);
  let overlap =
    span
      [
        (1., Some Order, Phase_start);
        (2., Some Write, Phase_start);
        (3., Some Write, Phase_end);
        (4., Some Order, Phase_end);
      ]
  in
  Alcotest.(check bool) "overlapping phases flagged" true
    (Check.well_formed overlap <> []);
  let dangling =
    [
      {
        time = 0.; actor = Coord 0; op = 7; phase = None;
        kind = Span_end { op_kind = "op"; stripe = 0; outcome = Abort };
      };
    ]
  in
  Alcotest.(check bool) "end without start flagged" true
    (Check.well_formed dangling <> [])

(* ------------------------------------------------------------------ *)
(* Retry outcome attribution                                           *)
(* ------------------------------------------------------------------ *)

(* Two writers race on the same stripe: the loser's attempt aborts on
   the timestamp conflict and with_retries re-runs it, so its first
   span must end with outcome Retry (not Abort) and its last with Ok. *)
(* Degraded reads on rs 5-of-8 with brick 4 down: the trace names brick
   4 on every re-targeted read, survives the JSONL round trip, and the
   replayed statistics charge each such read one extra round (2 delta,
   the re-targeted Read) from the re-target to its end. *)
let test_retarget_attribution () =
  let cl = Cluster.create ~m:5 ~n:8 ~block_size () in
  let data = Array.init 5 (fun i -> Bytes.make block_size (Char.chr (65 + i))) in
  (match Cluster.run_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 data) with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "prefill");
  Cluster.crash cl 4;
  let sink, contents = collector () in
  Obs.add_sink cl.Cluster.obs sink;
  for _ = 1 to 3 do
    match Cluster.run_op cl (fun c -> Coordinator.read_blocks c ~stripe:0 4 ~len:1) with
    | Some (Ok [| b |]) -> Alcotest.(check bool) "value" true (Bytes.equal b data.(4))
    | _ -> Alcotest.fail "degraded read"
  done;
  let events =
    List.map
      (fun ev ->
        match Obs.of_json (Obs.to_json ev) with
        | `Event ev' -> ev'
        | _ -> Alcotest.fail "round trip")
      (contents ())
  in
  Alcotest.(check (list string)) "well-formed" [] (Obs.Check.well_formed events);
  let stats = Obs.Stats.create () in
  List.iter (Obs.Stats.feed stats) events;
  Alcotest.(check (list (pair int (pair string (pair int (float 1e-9))))))
    "per suspected brick and op kind"
    [ (4, ("read-blocks", (3, 2.))) ]
    (List.map
       (fun (b, k, n, mean) -> (b, (k, (n, mean))))
       (Obs.Stats.retargets stats))

let test_retry_outcome () =
  let cl = Cluster.create ~seed:7 ~m:2 ~n:4 ~block_size () in
  let sink, contents = collector () in
  Obs.add_sink cl.Cluster.obs sink;
  let oks = ref 0 in
  for coord = 0 to 1 do
    Cluster.spawn ~coord cl (fun c ->
        let data =
          Array.init 2 (fun i ->
              Bytes.make block_size (Char.chr (65 + (2 * coord) + i)))
        in
        match
          Coordinator.with_retries ~attempts:3 c (fun () ->
              Coordinator.write_stripe c ~stripe:0 data)
        with
        | Ok () -> incr oks
        | Error _ -> ())
  done;
  Cluster.run cl;
  Alcotest.(check int) "both writers succeed" 2 !oks;
  let events = contents () in
  Alcotest.(check (list string)) "well-formed" []
    (Obs.Check.well_formed events);
  let count outcome =
    List.length
      (List.filter
         (fun ev ->
           match ev.Obs.kind with
           | Obs.Span_end { outcome = o; _ } -> o = outcome
           | _ -> false)
         events)
  in
  Alcotest.(check bool) "a losing attempt ended Retry" true
    (count Obs.Retry >= 1);
  Alcotest.(check int) "no final Abort" 0 (count Obs.Abort);
  Alcotest.(check int) "two spans ended Ok" 2 (count Obs.Ok)

(* ------------------------------------------------------------------ *)
(* Randomized property                                                 *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable send_fg : int;
  mutable send_bg : int;
  mutable bytes_fg : int;
  mutable bytes_bg : int;
  mutable drops : int;
  mutable recvs : int;
  mutable timeouts : int;
  mutable io_reads : int;
  mutable io_writes : int;
  mutable ends : int;
  mutable ok : int;
  mutable abort : int;
  mutable retry : int;
}

let tally events =
  let t =
    {
      send_fg = 0; send_bg = 0; bytes_fg = 0; bytes_bg = 0; drops = 0;
      recvs = 0; timeouts = 0; io_reads = 0; io_writes = 0; ends = 0;
      ok = 0; abort = 0; retry = 0;
    }
  in
  List.iter
    (fun ev ->
      match ev.Obs.kind with
      | Obs.Msg_send { bytes; bg = false; _ } ->
          t.send_fg <- t.send_fg + 1;
          t.bytes_fg <- t.bytes_fg + bytes
      | Obs.Msg_send { bytes; bg = true; _ } ->
          t.send_bg <- t.send_bg + 1;
          t.bytes_bg <- t.bytes_bg + bytes
      | Obs.Msg_drop _ -> t.drops <- t.drops + 1
      | Obs.Msg_recv _ -> t.recvs <- t.recvs + 1
      | Obs.Timeout _ -> t.timeouts <- t.timeouts + 1
      | Obs.Io_read { blocks } -> t.io_reads <- t.io_reads + blocks
      | Obs.Io_write { blocks } -> t.io_writes <- t.io_writes + blocks
      | Obs.Span_end { outcome; _ } -> (
          t.ends <- t.ends + 1;
          match outcome with
          | Obs.Ok -> t.ok <- t.ok + 1
          | Obs.Abort -> t.abort <- t.abort + 1
          | Obs.Retry -> t.retry <- t.retry + 1
          | Obs.Unavailable -> ())
      | _ -> ())
    events;
  t

(* The event stream and the Metrics counters are two accounting paths
   over one run: spans must be well-formed, and the events must
   reconstruct the counters' message, byte, drop, retry and disk
   totals. *)
let check_accounting ~label cl events stats =
  (* Spans: exactly one start/end per op id, phases nest, time-ordered. *)
  (match Obs.Check.well_formed events with
  | [] -> ()
  | violations ->
      Alcotest.failf "%s: %s" label (String.concat "; " violations));
  Alcotest.(check int)
    (label ^ ": no unfinished spans")
    0 (Obs.Stats.unfinished stats);

  (* Event stream vs Metrics counters: the two accounting paths must
     reconstruct the same totals. *)
  let t = tally events in
  let metric name = int_of_float (Metrics.Registry.value cl.Cluster.metrics name) in
  let check name expected actual =
    Alcotest.(check int) (label ^ ": " ^ name) expected actual
  in
  check "net.msgs" (metric "net.msgs") t.send_fg;
  check "net.msgs.bg" (metric "net.msgs.bg") t.send_bg;
  check "net.bytes" (metric "net.bytes") t.bytes_fg;
  check "net.bytes.bg" (metric "net.bytes.bg") t.bytes_bg;
  check "net.drops" (metric "net.drops") t.drops;
  check "rpc.retries" (metric "rpc.retries") t.timeouts;
  check "disk.reads" (metric "disk.reads") t.io_reads;
  check "disk.writes" (metric "disk.writes") t.io_writes;
  (* Quiescent deployment: every undropped message was delivered. *)
  check "delivered = sent - dropped" (t.send_fg + t.send_bg - t.drops) t.recvs;

  (* The Stats aggregator and the raw stream agree on outcomes. *)
  let reg = Metrics.Registry.create () in
  Obs.Stats.materialize stats reg;
  check "obs.ops" t.ends (int_of_float (Metrics.Registry.value reg "obs.ops"));
  check "obs.aborts" t.abort
    (int_of_float (Metrics.Registry.value reg "obs.aborts"));
  check "obs.retries" t.retry
    (int_of_float (Metrics.Registry.value reg "obs.retries"));
  check "outcomes partition span ends" t.ends (t.ok + t.abort + t.retry);
  (* Every completed op lands in exactly one per-kind latency
     histogram, and the phases get histograms of their own. *)
  let names = Metrics.Registry.hist_names reg in
  let with_affixes pre suf =
    List.filter
      (fun n ->
        String.starts_with ~prefix:pre n && String.ends_with ~suffix:suf n)
      names
  in
  check "op latency histograms sum to obs.ops" t.ends
    (List.fold_left
       (fun acc n ->
         acc + Metrics.Hist.count (Option.get (Metrics.Registry.hist_opt reg n)))
       0
       (with_affixes "op." ".latency"));
  Alcotest.(check bool)
    (label ^ ": phase latency histograms")
    true
    (t.ends = 0 || with_affixes "phase." ".latency" <> []);
  t

let obs_round ~seed =
  let rng = Random.State.make [| seed; 0x0b5 |] in
  let m, n =
    match Random.State.int rng 3 with
    | 0 -> (1, 3)
    | 1 -> (2, 4)
    | _ -> (3, 5)
  in
  let drop = [| 0.; 0.05; 0.15 |].(Random.State.int rng 3) in
  let cl =
    Cluster.create ~seed ~m ~n ~block_size
      ~gc_enabled:(Random.State.bool rng)
      ~optimized_modify:(Random.State.bool rng)
      ~net_config:{ Simnet.Net.default_config with drop }
      ()
  in
  let rt = cl.Cluster.runtime in
  let sink, contents = collector () in
  let stats = Obs.Stats.create () in
  Obs.add_sink cl.Cluster.obs sink;
  Obs.add_sink cl.Cluster.obs (Obs.Stats.sink stats);


  let nclients = 2 in
  let finished = ref 0 in
  for coord = 0 to nclients - 1 do
    Cluster.spawn ~coord cl (fun c ->
        let ops_count = 3 + Random.State.int rng 4 in
        for _ = 1 to ops_count do
          Runtime.sleep cl.Cluster.runtime (Random.State.float rng 25.);
          let stripe = Random.State.int rng 2 in
          let attempt f = ignore (Coordinator.with_retries ~attempts:3 c f) in
          match Random.State.int rng 4 with
          | 0 ->
              let data =
                Array.init m (fun i ->
                    Bytes.make block_size (Char.chr (33 + ((seed + i) mod 90))))
              in
              attempt (fun () -> Coordinator.write_stripe c ~stripe data)
          | 1 -> attempt (fun () -> Coordinator.read_stripe c ~stripe)
          | 2 ->
              let j = Random.State.int rng m in
              attempt (fun () ->
                  Coordinator.write_blocks c ~stripe j
                    [| Bytes.make block_size 'w' |])
          | _ ->
              let j = Random.State.int rng m in
              attempt (fun () -> Coordinator.read_blocks c ~stripe j ~len:1)
        done;
        incr finished)
  done;

  (* Crash/recover one brick that is never a coordinator, so every
     client fiber (and thus every span) runs to completion; quorums
     survive a single failure in all three geometries. *)
  if n > nclients && Random.State.bool rng then begin
    let victim = nclients + Random.State.int rng (n - nclients) in
    let at = Random.State.float rng 80. in
    ignore
      (Runtime.timer rt ~delay:at (fun () ->
           Brick.crash cl.Cluster.bricks.(victim)));
    ignore
      (Runtime.timer rt ~delay:(at +. 30.) (fun () ->
           Brick.recover cl.Cluster.bricks.(victim)))
  end;

  Cluster.run ~horizon:50_000. cl;
  Alcotest.(check int)
    (Printf.sprintf "seed %d: all clients finished" seed)
    nclients !finished;
  check_accounting ~label:(Printf.sprintf "seed %d" seed) cl
    (contents ()) stats

let test_property_rounds () =
  let grand = ref 0 in
  for seed = 1 to 15 do
    let t = obs_round ~seed in
    grand := !grand + t.ends
  done;
  Alcotest.(check bool) "spans observed across rounds" true (!grand > 50)

(* The same cross-check on the multicore backend: two domains, two
   clients, no faults. Both backends count and trace a message in one
   place, so the mc event stream must reproduce the counters too. The
   receive loops deliver the last replies and GC notices after the
   clients finish; wait for those before the loops shut down. *)
let test_mc_accounting () =
  let m = 2 and n = 4 in
  let cl =
    Cluster.create ~backend:(Mc { domains = 2 }) ~m ~n ~block_size
      ~deadline:10. ()
  in
  let sink, contents = collector () in
  let stats = Obs.Stats.create () in
  Obs.add_sink cl.Cluster.obs sink;
  Obs.add_sink cl.Cluster.obs (Obs.Sink.serialized (Obs.Stats.sink stats));
  for coord = 0 to 1 do
    Cluster.spawn ~coord cl (fun c ->
        for k = 1 to 12 do
          let stripe = (coord + k) mod 2 in
          let attempt f = ignore (Coordinator.with_retries ~attempts:3 c f) in
          match k mod 4 with
          | 0 ->
              attempt (fun () ->
                  Coordinator.write_stripe c ~stripe
                    (Array.init m (fun i ->
                         Bytes.make block_size (Char.chr (65 + i + k)))))
          | 1 -> attempt (fun () -> Coordinator.read_stripe c ~stripe)
          | 2 ->
              attempt (fun () ->
                  Coordinator.write_blocks c ~stripe (k mod m)
                    [| Bytes.make block_size 'w' |])
          | _ -> attempt (fun () -> Coordinator.read_blocks c ~stripe 0 ~len:1)
        done)
  done;
  Cluster.await_quiesce cl;
  let settled () =
    let t = tally (contents ()) in
    t.recvs = t.send_fg + t.send_bg - t.drops
  in
  let give_up = Unix.gettimeofday () +. 10. in
  while (not (settled ())) && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  Cluster.shutdown cl;
  let t = check_accounting ~label:"mc" cl (contents ()) stats in
  Alcotest.(check bool) "mc: every op traced" true (t.ends >= 24);
  Alcotest.(check bool) "mc: messages traced" true (t.send_fg > 0)

(* ------------------------------------------------------------------ *)
(* The fold's windows: series and fault overlays                       *)
(* ------------------------------------------------------------------ *)

(* A miniature chaos classifier so these tests stay independent of
   lib/chaos (the real wiring uses Chaos.Plan.overlay_of_label). *)
let classify label =
  match String.split_on_char ' ' label with
  | [ "crash"; i ] -> `Begin ("crash b" ^ i)
  | [ "recover"; i ] -> `End ("crash b" ^ i)
  | _ -> `Point label

let ev ?(actor = Obs.Coord 0) ?(op = -1) ?phase time kind =
  { Obs.time; actor; op; phase; kind }

let mk_timeline () =
  let tl = Obs.Stats.create ~classify ~width:10. () in
  let push = (Obs.Stats.sink tl).Obs.Sink.emit in
  let open Obs in
  (* op 0: a read completing in window 0 with latency 2 *)
  push (ev ~op:0 1. (Span_start { op_kind = "read-stripe"; stripe = 0 }));
  push (ev ~op:0 ~actor:(Brick 1) 1.5
          (Msg_send { dst = 2; bytes = 96; label = "read"; bg = false }));
  push (ev ~op:0 ~actor:(Brick 2) 2. (Io_read { blocks = 2 }));
  push (ev ~op:0 2.5 (Timeout { missing = 1; attempt = 1 }));
  push (ev ~op:0 3. (Span_end { op_kind = "read-stripe"; stripe = 0; outcome = Ok }));
  (* a fault interval opening in window 0, closing in window 2 *)
  push (ev 5. (Fault { label = "crash 1" }));
  (* op 1: a write aborting in window 1 with latency 5 *)
  push (ev ~op:1 12. (Span_start { op_kind = "write-stripe"; stripe = 1 }));
  push (ev ~op:1 ~actor:(Brick 0) 13. (Io_write { blocks = 1 }));
  push (ev ~op:1 ~actor:(Brick 0) 13.5 (Msg_drop { dst = 3; bytes = 32; bg = false }));
  push (ev ~op:1 17. (Span_end { op_kind = "write-stripe"; stripe = 1; outcome = Abort }));
  push (ev ~actor:Sim 18. (Queue_depth { depth = 4 }));
  (* a point fault and the interval close *)
  push (ev 21. (Fault { label = "bit-rot 0 1" }));
  push (ev 25. (Fault { label = "recover 1" }));
  tl

let test_timeline_series () =
  let tl = mk_timeline () in
  let ts = Obs.Stats.series tl in
  let counter name w = Metrics.Timeseries.counter ts name w in
  Alcotest.(check (float 0.0)) "ops w0" 1. (counter "ops.all" 0);
  Alcotest.(check (float 0.0)) "ops w1" 1. (counter "ops.all" 1);
  Alcotest.(check (float 0.0)) "ok lands in w0" 1. (counter "out.ok" 0);
  Alcotest.(check (float 0.0)) "abort lands in w1" 1. (counter "out.abort" 1);
  (* goodput counts only ok completions *)
  Alcotest.(check (float 0.0)) "read goodput" 1. (counter "out.ok.read-stripe" 0);
  Alcotest.(check (float 0.0)) "aborted write is not goodput" 0.
    (Metrics.Timeseries.total ts "out.ok.write-stripe");
  Alcotest.(check (float 0.0)) "msgs" 1. (counter "msgs" 0);
  Alcotest.(check (float 0.0)) "bytes" 96. (counter "bytes" 0);
  Alcotest.(check (float 0.0)) "retransmits" 1. (counter "retransmits" 0);
  Alcotest.(check (float 0.0)) "drops" 1. (counter "drops" 1);
  Alcotest.(check (float 0.0)) "io.read" 2. (counter "io.read" 0);
  Alcotest.(check (float 0.0)) "io.write" 1. (counter "io.write" 1);
  Alcotest.(check (float 0.0)) "faults w0" 1. (counter "faults" 0);
  (* latency histogram: op 0 took 2 delta in window 0 *)
  match Metrics.Timeseries.hist ts "lat.all" 0 with
  | None -> Alcotest.fail "no latency hist in w0"
  | Some h ->
      Alcotest.(check int) "one op" 1 (Metrics.Hist.count h);
      Alcotest.(check (float 0.0)) "latency 2" 2. (Metrics.Hist.max h)

let test_timeline_overlays () =
  let tl = mk_timeline () in
  (match Obs.Stats.faults tl with
  | [ ("crash b1", t0, t1); ("bit-rot 0 1", p0, p1) ] ->
      Alcotest.(check (float 0.0)) "interval opens" 5. t0;
      Alcotest.(check (float 0.0)) "interval closes" 25. t1;
      Alcotest.(check (float 0.0)) "point" 21. p0;
      Alcotest.(check (float 0.0)) "point zero-width" p0 p1
  | fs ->
      Alcotest.failf "unexpected overlays: %s"
        (String.concat ", " (List.map (fun (l, _, _) -> l) fs)));
  Alcotest.(check (list string)) "active in w0" [ "crash b1" ]
    (Obs.Stats.faults_in tl 0);
  Alcotest.(check (list string)) "active in w1" [ "crash b1" ]
    (Obs.Stats.faults_in tl 1);
  Alcotest.(check (list string)) "both in w2" [ "bit-rot 0 1"; "crash b1" ]
    (Obs.Stats.faults_in tl 2)

(* ------------------------------------------------------------------ *)
(* SLO engine                                                          *)
(* ------------------------------------------------------------------ *)

let slo_timeline () =
  (* 10 reads in window 0: nine at 2 delta, one at 100 delta; then one
     abort in window 1. *)
  let tl = Obs.Stats.create ~classify ~width:10. () in
  let push = (Obs.Stats.sink tl).Obs.Sink.emit in
  let open Obs in
  for op = 0 to 9 do
    let lat = if op = 9 then 8. else 2. in
    push (ev ~op 0.5 (Span_start { op_kind = "read-stripe"; stripe = 0 }));
    push (ev ~op (0.5 +. lat)
            (Span_end { op_kind = "read-stripe"; stripe = 0; outcome = Ok }))
  done;
  push (ev ~op:10 12. (Span_start { op_kind = "write-stripe"; stripe = 0 }));
  push (ev ~op:10 14.
          (Span_end { op_kind = "write-stripe"; stripe = 0; outcome = Abort }));
  tl

let test_slo_parse () =
  List.iter
    (fun s ->
      match Obs.Slo.parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok o -> (
          (* canonical name re-parses to the same objective *)
          match Obs.Slo.parse (Obs.Slo.name o) with
          | Ok o' ->
              Alcotest.(check string) ("round-trip " ^ s) (Obs.Slo.name o)
                (Obs.Slo.name o')
          | Error e -> Alcotest.failf "re-parse %S: %s" (Obs.Slo.name o) e))
    [ "read p99 < 6"; "p50 <= 3.5"; "availability >= 99.9%"; "write p99.9 < 40" ];
  List.iter
    (fun s ->
      match Obs.Slo.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ ""; "p200 < 6"; "availability >= 101%"; "read p99" ]

let test_slo_latency () =
  let tl = slo_timeline () in
  (* p50 < 6: one of ten reads is slow, well inside the 50% budget *)
  let ok_report =
    Obs.Slo.evaluate tl (Latency { kind = Some "read"; p = 50.; limit = 6. })
  in
  Alcotest.(check int) "governs the 10 reads" 10 ok_report.Obs.Slo.total;
  Alcotest.(check int) "one exceedance" 1 ok_report.Obs.Slo.bad;
  Alcotest.(check bool) "within budget" true ok_report.Obs.Slo.compliant;
  (* p99 < 6: the same exceedance blows the 1% budget tenfold *)
  let blown =
    Obs.Slo.evaluate tl (Latency { kind = Some "read"; p = 99.; limit = 6. })
  in
  Alcotest.(check (float 1e-9)) "burn 10x" 10. blown.Obs.Slo.burn;
  Alcotest.(check bool) "blown" false blown.Obs.Slo.compliant;
  (* kind prefix matching: "read" covers "read-stripe"; "write" sees
     only the one write span (its latency is recorded even though it
     aborted), none of the reads *)
  let writes =
    Obs.Slo.evaluate tl (Latency { kind = Some "write"; p = 99.; limit = 6. })
  in
  Alcotest.(check int) "writes governed separately" 1 writes.Obs.Slo.total;
  Alcotest.(check int) "no write exceedance" 0 writes.Obs.Slo.bad;
  (* per-window stats: the slow read is in window 0 *)
  match ok_report.Obs.Slo.windows with
  | { Obs.Slo.window = 0; w_total = 10; w_bad = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "unexpected window stats"

let test_slo_availability () =
  let tl = slo_timeline () in
  let strict = Obs.Slo.evaluate tl (Availability { min_pct = 99.9 }) in
  (* 10 ok + 1 abort: availability 90.9%, budget 0.1% *)
  Alcotest.(check int) "total" 11 strict.Obs.Slo.total;
  Alcotest.(check int) "bad" 1 strict.Obs.Slo.bad;
  Alcotest.(check bool) "blown" false strict.Obs.Slo.compliant;
  let lax = Obs.Slo.evaluate tl (Availability { min_pct = 50. }) in
  Alcotest.(check bool) "within a lax budget" true lax.Obs.Slo.compliant;
  Alcotest.(check (float 1e-9)) "burn"
    (1. /. (0.5 *. 11.))
    lax.Obs.Slo.burn

(* A read finds a partial write and recovers the stripe inside its own
   span; the nested recover aborts (a concurrent writer preempted it),
   the read retries its round and succeeds. One client operation, and
   it succeeded: nothing burns, and the recover span shows only in its
   own kind's series. *)
let test_slo_nested_recover () =
  let tl = Obs.Stats.create ~classify ~width:10. () in
  let push = (Obs.Stats.sink tl).Obs.Sink.emit in
  let open Obs in
  push (ev ~op:0 1. (Span_start { op_kind = "read-blocks"; stripe = 0 }));
  push (ev ~op:1 2. (Span_start { op_kind = "recover"; stripe = 0 }));
  push (ev ~op:1 4. (Span_end { op_kind = "recover"; stripe = 0; outcome = Abort }));
  push (ev ~op:0 6.
          (Span_end { op_kind = "read-blocks"; stripe = 0; outcome = Ok }));
  let r = Obs.Slo.evaluate tl (Availability { min_pct = 99.9 }) in
  Alcotest.(check int) "governs the one client op" 1 r.Obs.Slo.total;
  Alcotest.(check int) "nothing bad" 0 r.Obs.Slo.bad;
  Alcotest.(check (float 0.0)) "no burn" 0. r.Obs.Slo.burn;
  Alcotest.(check bool) "compliant" true r.Obs.Slo.compliant;
  let ts = Obs.Stats.series tl in
  Alcotest.(check (float 0.0)) "no client abort" 0.
    (Metrics.Timeseries.total ts "out.abort");
  Alcotest.(check (float 0.0)) "one client op" 1.
    (Metrics.Timeseries.total ts "ops.all");
  (match Metrics.Timeseries.hist ts "lat.all" 0 with
  | Some h -> Alcotest.(check int) "lat.all: the read only" 1 (Metrics.Hist.count h)
  | None -> Alcotest.fail "no lat.all in w0");
  match Metrics.Timeseries.hist ts "lat.recover" 0 with
  | Some h -> Alcotest.(check int) "recover in its own kind" 1 (Metrics.Hist.count h)
  | None -> Alcotest.fail "no lat.recover in w0"

(* ------------------------------------------------------------------ *)
(* Bounded retention                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_retention () =
  let stats = Obs.Stats.create ~retain:2 () in
  let open Obs in
  for op = 0 to 4 do
    let kind = if op mod 2 = 0 then "read-stripe" else "write-stripe" in
    let outcome = if op = 4 then Abort else Ok in
    Obs.Stats.feed stats
      (ev ~op (float_of_int op) (Span_start { op_kind = kind; stripe = 0 }));
    Obs.Stats.feed stats
      (ev ~op (float_of_int op +. 2.)
         (Span_end { op_kind = kind; stripe = 0; outcome }))
  done;
  (* only the newest [retain] records are listable... *)
  Alcotest.(check int) "retained" 2 (List.length (Obs.Stats.completed stats));
  Alcotest.(check int) "evicted" 3 (Obs.Stats.evicted stats);
  Alcotest.(check (list int)) "newest kept" [ 3; 4 ]
    (List.map (fun s -> s.Obs.Stats.op) (Obs.Stats.completed stats));
  (* ...but every aggregate still covers all five ops *)
  (match List.assoc_opt "read-stripe" (Obs.Stats.outcome_counts stats) with
  | Some (ok, ab, _, _) ->
      Alcotest.(check int) "read oks" 2 ok;
      Alcotest.(check int) "read aborts" 1 ab
  | None -> Alcotest.fail "read-stripe aggregate missing");
  (match List.assoc_opt "read-stripe" (Obs.Stats.by_kind stats) with
  | Some h -> Alcotest.(check int) "hist count" 3 (Metrics.Hist.count h)
  | None -> Alcotest.fail "read-stripe hist missing");
  let reg = Metrics.Registry.create () in
  Obs.Stats.materialize stats reg;
  Alcotest.(check (float 0.0)) "obs.ops covers evicted" 5.
    (Metrics.Registry.value reg "obs.ops");
  Alcotest.(check (float 0.0)) "obs.aborts" 1.
    (Metrics.Registry.value reg "obs.aborts");
  Alcotest.(check (float 0.0)) "eviction counter" 5.
    (Metrics.Registry.value reg "obs.evictions");
  (* a straggler event for an evicted op must not re-open a live span *)
  Obs.Stats.feed stats (ev ~op:0 ~phase:Obs.Write 99. Obs.Phase_start);
  Alcotest.(check int) "no zombie span" 0 (Obs.Stats.unfinished stats)

(* ------------------------------------------------------------------ *)
(* The fold: whole-run views over random event streams                 *)
(* ------------------------------------------------------------------ *)

(* One random operation, as its event list in time order: a span with
   a sequence of phases, elided rounds, re-targets, messages, I/O and
   timeouts, ending with a random outcome. Times are multiples of 0.25
   so ops and windows share boundaries. *)
let op_events_gen op =
  let open QCheck.Gen in
  let tick = map (fun i -> 0.25 *. float_of_int i) in
  let* kind = oneofl [ "read-blocks"; "write-blocks"; "read-stripe"; "recover" ] in
  let* start = tick (int_range 0 800) in
  let* outcome = oneofl [ Obs.Ok; Obs.Abort; Obs.Retry; Obs.Unavailable ] in
  let* steps =
    list_size (int_range 0 6)
      (pair
         (oneofl [ `Phase; `Elided; `Retarget; `Msg; `Io; `Timeout ])
         (pair (oneofl Obs.all_phases) (int_range 0 12)))
  in
  let ev time ?phase kind = { Obs.time; actor = Obs.Coord 0; op; phase; kind } in
  let t = ref start in
  let events =
    List.concat_map
      (fun (step, (p, n)) ->
        let now = !t in
        match step with
        | `Phase ->
            t := now +. (0.25 *. float_of_int n);
            [ ev now ~phase:p Obs.Phase_start; ev !t ~phase:p Obs.Phase_end ]
        | `Elided -> [ ev now ~phase:p Obs.Phase_elided ]
        | `Retarget -> [ ev now (Obs.Retarget { suspect = n mod 5 }) ]
        | `Msg ->
            [ ev now (Obs.Msg_send { dst = 0; bytes = n; label = "m"; bg = false }) ]
        | `Io -> [ ev now (Obs.Io_read { blocks = n }) ]
        | `Timeout -> [ ev now (Obs.Timeout { missing = 1; attempt = 1 }) ])
      steps
  in
  let* tail = tick (int_range 0 8) in
  return
    ((ev start (Obs.Span_start { op_kind = kind; stripe = 0 }) :: events)
    @ [ ev (!t +. tail) (Obs.Span_end { op_kind = kind; stripe = 0; outcome }) ])

(* Up to 40 operations interleaved by time, plus queue-depth samples. *)
let stream_gen =
  let open QCheck.Gen in
  let* n = int_range 0 40 in
  let* ops = flatten_l (List.init n op_events_gen) in
  let* depths =
    list_size (int_range 0 30)
      (map3
         (fun b depth i ->
           { Obs.time = 0.25 *. float_of_int i; actor = Obs.Brick b; op = -1;
             phase = None; kind = Obs.Queue_depth { depth } })
         (int_range 0 3) (int_range 0 50) (int_range 0 900))
  in
  return
    (List.stable_sort
       (fun a b -> Float.compare a.Obs.time b.Obs.time)
       (List.concat ops @ depths))

let fold_stream ?width events =
  let stats = Obs.Stats.create ?width () in
  List.iter (Obs.Stats.feed stats) events;
  stats

let percentiles = [ 0.; 1.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.9; 100. ]

(* Counts, min, max and every percentile agree exactly. *)
let same_hist a b =
  let module H = Metrics.Hist in
  H.count a = H.count b
  && (H.count a = 0
     || H.min a = H.min b
        && H.max a = H.max b
        && List.for_all (fun p -> H.percentile a p = H.percentile b p) percentiles)

let same_hists a b =
  List.map fst a = List.map fst b
  && List.for_all2 (fun (_, x) (_, y) -> same_hist x y) a b

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

let same_breakdown a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k, n, ps) (k', n', ps') ->
         k = k' && n = n'
         && List.map fst ps = List.map fst ps'
         && List.for_all2 (fun (_, x) (_, y) -> close x y) ps ps')
       a b

let same_retargets a b =
  List.length a = List.length b
  && List.for_all2
       (fun (b1, k, n, m) (b2, k', n', m') -> b1 = b2 && k = k' && n = n' && close m m')
       a b

(* The whole-run views of [s] against those of [s']. *)
let same_views s s' =
  let module S = Obs.Stats in
  same_hists (S.by_kind s) (S.by_kind s')
  && S.outcome_counts s = S.outcome_counts s'
  && same_hists
       (List.map (fun (p, h) -> (Obs.phase_name p, h)) (S.by_phase s))
       (List.map (fun (p, h) -> (Obs.phase_name p, h)) (S.by_phase s'))
  && same_breakdown (S.phase_breakdown s) (S.phase_breakdown s')
  && S.elided_by_kind s = S.elided_by_kind s'
  && same_hists (S.queue_depths s) (S.queue_depths s')
  && same_retargets (S.retargets s) (S.retargets s')

let print_stream events =
  String.concat "\n"
    (List.map
       (fun ev -> Format.asprintf "%.2f %a" ev.Obs.time Obs.pp_event ev)
       events)

(* Every whole-run view equals the merge of its windows: a fold with
   windows of any width agrees with a one-window fold, and each kind's
   latency is its windows' histograms merged by hand. *)
let test_fold_windows =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"whole-run views merge their windows"
       (QCheck.pair
          (QCheck.make ~print:print_stream stream_gen)
          (QCheck.make ~print:string_of_float
             (QCheck.Gen.oneofl [ 0.25; 1.; 7.5; 50. ])))
       (fun (events, width) ->
         let windowed = fold_stream ~width events in
         let ts = Obs.Stats.series windowed in
         let by_hand =
           List.map
             (fun (kind, _) ->
               let h = Metrics.Hist.create () in
               List.iter
                 (fun (_, w) -> Option.iter (fun w -> Metrics.Hist.merge_into ~dst:h w) w)
                 (Metrics.Timeseries.hist_series ts ("lat." ^ kind));
               (kind, h))
             (Obs.Stats.by_kind windowed)
         in
         same_views windowed (fold_stream events)
         && same_hists (Obs.Stats.by_kind windowed) by_hand))

(* With nothing evicted, each view equals a direct recomputation from
   the retained per-op records. *)
let test_fold_records =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"views recompute from the records"
       (QCheck.make ~print:print_stream stream_gen)
       (fun events ->
         let module S = Obs.Stats in
         let stats = fold_stream ~width:5. events in
         let records = S.completed stats in
         let kinds =
           List.sort_uniq String.compare (List.map (fun r -> r.S.op_kind) records)
         in
         let of_kind k = List.filter (fun r -> r.S.op_kind = k) records in
         let hist values =
           let h = Metrics.Hist.create () in
           List.iter (Metrics.Hist.add h) values;
           h
         in
         let durations p rs =
           List.concat_map
             (fun r -> Option.to_list (List.assoc_opt p r.S.phases))
             rs
         in
         let by_kind =
           List.map (fun k -> (k, hist (List.map S.latency (of_kind k)))) kinds
         in
         let outcome_counts =
           List.map
             (fun k ->
               let c o =
                 List.length (List.filter (fun r -> r.S.outcome = Some o) (of_kind k))
               in
               (k, (c Obs.Ok, c Obs.Abort, c Obs.Retry, c Obs.Unavailable)))
             kinds
         in
         let by_phase =
           List.filter_map
             (fun p ->
               match durations p records with
               | [] -> None
               | ds -> Some (Obs.phase_name p, hist ds))
             Obs.all_phases
         in
         let breakdown =
           List.map
             (fun k ->
               let rs = of_kind k in
               let n = List.length rs in
               ( k,
                 n,
                 List.filter_map
                   (fun p ->
                     match durations p rs with
                     | [] -> None
                     | ds -> Some (p, List.fold_left ( +. ) 0. ds /. float_of_int n))
                   Obs.all_phases ))
             kinds
         in
         let elided =
           List.filter_map
             (fun k ->
               match
                 List.filter_map
                   (fun p ->
                     match
                       List.concat_map
                         (fun r -> Option.to_list (List.assoc_opt p r.S.elided))
                         (of_kind k)
                     with
                     | [] -> None
                     | cs -> Some (p, List.fold_left ( + ) 0 cs))
                   Obs.all_phases
               with
               | [] -> None
               | l -> Some (k, l))
             kinds
         in
         let retargets =
           let pairs =
             List.concat_map
               (fun r ->
                 List.map (fun (b, since) -> ((b, r.S.op_kind), r.S.t_end -. since))
                   r.S.retargeted)
               records
           in
           List.sort_uniq compare (List.map fst pairs)
           |> List.map (fun ((b, k) as key) ->
                  let waits = List.filter_map (fun (k', w) -> if k' = key then Some w else None) pairs in
                  ( b,
                    k,
                    List.length waits,
                    List.fold_left ( +. ) 0. waits /. float_of_int (List.length waits) ))
           |> List.sort compare
         in
         S.evicted stats = 0
         && List.length records = List.length (List.filter (fun e -> match e.Obs.kind with Obs.Span_end _ -> true | _ -> false) events)
         && same_hists (S.by_kind stats) by_kind
         && S.outcome_counts stats = outcome_counts
         && same_hists
              (List.map (fun (p, h) -> (Obs.phase_name p, h)) (S.by_phase stats))
              by_phase
         && same_breakdown (S.phase_breakdown stats) breakdown
         && S.elided_by_kind stats = elided
         && same_retargets (S.retargets stats) retargets))

(* ------------------------------------------------------------------ *)
(* Cross-commit pin: an uncontended sim run is byte-identical          *)
(* ------------------------------------------------------------------ *)

(* One client, no faults, fixed seed: the JSONL event stream (what
   [fab_sim workload --trace-out] writes after its meta line) is a
   pure function of the sim scheduler and the protocol, so its digest
   holds across commits. A change that moves any message, disk access
   or phase of this run changes it; update the digest only in a
   change meant to alter uncontended behaviour. Multi-stripe requests
   route through the pipelined join. *)
let uncontended_trace_md5 = "4b16787bb553dd17163729093752c4bf"

let test_uncontended_trace_digest () =
  let v = Fab.Volume.create ~seed:5 ~m:5 ~n:8 ~stripes:16 ~block_size () in
  let buf = Buffer.create (1 lsl 20) in
  Obs.add_sink (Fab.Volume.cluster v).Cluster.obs
    (Obs.Sink.make (fun ev ->
         Buffer.add_string buf (Obs.to_json ev);
         Buffer.add_char buf '\n'));
  let gen =
    Workload.Gen.make
      { Workload.Gen.read_fraction = 0.5; addr = Uniform; op_blocks = 12 }
      ~capacity_blocks:(Fab.Volume.capacity_blocks v)
      ~rng:(Random.State.make [| 5; 0 |])
  in
  let stats = Workload.Client.fresh_stats () in
  Workload.Client.spawn v ~coord:0 ~gen ~ops:60 stats;
  Fab.Volume.run v;
  Alcotest.(check int) "every op completed" 60 stats.Workload.Client.ops;
  Alcotest.(check string) "trace digest" uncontended_trace_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "obs"
    [
      ( "sinks",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "meta and errors" `Quick test_json_meta_and_errors;
        ] );
      ( "json",
        [
          test_json_codec_roundtrip;
          Alcotest.test_case "number format" `Quick test_json_number_format;
          Alcotest.test_case "indented file" `Quick test_json_to_file;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "nested event line" `Quick test_json_nested_event;
        ] );
      ( "spans",
        [
          Alcotest.test_case "well-formedness checker" `Quick test_well_formed;
          Alcotest.test_case "retry outcome" `Quick test_retry_outcome;
          Alcotest.test_case "retarget attribution" `Quick
            test_retarget_attribution;
          Alcotest.test_case "randomized rounds" `Slow test_property_rounds;
          Alcotest.test_case "mc event and counter totals" `Quick
            test_mc_accounting;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "series" `Quick test_timeline_series;
          Alcotest.test_case "fault overlays" `Quick test_timeline_overlays;
        ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick test_slo_parse;
          Alcotest.test_case "latency objectives" `Quick test_slo_latency;
          Alcotest.test_case "availability objectives" `Quick
            test_slo_availability;
          Alcotest.test_case "nested recover abort does not burn" `Quick
            test_slo_nested_recover;
        ] );
      ( "retention",
        [
          Alcotest.test_case "bounded completed table" `Quick
            test_stats_retention;
        ] );
      ("fold", [ test_fold_windows; test_fold_records ]);
      ( "determinism",
        [
          Alcotest.test_case "uncontended trace digest" `Quick
            test_uncontended_trace_digest;
        ] );
    ]
