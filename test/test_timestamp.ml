(* Tests for timestamps and clocks (paper section 2.3). *)

module Ts = Core.Timestamp
module Clock = Core.Clock

let ts time pid = Ts.make ~time ~pid

let test_total_order () =
  Alcotest.(check bool) "low < ts" true Ts.(low < ts 0 0);
  Alcotest.(check bool) "ts < high" true Ts.(ts 1_000_000 99 < high);
  Alcotest.(check bool) "low < high" true Ts.(low < high);
  Alcotest.(check bool) "time dominates" true Ts.(ts 1 9 < ts 2 0);
  Alcotest.(check bool) "pid breaks ties" true Ts.(ts 5 1 < ts 5 2);
  Alcotest.(check bool) "equal" true (Ts.equal (ts 3 3) (ts 3 3));
  Alcotest.(check int) "compare reflexive" 0 (Ts.compare Ts.low Ts.low);
  Alcotest.(check int) "compare high high" 0 (Ts.compare Ts.high Ts.high)

let test_max () =
  Alcotest.(check bool) "max picks larger" true
    (Ts.equal (Ts.max (ts 1 1) (ts 2 0)) (ts 2 0));
  Alcotest.(check bool) "max with low" true
    (Ts.equal (Ts.max Ts.low (ts 0 0)) (ts 0 0))

let test_make_validation () =
  Alcotest.check_raises "negative time"
    (Invalid_argument "Core.Timestamp.make: negative time") (fun () ->
      ignore (Ts.make ~time:(-1) ~pid:0));
  Alcotest.check_raises "negative pid"
    (Invalid_argument "Core.Timestamp.make: negative pid") (fun () ->
      ignore (Ts.make ~time:0 ~pid:(-1)))

let test_to_string () =
  Alcotest.(check string) "low" "LowTS" (Ts.to_string Ts.low);
  Alcotest.(check string) "high" "HighTS" (Ts.to_string Ts.high);
  Alcotest.(check string) "pair" "7.2" (Ts.to_string (ts 7 2))

let qtest name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name gen f)

let arbitrary_ts =
  QCheck.map
    (fun (t, p) -> ts t p)
    (QCheck.pair (QCheck.int_range 0 1000) (QCheck.int_range 0 20))

let order_props =
  [
    qtest "antisymmetry" (QCheck.pair arbitrary_ts arbitrary_ts) (fun (a, b) ->
        not (Ts.( < ) a b && Ts.( < ) b a));
    qtest "totality" (QCheck.pair arbitrary_ts arbitrary_ts) (fun (a, b) ->
        Ts.( < ) a b || Ts.( > ) a b || Ts.equal a b);
    qtest "transitivity" (QCheck.triple arbitrary_ts arbitrary_ts arbitrary_ts)
      (fun (a, b, c) ->
        (not (Ts.( <= ) a b && Ts.( <= ) b c)) || Ts.( <= ) a c);
    qtest "sentinels bound everything" arbitrary_ts (fun a ->
        Ts.( < ) Ts.low a && Ts.( < ) a Ts.high);
  ]

(* --- clocks --- *)

(* The one clock kind reads an injected [now]. The "logical" cases pin
   [now] (or step it back) so only the Lamport half moves the clock;
   the "realtime" cases drive it from a sim engine. *)
let frozen () = 0.

let time_of = function
  | Ts.Ts { time; _ } -> time
  | Ts.Low | Ts.High -> Alcotest.fail "expected a concrete timestamp"

let test_logical_monotonic_unique () =
  let c1 = Clock.create ~now:frozen ~pid:1 in
  let c2 = Clock.create ~now:frozen ~pid:2 in
  let all = ref [] in
  for _ = 1 to 100 do
    all := Clock.new_ts c1 :: Clock.new_ts c2 :: !all
  done;
  (* UNIQUENESS across both clocks. *)
  let sorted = List.sort_uniq Ts.compare !all in
  Alcotest.(check int) "unique" 200 (List.length sorted);
  (* MONOTONICITY per clock, also while [now] steps backwards. *)
  let now = ref 5. in
  let stepping = Clock.create ~now:(fun () -> !now) ~pid:3 in
  let check_monotonic c =
    let prev = ref (Clock.new_ts c) in
    for _ = 1 to 50 do
      now := !now -. 0.1;
      let next = Clock.new_ts c in
      Alcotest.(check bool) "monotone" true (Ts.( < ) !prev next);
      prev := next
    done
  in
  check_monotonic c1;
  check_monotonic c2;
  check_monotonic stepping

let test_logical_observe () =
  let c = Clock.create ~now:frozen ~pid:0 in
  Clock.observe c (ts 500 7);
  Alcotest.(check bool) "jumps past observed" true
    (Ts.( > ) (Clock.new_ts c) (ts 500 7));
  (* Observing something old never goes backwards. *)
  Clock.observe c (ts 3 0);
  Alcotest.(check bool) "still above 500" true (Ts.( > ) (Clock.new_ts c) (ts 500 9));
  (* Catch-up works with a running [now] too: a clock one unit behind
     jumps past a timestamp from one unit ahead. *)
  let behind = Clock.create ~now:(fun () -> 10.) ~pid:1 in
  Clock.set_skew behind (-1.);
  Clock.observe behind (ts 11_000_000 2);
  Alcotest.(check bool) "catches up past a clock ahead" true
    (Ts.( > ) (Clock.new_ts behind) (ts 11_000_000 2))

let test_logical_progress () =
  (* PROGRESS: a lagging clock invoked repeatedly eventually exceeds
     any fixed timestamp, even if [now] never moves. *)
  let fast = Clock.create ~now:frozen ~pid:1 in
  for _ = 1 to 1000 do
    ignore (Clock.new_ts fast)
  done;
  let target = Clock.new_ts fast in
  let slow = Clock.create ~now:frozen ~pid:0 in
  let exceeded = ref false in
  for _ = 1 to 2000 do
    if Ts.( > ) (Clock.new_ts slow) target then exceeded := true
  done;
  Alcotest.(check bool) "progress" true !exceeded

let test_realtime_follows_sim_clock () =
  let e = Dessim.Engine.create () in
  let rt = Runtime_sim.of_engine e in
  let c = Clock.create ~now:rt.Runtime.now ~pid:0 in
  let t1 = Clock.new_ts c in
  ignore (Dessim.Engine.schedule e ~delay:100. ignore);
  Dessim.Engine.run e;
  let t2 = Clock.new_ts c in
  (* One tick is 10^-6 of a time unit. *)
  Alcotest.(check int) "reads now in ticks" 100_000_000 (time_of t2);
  Alcotest.(check bool) "tracks time" true (time_of t2 - time_of t1 >= 99_000_000);
  (* Monotonic even when the runtime clock is stuck. *)
  let t3 = Clock.new_ts c in
  Alcotest.(check bool) "bumped" true (Ts.( < ) t2 t3);
  (* Two clocks on one time base: a timestamp minted later is higher,
     whichever pid minted it. *)
  let other = Clock.create ~now:rt.Runtime.now ~pid:7 in
  let early = Clock.new_ts other in
  ignore (Dessim.Engine.schedule e ~delay:1. ignore);
  Dessim.Engine.run e;
  Alcotest.(check bool) "later write wins" true (Ts.( > ) (Clock.new_ts c) early)

let test_realtime_skew () =
  let e = Dessim.Engine.create () in
  let rt = Runtime_sim.of_engine e in
  ignore (Dessim.Engine.schedule e ~delay:1000. ignore);
  Dessim.Engine.run e;
  let behind = Clock.create ~now:rt.Runtime.now ~pid:0 in
  let ahead = Clock.create ~now:rt.Runtime.now ~pid:1 in
  Clock.set_skew behind (-500.);
  Clock.set_skew ahead 500.;
  Alcotest.(check (float 0.)) "skew reads back" (-500.) (Clock.skew behind);
  let b = Clock.new_ts behind and a = Clock.new_ts ahead in
  Alcotest.(check bool) "skew separates clocks" true
    (time_of a - time_of b >= 999_000_000);
  (* observe pulls the lagging clock past what it saw. *)
  Clock.observe behind a;
  Alcotest.(check bool) "catches up" true (Ts.( > ) (Clock.new_ts behind) a);
  (* A skew step backwards keeps the clock monotone, and a step
     forwards moves it at once. *)
  let before = Clock.new_ts ahead in
  Clock.set_skew ahead 0.;
  let after = Clock.new_ts ahead in
  Alcotest.(check bool) "step back stays monotone" true (Ts.( < ) before after);
  Alcotest.(check int) "leans on the bump" (time_of before + 1) (time_of after);
  Clock.set_skew ahead 600.;
  Alcotest.(check int) "step forward" 1_600_000_000 (time_of (Clock.new_ts ahead))

let test_realtime_validation () =
  (* A reading below zero (runtime start with a negative skew) still
     mints valid, increasing timestamps instead of raising. *)
  let c = Clock.create ~now:frozen ~pid:0 in
  Clock.set_skew c (-3.);
  let t1 = Clock.new_ts c in
  let t2 = Clock.new_ts c in
  Alcotest.(check int) "first tick" 1 (time_of t1);
  Alcotest.(check bool) "increasing" true (Ts.( < ) t1 t2)

(* On mc a coordinator's tasks run on any domain: concurrent new_ts and
   observe calls on one clock must still mint distinct timestamps, each
   domain's strictly increasing. [now] is frozen so every call leans on
   the shared [last]; the domains start together from a barrier, and
   three rounds make a lost update all but certain to show. *)
let test_concurrent_domains () =
  let domains = 4 and per_domain = 100_000 in
  for _ = 1 to 3 do
    let c = Clock.create ~now:frozen ~pid:0 in
    let ready = Atomic.make 0 in
    let run () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      let out = Array.make per_domain 0 in
      for i = 0 to per_domain - 1 do
        let t = time_of (Clock.new_ts c) in
        if i mod 8 = 0 then Clock.observe c (ts (t + 3) 1);
        out.(i) <- t
      done;
      out
    in
    let results =
      List.init domains (fun _ -> Domain.spawn run) |> List.map Domain.join
    in
    List.iter
      (fun out ->
        for i = 1 to per_domain - 1 do
          if out.(i) <= out.(i - 1) then
            Alcotest.failf "domain sequence not increasing at %d: %d after %d"
              i out.(i) out.(i - 1)
        done)
      results;
    let all = Array.concat results in
    Array.sort compare all;
    for i = 1 to Array.length all - 1 do
      if all.(i) = all.(i - 1) then
        Alcotest.failf "time %d minted twice" all.(i)
    done
  done

let () =
  Alcotest.run "timestamp"
    [
      ( "order",
        [
          Alcotest.test_case "total order" `Quick test_total_order;
          Alcotest.test_case "max" `Quick test_max;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ]
        @ order_props );
      ( "clocks",
        [
          Alcotest.test_case "logical monotonic+unique" `Quick
            test_logical_monotonic_unique;
          Alcotest.test_case "logical observe" `Quick test_logical_observe;
          Alcotest.test_case "logical progress" `Quick test_logical_progress;
          Alcotest.test_case "realtime follows sim clock" `Quick
            test_realtime_follows_sim_clock;
          Alcotest.test_case "realtime skew" `Quick test_realtime_skew;
          Alcotest.test_case "realtime validation" `Quick test_realtime_validation;
          Alcotest.test_case "concurrent domains unique" `Quick
            test_concurrent_domains;
        ] );
    ]
