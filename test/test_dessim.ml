(* Tests for the discrete-event engine and the sim backend's tasks. *)

module E = Dessim.Engine

let test_time_ordering () =
  let e = E.create () in
  let order = ref [] in
  ignore (E.schedule e ~delay:3. (fun () -> order := 3 :: !order));
  ignore (E.schedule e ~delay:1. (fun () -> order := 1 :: !order));
  ignore (E.schedule e ~delay:2. (fun () -> order := 2 :: !order));
  E.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 0.0)) "clock at last event" 3. (E.now e)

let test_fifo_same_instant () =
  let e = E.create () in
  let order = ref [] in
  for i = 1 to 10 do
    ignore (E.schedule e ~delay:5. (fun () -> order := i :: !order))
  done;
  E.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_cancel () =
  let e = E.create () in
  let fired = ref false in
  let t = E.schedule e ~delay:1. (fun () -> fired := true) in
  E.cancel e t;
  E.run e;
  Alcotest.(check bool) "cancelled never fires" false !fired;
  (* double cancel is a no-op *)
  E.cancel e t

let test_nested_scheduling () =
  let e = E.create () in
  let times = ref [] in
  ignore
    (E.schedule e ~delay:1. (fun () ->
         times := E.now e :: !times;
         ignore (E.schedule e ~delay:2. (fun () -> times := E.now e :: !times))));
  E.run e;
  Alcotest.(check (list (float 0.0))) "nested" [ 1.; 3. ] (List.rev !times)

let test_run_until () =
  let e = E.create () in
  let fired = ref 0 in
  ignore (E.schedule e ~delay:1. (fun () -> incr fired));
  ignore (E.schedule e ~delay:10. (fun () -> incr fired));
  E.run ~until:5. e;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.(check (float 0.0)) "clock at horizon" 5. (E.now e);
  E.run e;
  Alcotest.(check int) "second fires later" 2 !fired

let test_negative_delay_rejected () =
  let e = E.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Dessim.Engine.schedule: negative delay") (fun () ->
      ignore (E.schedule e ~delay:(-1.) ignore))

let test_step_and_pending () =
  let e = E.create () in
  ignore (E.schedule e ~delay:1. ignore);
  ignore (E.schedule e ~delay:2. ignore);
  Alcotest.(check int) "pending 2" 2 (E.pending e);
  Alcotest.(check bool) "step true" true (E.step e);
  Alcotest.(check bool) "step true" true (E.step e);
  Alcotest.(check bool) "step false on empty" false (E.step e)

let test_pending_live_only () =
  let e = E.create () in
  let timers = List.init 10 (fun _ -> E.schedule e ~delay:1. ignore) in
  Alcotest.(check int) "all live" 10 (E.pending e);
  List.iteri (fun i t -> if i mod 2 = 0 then E.cancel e t) timers;
  Alcotest.(check int) "cancelled not counted" 5 (E.pending e);
  ignore (E.step e);
  Alcotest.(check int) "one fired" 4 (E.pending e);
  (* Cancelling fired and already-cancelled timers must not disturb
     the count; cancelling the remaining live ones drains it. *)
  List.iter (E.cancel e) timers;
  List.iter (E.cancel e) timers;
  Alcotest.(check int) "all cancelled" 0 (E.pending e);
  E.run e;
  Alcotest.(check int) "empty" 0 (E.pending e)

let test_compaction_under_churn () =
  (* A long retry-timer churn: every scheduled timer is cancelled
     before it can fire. The engine once cancelled lazily and had to
     compact its heap; now a cancel removes the event at once. Either
     way the live count stays exact, the cancelled events never fire
     and every surviving event does. *)
  let e = E.create () in
  let fired = ref 0 in
  let cancelled_fired = ref 0 in
  for _ = 1 to 10_000 do
    let dead = E.schedule e ~delay:1000. (fun () -> incr cancelled_fired) in
    ignore (E.schedule e ~delay:1. (fun () -> incr fired));
    E.cancel e dead;
    ignore (E.step e)
  done;
  E.run e;
  Alcotest.(check int) "live events all fired" 10_000 !fired;
  Alcotest.(check int) "cancelled events never fired" 0 !cancelled_fired;
  Alcotest.(check int) "queue drained" 0 (E.pending e)

let test_determinism () =
  let trace seed =
    let e = E.create ~seed () in
    let log = ref [] in
    let rec recur depth =
      if depth < 4 then
        ignore
          (E.schedule e
             ~delay:(Random.State.float (E.rng e) 10.)
             (fun () ->
               log := E.now e :: !log;
               recur (depth + 1)))
    in
    recur 0;
    recur 0;
    E.run e;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 5 = trace 5);
  Alcotest.(check bool) "different seed, different trace" true
    (trace 5 <> trace 6)

(* A direct test of the chooser path: with a chooser installed, the
   engine presents the live events of the earliest instant in
   scheduling order, fires the chosen one, and presents the rest next,
   still in order. Cancelled events are never presented. *)
let test_chooser_sees_live_batch () =
  let e = E.create () in
  let fired = ref [] in
  let timers =
    Array.init 5 (fun i -> E.schedule e ~delay:1. (fun () -> fired := i :: !fired))
  in
  E.cancel e timers.(1);
  E.cancel e timers.(3);
  let seen = ref [] in
  let picks = ref [ 1; 0 ] in
  E.set_chooser e
    (Some
       (fun k ->
         seen := k :: !seen;
         match !picks with
         | p :: rest ->
             picks := rest;
             p
         | [] -> 0));
  Alcotest.(check int) "three live" 3 (E.pending e);
  Alcotest.(check bool) "stepped" true (E.step e);
  Alcotest.(check (list int)) "index 1 of [0; 2; 4] fired" [ 2 ] !fired;
  Alcotest.(check bool) "stepped" true (E.step e);
  Alcotest.(check (list int)) "then index 0 of [0; 4]" [ 0; 2 ] !fired;
  E.run e;
  Alcotest.(check (list int)) "chooser saw k = 3, then 2" [ 2; 3 ] !seen;
  Alcotest.(check (list int)) "last one alone, no choice" [ 4; 0; 2 ] !fired;
  Alcotest.(check (float 0.)) "clock at the instant" 1. (E.now e)

(* --- the timer queue, against a sorted-list model ---

   Random runs of add (times drawn from four values, so most entries
   tie), remove, take and pop. The model is the pending set as a list
   of (time, arm order) sorted ascending; arm order is the entry's id.
   After every step the queue's length, next time and simultaneous set
   (ids, in arm order) must match the model's. A remove of an entry
   that already left returns false and changes nothing. *)

module Q = Runtime.Timerq

type qop = Add of int | Remove of int | Take of int | Pop

let qop_print = function
  | Add t -> Printf.sprintf "add %d" t
  | Remove i -> Printf.sprintf "remove #%d" i
  | Take i -> Printf.sprintf "take %d" i
  | Pop -> "pop"

let qop_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Add t) (int_bound 3));
        (2, map (fun i -> Remove i) (int_bound 999));
        (1, map (fun i -> Take i) (int_bound 999));
        (2, return Pop);
      ])

let timerq_matches_model ops =
  let q = Q.create () in
  let model = ref [] (* (at, id), sorted *) in
  let entries = ref [||] (* handle of id i *) in
  let last = ref (-1) in
  let run fn =
    last := -1;
    fn ();
    !last
  in
  let check_state () =
    let len = List.length !model in
    if Q.length q <> len then
      QCheck.Test.fail_reportf "length %d, model %d" (Q.length q) len;
    let next = match !model with [] -> infinity | (at, _) :: _ -> at in
    if Q.next_at q <> next then
      QCheck.Test.fail_reportf "next_at %g, model %g" (Q.next_at q) next;
    let due = List.filter (fun (at, _) -> at = next) !model in
    let id_of e = Option.get (Array.find_index (( == ) e) !entries) in
    let got = List.map id_of (Q.simultaneous q) in
    if got <> List.map snd due then
      QCheck.Test.fail_reportf "simultaneous [%s], model [%s]"
        (String.concat ";" (List.map string_of_int got))
        (String.concat ";" (List.map (fun (_, i) -> string_of_int i) due))
  in
  let step = function
    | Add t ->
        let id = Array.length !entries in
        let at = float_of_int t in
        let e = Q.add q ~at (fun () -> last := id) in
        entries := Array.append !entries [| e |];
        model := List.merge compare !model [ (at, id) ]
    | Remove i ->
        let n = Array.length !entries in
        if n > 0 then begin
          let id = i mod n in
          let pending = List.exists (fun (_, j) -> j = id) !model in
          if Q.remove q !entries.(id) <> pending then
            QCheck.Test.fail_reportf "remove #%d: pending was %b" id pending;
          model := List.filter (fun (_, j) -> j <> id) !model
        end
    | Take i -> (
        match Q.simultaneous q with
        | [] -> ()
        | due ->
            let e = List.nth due (i mod List.length due) in
            let id = run (Q.take q e) in
            if not (List.exists (fun (_, j) -> j = id) !model) then
              QCheck.Test.fail_reportf "take returned #%d, not pending" id;
            model := List.filter (fun (_, j) -> j <> id) !model)
    | Pop -> (
        match (Q.pop q, !model) with
        | None, [] -> ()
        | Some f, (_, id) :: rest ->
            let got = run f in
            if got <> id then
              QCheck.Test.fail_reportf "pop #%d, model #%d" got id;
            model := rest
        | None, _ :: _ -> QCheck.Test.fail_report "pop on a non-empty queue"
        | Some _, [] -> QCheck.Test.fail_report "pop on an empty queue")
  in
  List.iter
    (fun op ->
      step op;
      check_state ())
    ops;
  true

let test_timerq_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"timerq matches a sorted-list model"
       (QCheck.make
          ~print:QCheck.Print.(list qop_print)
          QCheck.Gen.(list_size (int_range 0 400) qop_gen))
       timerq_matches_model)

(* --- the sim backend's tasks ---

   Runtime_sim runs tasks under the runtime's effect handler: spawn
   runs a task inline to its first suspension, a gate's opener
   continues the waiter inline, and an escaping exception reaches
   whoever was running the task. The schedule of every sim run rests
   on these. *)

let sim () =
  let e = E.create () in
  (e, Runtime_sim.of_engine e)

let test_fiber_runs_immediately () =
  let _, rt = sim () in
  let ran = ref false in
  Runtime.spawn rt (fun () -> ran := true);
  Alcotest.(check bool) "ran synchronously" true !ran

let test_suspend_resume () =
  let _, rt = sim () in
  let got = ref 0 in
  let iv = Runtime.Ivar.create rt in
  Runtime.spawn rt (fun () -> got := Runtime.Ivar.await iv);
  Alcotest.(check int) "not resumed yet" 0 !got;
  Alcotest.(check bool) "live" true (Runtime.Ivar.is_live iv);
  Runtime.Ivar.fill iv 42;
  Alcotest.(check bool) "dead after fill" false (Runtime.Ivar.is_live iv);
  Alcotest.(check int) "resumed inline, with the value" 42 !got

let test_double_resume_noop () =
  let _, rt = sim () in
  let count = ref 0 in
  let g = rt.Runtime.gate () in
  Runtime.spawn rt (fun () ->
      g.Runtime.await ();
      incr count);
  g.Runtime.open_ ();
  g.Runtime.open_ ();
  g.Runtime.abort ();
  Alcotest.(check int) "resumed once" 1 !count

let test_cancel_unwinds () =
  let _, rt = sim () in
  let reached = ref false in
  let cleaned = ref false in
  let g = rt.Runtime.gate () in
  Runtime.spawn rt (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () ->
          g.Runtime.await ();
          reached := true));
  g.Runtime.abort ();
  Alcotest.(check bool) "code after await skipped" false !reached;
  Alcotest.(check bool) "finally ran inline on abort" true !cleaned

let test_sequential_suspends () =
  let e, rt = sim () in
  let log = ref [] in
  Runtime.spawn rt (fun () ->
      for i = 1 to 3 do
        Runtime.sleep rt 1.;
        log := (i, E.now e) :: !log
      done);
  E.run e;
  Alcotest.(check (list (pair int (float 0.0))))
    "loop across suspends"
    [ (1, 1.); (2, 2.); (3, 3.) ]
    (List.rev !log)

let test_exception_propagates () =
  let _, rt = sim () in
  Alcotest.check_raises "escaping exception" Exit (fun () ->
      Runtime.spawn rt (fun () -> raise Exit))

let test_await_outside_task_fails () =
  (* One thread and no task: nothing could ever open the gate. *)
  let _, rt = sim () in
  let g = rt.Runtime.gate () in
  Alcotest.check_raises "await outside a task"
    (Invalid_argument "Runtime: gate awaited outside a task") g.Runtime.await

let test_all_results_in_order () =
  let e, rt = sim () in
  let got = ref None in
  Runtime.spawn rt (fun () ->
      let results =
        Runtime.all rt
          (List.init 5 (fun i ->
               fun () ->
                 (* Later thunks finish earlier. *)
                 Runtime.sleep rt (float_of_int (10 - i));
                 i * i))
      in
      got := Some results);
  E.run e;
  Alcotest.(check (option (list int))) "input order" (Some [ 0; 1; 4; 9; 16 ])
    !got;
  Alcotest.(check (float 0.0)) "latency = max, not sum" 10. (E.now e)

let test_all_synchronous_thunks () =
  (* No thunk suspends: [all] must not need a running engine. *)
  let _, rt = sim () in
  let got = ref None in
  Runtime.spawn rt (fun () ->
      got := Some (Runtime.all rt [ (fun () -> 1); (fun () -> 2) ]));
  Alcotest.(check (option (list int))) "immediate" (Some [ 1; 2 ]) !got;
  Runtime.spawn rt (fun () -> got := Some (Runtime.all rt []));
  Alcotest.(check (option (list int))) "empty" (Some []) !got

let test_all_window_bounds_inflight () =
  let e, rt = sim () in
  let inflight = ref 0 in
  let peak = ref 0 in
  let finished = ref false in
  Runtime.spawn rt (fun () ->
      ignore
        (Runtime.all rt ~window:3
           (List.init 10 (fun _ ->
                fun () ->
                  incr inflight;
                  if !inflight > !peak then peak := !inflight;
                  Runtime.sleep rt 1.;
                  decr inflight)));
      finished := true);
  E.run e;
  Alcotest.(check bool) "join completed" true !finished;
  Alcotest.(check int) "window respected" 3 !peak;
  Alcotest.(check (float 0.0)) "ceil (10 / 3) rounds of 1 s" 4. (E.now e)

let test_all_window_one_is_serial () =
  let e, rt = sim () in
  let log = ref [] in
  Runtime.spawn rt (fun () ->
      ignore
        (Runtime.all rt ~window:1
           (List.init 4 (fun i ->
                fun () ->
                  log := `Start i :: !log;
                  Runtime.sleep rt 1.;
                  log := `End i :: !log))));
  E.run e;
  let expect = List.concat_map (fun i -> [ `Start i; `End i ]) [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "strictly sequential" true (List.rev !log = expect);
  Alcotest.(check (float 0.0)) "latency = sum" 4. (E.now e)

let test_all_rejects_nonpositive_window () =
  (* The window bounds in-flight children; zero or negative can never
     launch anything and must be rejected up front, not hang. *)
  let _, rt = sim () in
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "window=%d" w)
        (Invalid_argument "Runtime.all: window < 1")
        (fun () ->
          Runtime.spawn rt (fun () ->
              ignore (Runtime.all rt ~window:w [ (fun () -> ()) ]))))
    [ 0; -1; -7 ]

let test_all_cancellation () =
  (* On sim every step below runs inline: no engine run is needed. Two
     children launched (window), both parked. Abort one, let the other
     complete: the join must re-raise Cancelled in the parent and never
     launch the remaining thunks. *)
  let _, rt = sim () in
  let gates = Array.init 4 (fun _ -> rt.Runtime.gate ()) in
  let launched = ref 0 in
  let after_join = ref false in
  let cleaned = ref false in
  Runtime.spawn rt (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () ->
          ignore
            (Runtime.all rt ~window:2
               (List.init 4 (fun i ->
                    fun () ->
                      incr launched;
                      gates.(i).Runtime.await ())));
          after_join := true));
  gates.(0).Runtime.abort ();
  Alcotest.(check bool) "join still waiting" false !cleaned;
  gates.(1).Runtime.open_ ();
  Alcotest.(check bool) "parent unwound by Cancelled" true !cleaned;
  Alcotest.(check bool) "code after join skipped" false !after_join;
  Alcotest.(check int) "later thunks never launched" 2 !launched

let () =
  Alcotest.run "dessim"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "fifo at same instant" `Quick test_fifo_same_instant;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "run until horizon" `Quick test_run_until;
          Alcotest.test_case "negative delay rejected" `Quick
            test_negative_delay_rejected;
          Alcotest.test_case "step and pending" `Quick test_step_and_pending;
          Alcotest.test_case "pending is live-only" `Quick test_pending_live_only;
          Alcotest.test_case "compaction under churn" `Quick
            test_compaction_under_churn;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "chooser sees the live batch in order" `Quick
            test_chooser_sees_live_batch;
        ] );
      ("timerq", [ test_timerq_model ]);
      ( "fiber",
        [
          Alcotest.test_case "runs immediately" `Quick test_fiber_runs_immediately;
          Alcotest.test_case "suspend and resume" `Quick test_suspend_resume;
          Alcotest.test_case "double resume no-op" `Quick test_double_resume_noop;
          Alcotest.test_case "cancel unwinds" `Quick test_cancel_unwinds;
          Alcotest.test_case "sequential suspends" `Quick test_sequential_suspends;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "await outside a task fails" `Quick
            test_await_outside_task_fails;
        ] );
      ( "fiber-all",
        [
          Alcotest.test_case "results in input order" `Quick
            test_all_results_in_order;
          Alcotest.test_case "synchronous thunks" `Quick
            test_all_synchronous_thunks;
          Alcotest.test_case "window bounds in-flight" `Quick
            test_all_window_bounds_inflight;
          Alcotest.test_case "window=1 is serial" `Quick
            test_all_window_one_is_serial;
          Alcotest.test_case "window < 1 rejected" `Quick
            test_all_rejects_nonpositive_window;
          Alcotest.test_case "cancellation drains and re-raises" `Quick
            test_all_cancellation;
        ] );
    ]
