(* Conformance tests for the Runtime abstraction (DESIGN 4g): the same
   suite runs on both backends — the deterministic simulator
   (Runtime_sim) and the OCaml 5 multicore pool (Runtime_mc) — pinning
   down the contract protocol code relies on: FIFO-per-sender
   mailboxes, monotone clocks, timer ordering and cancellation, sleep
   ordering, gate abort, yield, and the scatter-gather join (window,
   cancellation, exceptions). Plus a multicore soak: four
   domains hammer one erasure-coded register and the recorded history
   must be strictly linearizable (lib/linearize). *)

(* Each test gets a fresh backend: [rt] to program against, [go] to
   run a root task to quiescence, [teardown] to release resources.
   Real-time gaps below are generous (tens of ms apart) so the mc
   backend's park and wake latency cannot flake the suite. *)
type harness = {
  rt : Runtime.t;
  go : (unit -> unit) -> unit;
  teardown : unit -> unit;
}

let sim_harness () =
  let e = Dessim.Engine.create ~seed:7 () in
  let rt = Runtime_sim.of_engine e in
  {
    rt;
    go =
      (fun f ->
        Runtime.spawn rt f;
        Dessim.Engine.run e);
    teardown = ignore;
  }

let mc_harness () =
  let pool = Runtime_mc.create ~domains:2 () in
  let rt = Runtime_mc.runtime pool in
  {
    rt;
    go =
      (fun f ->
        Runtime.spawn rt f;
        Runtime_mc.await_idle pool);
    teardown = (fun () -> Runtime_mc.shutdown pool);
  }

let with_harness make f =
  let h = make () in
  Fun.protect ~finally:h.teardown (fun () -> f h)

(* Test-side accumulator, safe from any domain (uncontended on sim). *)
let locked_list () =
  let lk = Mutex.create () in
  let items = ref [] in
  let push x =
    Mutex.lock lk;
    items := x :: !items;
    Mutex.unlock lk
  in
  let contents () =
    Mutex.lock lk;
    let l = List.rev !items in
    Mutex.unlock lk;
    l
  in
  (push, contents)

(* ------------------------------------------------------------------ *)
(* Conformance: the same tests run on both backends                    *)
(* ------------------------------------------------------------------ *)

let test_mailbox_fifo_per_sender make () =
  (* Three senders interleave 20 sends each (staggered sleeps force
     interleaving on the sim backend too); the per-sender sequence
     numbers must arrive in order even though the global order is
     arbitrary. *)
  with_harness make (fun h ->
      let senders = 3 and per_sender = 20 in
      let box = Runtime.Mailbox.create h.rt in
      let got = Array.make senders (-1) in
      let violations = ref 0 in
      h.go (fun () ->
          for s = 0 to senders - 1 do
            Runtime.spawn h.rt (fun () ->
                for i = 0 to per_sender - 1 do
                  ignore (Runtime.Mailbox.send box (s, i));
                  Runtime.sleep h.rt (0.001 *. float_of_int (1 + s))
                done)
          done;
          for _ = 1 to senders * per_sender do
            match Runtime.Mailbox.recv box with
            | None -> Alcotest.fail "mailbox closed early"
            | Some (s, i) ->
                if i <> got.(s) + 1 then incr violations;
                got.(s) <- i
          done);
      Alcotest.(check int) "per-sender FIFO violations" 0 !violations;
      Array.iteri
        (fun s last ->
          Alcotest.(check int)
            (Printf.sprintf "sender %d drained" s)
            (per_sender - 1) last)
        got;
      Alcotest.(check int) "mailbox empty" 0 (Runtime.Mailbox.length box))

let test_now_monotone_and_timer_order make () =
  (* now() never goes backwards; timers fire no earlier than their
     delay and in delay order (delays 40 ms apart so the mc timer
     thread cannot reorder them). *)
  with_harness make (fun h ->
      let push, contents = locked_list () in
      let t0 = Runtime.now h.rt in
      h.go (fun () ->
          List.iter
            (fun d ->
              ignore
                (Runtime.timer h.rt ~delay:d (fun () ->
                     push (d, Runtime.now h.rt))))
            [ 0.09; 0.01; 0.13; 0.05 ];
          Runtime.sleep h.rt 0.3);
      let fired = contents () in
      Alcotest.(check int) "all timers fired" 4 (List.length fired);
      List.iter
        (fun (d, at) ->
          if at -. t0 < d -. 1e-9 then
            Alcotest.failf "timer %.2f fired %.4fs early" d (d -. (at -. t0)))
        fired;
      Alcotest.(check (list (float 1e-9)))
        "fired in delay order" [ 0.01; 0.05; 0.09; 0.13 ] (List.map fst fired);
      let rec monotone = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "now non-decreasing" true (monotone fired))

let test_timer_cancellation make () =
  with_harness make (fun h ->
      let fired = ref false in
      h.go (fun () ->
          let t = Runtime.timer h.rt ~delay:0.02 (fun () -> fired := true) in
          Runtime.cancel t;
          Runtime.sleep h.rt 0.1;
          (* Cancelling an already-fired timer is a no-op. *)
          let u = Runtime.timer h.rt ~delay:0.01 (fun () -> ()) in
          Runtime.sleep h.rt 0.05;
          Runtime.cancel u);
      Alcotest.(check bool) "cancelled timer never fired" false !fired)

(* Both backends keep timers in one [Runtime.Timerq], which refuses a
   NaN deadline: queued, it would compare false against every other
   and wedge the heap's order. The queue (and on mc the worker's lock)
   must be left usable. *)
let test_timer_rejects_nan make () =
  with_harness make (fun h ->
      Alcotest.check_raises "NaN delay"
        (Invalid_argument "Runtime.Timerq.add: NaN time") (fun () ->
          ignore (Runtime.timer h.rt ~delay:nan ignore));
      let fired = ref false in
      h.go (fun () ->
          ignore (Runtime.timer h.rt ~delay:0.01 (fun () -> fired := true));
          Runtime.sleep h.rt 0.05);
      Alcotest.(check bool) "a later timer still fires" true !fired)

let test_gate_abort_cancels_waiter make () =
  with_harness make (fun h ->
      let outcome = ref `Pending in
      h.go (fun () ->
          let g = h.rt.Runtime.gate () in
          ignore
            (Runtime.timer h.rt ~delay:0.02 (fun () -> g.Runtime.abort ()));
          Runtime.spawn h.rt (fun () ->
              match g.Runtime.await () with
              | () -> outcome := `Opened
              | exception Runtime.Cancelled -> outcome := `Cancelled);
          Runtime.sleep h.rt 0.1);
      Alcotest.(check bool) "waiter saw Cancelled" true (!outcome = `Cancelled))

let test_ivar_fill_and_abort make () =
  with_harness make (fun h ->
      let got = ref 0 and aborted = ref false in
      h.go (fun () ->
          let iv = Runtime.Ivar.create h.rt in
          ignore
            (Runtime.timer h.rt ~delay:0.01 (fun () -> Runtime.Ivar.fill iv 42));
          got := Runtime.Ivar.await iv;
          let dead = Runtime.Ivar.create h.rt in
          ignore
            (Runtime.timer h.rt ~delay:0.01 (fun () -> Runtime.Ivar.abort dead));
          (try ignore (Runtime.Ivar.await dead : int)
           with Runtime.Cancelled -> aborted := true));
      Alcotest.(check int) "filled value" 42 !got;
      Alcotest.(check bool) "abort raises Cancelled" true !aborted)

let test_mailbox_timeout_and_close make () =
  with_harness make (fun h ->
      let timed_out = ref false and woke_none = ref false in
      h.go (fun () ->
          let box = Runtime.Mailbox.create h.rt in
          (match Runtime.Mailbox.recv ~timeout:0.02 box with
          | None -> timed_out := true
          | Some () -> ());
          let box2 = Runtime.Mailbox.create h.rt in
          Runtime.spawn h.rt (fun () ->
              match Runtime.Mailbox.recv box2 with
              | None -> woke_none := true
              | Some () -> ());
          Runtime.sleep h.rt 0.02;
          Runtime.Mailbox.close box2;
          Runtime.sleep h.rt 0.02;
          Alcotest.(check bool) "closed" true (Runtime.Mailbox.is_closed box2);
          (* Sends to a closed mailbox are dropped. *)
          Alcotest.(check bool) "send refused" false (Runtime.Mailbox.send box2 ());
          Alcotest.(check int) "drop on closed" 0 (Runtime.Mailbox.length box2));
      Alcotest.(check bool) "empty recv times out" true !timed_out;
      Alcotest.(check bool) "close wakes receiver with None" true !woke_none)

let test_sleep_ordering make () =
  with_harness make (fun h ->
      let push, contents = locked_list () in
      h.go (fun () ->
          List.iter
            (fun d ->
              Runtime.spawn h.rt (fun () ->
                  Runtime.sleep h.rt d;
                  push d))
            [ 0.13; 0.01; 0.09; 0.05 ]);
      Alcotest.(check (list (float 1e-9)))
        "woken in delay order" [ 0.01; 0.05; 0.09; 0.13 ] (contents ()))

let test_all_join make () =
  with_harness make (fun h ->
      let results = ref [] in
      h.go (fun () ->
          (* Results come back in input order even when later thunks
             finish first. *)
          results :=
            Runtime.all h.rt ~window:2
              (List.map
                 (fun (d, v) () ->
                   Runtime.sleep h.rt d;
                   v)
                 [ (0.05, "a"); (0.01, "b"); (0.03, "c"); (0.0, "d") ]));
      Alcotest.(check (list string))
        "input order" [ "a"; "b"; "c"; "d" ] !results)

let test_all_rejects_bad_window make () =
  (* Zero or negative can never launch anything: rejected up front. *)
  with_harness make (fun h ->
      let raised = ref [] in
      h.go (fun () ->
          List.iter
            (fun w ->
              try ignore (Runtime.all h.rt ~window:w [ (fun () -> ()) ])
              with Invalid_argument m -> raised := m :: !raised)
            [ 0; -1; -7 ]);
      Alcotest.(check (list string))
        "window < 1 rejected"
        (List.init 3 (fun _ -> "Runtime.all: window < 1"))
        !raised)

let test_all_window_bounds_inflight make () =
  with_harness make (fun h ->
      let lk = Mutex.create () and inflight = ref 0 and peak = ref 0 in
      let add d =
        Mutex.protect lk (fun () ->
            inflight := !inflight + d;
            peak := max !peak !inflight)
      in
      h.go (fun () ->
          ignore
            (Runtime.all h.rt ~window:3
               (List.init 10 (fun _ () ->
                    add 1;
                    Runtime.sleep h.rt 0.02;
                    add (-1)))));
      Alcotest.(check int) "window respected" 3 !peak)

let test_all_window_one_is_serial make () =
  with_harness make (fun h ->
      let push, contents = locked_list () in
      h.go (fun () ->
          ignore
            (Runtime.all h.rt ~window:1
               (List.init 4 (fun i () ->
                    push (`Start i);
                    Runtime.sleep h.rt 0.01;
                    push (`End i)))));
      let expect =
        List.concat_map (fun i -> [ `Start i; `End i ]) [ 0; 1; 2; 3 ]
      in
      Alcotest.(check bool) "strictly sequential" true (contents () = expect))

let test_all_synchronous_thunks make () =
  with_harness make (fun h ->
      let got = ref [] and empty = ref [ 0 ] in
      h.go (fun () ->
          got := Runtime.all h.rt [ (fun () -> 1); (fun () -> 2) ];
          empty := Runtime.all h.rt []);
      Alcotest.(check (list int)) "immediate" [ 1; 2 ] !got;
      Alcotest.(check (list int)) "empty" [] !empty)

let test_all_cancellation make () =
  (* Two children in flight, each parked on its own gate. Aborting
     child 0's gate must stop further launches; the join keeps waiting
     for child 1, then re-raises Cancelled in the parent. *)
  with_harness make (fun h ->
      let gates = Array.init 4 (fun _ -> h.rt.Runtime.gate ()) in
      let launched = Atomic.make 0 in
      let cleaned = Atomic.make false and after_join = ref false in
      let waited = ref false in
      h.go (fun () ->
          Runtime.spawn h.rt (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.set cleaned true)
                (fun () ->
                  ignore
                    (Runtime.all h.rt ~window:2
                       (List.init 4 (fun i () ->
                            Atomic.incr launched;
                            gates.(i).Runtime.await ())));
                  after_join := true));
          Runtime.sleep h.rt 0.02;
          gates.(0).Runtime.abort ();
          Runtime.sleep h.rt 0.02;
          waited := not (Atomic.get cleaned);
          gates.(1).Runtime.open_ ());
      Alcotest.(check bool) "join waits for the live child" true !waited;
      Alcotest.(check bool) "parent unwound by Cancelled" true
        (Atomic.get cleaned);
      Alcotest.(check bool) "code after join skipped" false !after_join;
      Alcotest.(check int) "later thunks never launched" 2
        (Atomic.get launched))

let test_all_reraises_child_exception make () =
  (* Any other exception stops further launches too, and re-raises in
     the parent once the running children settled. *)
  with_harness make (fun h ->
      let outcome = ref `Returned and settled = ref false in
      let launched = Atomic.make 0 in
      h.go (fun () ->
          match
            Runtime.all h.rt ~window:2
              [
                (fun () ->
                  Atomic.incr launched;
                  Runtime.sleep h.rt 0.01;
                  failwith "boom");
                (fun () ->
                  Atomic.incr launched;
                  Runtime.sleep h.rt 0.03;
                  settled := true);
                (fun () -> Atomic.incr launched);
              ]
          with
          | _ -> ()
          | exception Failure m -> outcome := `Raised (m, !settled));
      Alcotest.(check bool) "raised in the parent, after the live child" true
        (!outcome = `Raised ("boom", true));
      Alcotest.(check int) "third thunk never launched" 2
        (Atomic.get launched))

let test_yield_lets_peer_run make () =
  (* A task spinning on [yield] lets the tasks it waits for run, also
     those queued behind it on its own domain (four peers land on
     every worker of the two-domain mc harness). *)
  with_harness make (fun h ->
      let peers = 4 in
      let ran = Atomic.make 0 and spins = ref 0 in
      h.go (fun () ->
          Runtime.spawn h.rt (fun () ->
              while Atomic.get ran < peers do
                incr spins;
                Runtime.yield h.rt
              done);
          for _ = 1 to peers do
            Runtime.spawn h.rt (fun () -> Atomic.incr ran)
          done);
      Alcotest.(check bool) "spinner saw every peer" true (!spins >= 1))

let test_abort_runs_handlers make () =
  with_harness make (fun h ->
      let caught = ref false and finalized = ref false and after = ref false in
      h.go (fun () ->
          let g = h.rt.Runtime.gate () in
          Runtime.spawn h.rt (fun () ->
              Fun.protect
                ~finally:(fun () -> finalized := true)
                (fun () ->
                  try
                    g.Runtime.await ();
                    after := true
                  with Runtime.Cancelled ->
                    caught := true;
                    raise Runtime.Cancelled));
          Runtime.sleep h.rt 0.02;
          g.Runtime.abort ());
      Alcotest.(check bool) "Cancelled raised at the await" true !caught;
      Alcotest.(check bool) "finally ran" true !finalized;
      Alcotest.(check bool) "never resumed normally" false !after)

let test_mailbox_fifo_fuzz make () =
  (* Heavier FIFO-per-sender fuzz than the smoke test above: four
     senders, hundreds of messages, random yields instead of sleeps so
     the interleaving is scheduler-driven on mc and trace-driven on
     sim. Exercises the per-sender segments of the batched mailbox
     under genuinely mixed arrival orders. *)
  with_harness make (fun h ->
      let senders = 4 and per_sender = 400 in
      let box = Runtime.Mailbox.create h.rt in
      let got = Array.make senders (-1) in
      let violations = ref 0 in
      h.go (fun () ->
          for s = 0 to senders - 1 do
            let rng = Random.State.make [| 97; s |] in
            Runtime.spawn h.rt (fun () ->
                for i = 0 to per_sender - 1 do
                  ignore (Runtime.Mailbox.send box (s, i));
                  if Random.State.int rng 4 = 0 then Runtime.yield h.rt
                done)
          done;
          for _ = 1 to senders * per_sender do
            match Runtime.Mailbox.recv box with
            | None -> Alcotest.fail "mailbox closed early"
            | Some (s, i) ->
                if i <> got.(s) + 1 then incr violations;
                got.(s) <- i
          done);
      Alcotest.(check int) "fuzz FIFO violations" 0 !violations;
      Array.iteri
        (fun s last ->
          Alcotest.(check int)
            (Printf.sprintf "sender %d drained" s)
            (per_sender - 1) last)
        got)

let test_mailbox_timeout_mid_stream make () =
  (* Timeout timers racing live traffic: the producer delivers at
     30 ms intervals while the consumer polls with a 10 ms timeout, so
     most recvs arm a timer that fires mid-stream and the rest must
     claim the waiter back before the message lands. No message may be
     lost or reordered whichever side of the race wins. *)
  with_harness make (fun h ->
      let n = 8 in
      let box = Runtime.Mailbox.create h.rt in
      let timeouts = ref 0 and got = ref [] in
      h.go (fun () ->
          Runtime.spawn h.rt (fun () ->
              for i = 1 to n do
                Runtime.sleep h.rt 0.03;
                ignore (Runtime.Mailbox.send box i)
              done);
          let rec loop () =
            if List.length !got < n then begin
              (match Runtime.Mailbox.recv ~timeout:0.01 box with
              | Some v -> got := v :: !got
              | None -> incr timeouts);
              loop ()
            end
          in
          loop ());
      Alcotest.(check (list int))
        "all delivered in order"
        (List.init n (fun i -> n - i))
        !got;
      Alcotest.(check bool) "timeouts fired mid-stream" true (!timeouts >= 1))

let test_mailbox_crash_reopen make () =
  (* Lost-wakeup regression for the Cluster crash/recover pattern
     (DESIGN 4i): brick crash closes the mailbox out from under a
     receive loop that may be parked on it empty — close must wake the
     parked receiver with None, never leave it asleep forever — and
     recovery swaps a fresh mailbox into the shared slot and restarts
     the loop while senders keep flooding through that slot across the
     whole swap. Sends that lose the race land on the closed box and
     are dropped; sends that win land on the replacement and must be
     delivered. *)
  with_harness make (fun h ->
      let box = ref (Runtime.Mailbox.create h.rt) in
      let gen1_end = ref `Asleep and gen2_end = ref `Asleep in
      let gen2_got = ref 0 in
      h.go (fun () ->
          (* Generation 1: the receive loop drains whatever arrives,
             then parks on the empty box. *)
          let b1 = !box in
          Runtime.spawn h.rt (fun () ->
              let rec loop () =
                match Runtime.Mailbox.recv b1 with
                | Some _ -> loop ()
                | None -> gen1_end := `Woke_none
              in
              loop ());
          (* A burst that lands before the crash... *)
          for s = 0 to 1 do
            Runtime.spawn h.rt (fun () ->
                for i = 0 to 99 do
                  ignore (Runtime.Mailbox.send !box (s, i));
                  if i mod 16 = 0 then Runtime.yield h.rt
                done)
          done;
          (* ...and a slow flood that straddles crash and recovery,
             always sending through the shared slot. *)
          Runtime.spawn h.rt (fun () ->
              for i = 0 to 19 do
                ignore (Runtime.Mailbox.send !box (2, i));
                Runtime.sleep h.rt 0.005
              done);
          (* Let the receiver drain the burst and park empty. *)
          Runtime.sleep h.rt 0.04;
          (* Crash: close the box under the parked receiver. *)
          Runtime.Mailbox.close !box;
          Runtime.sleep h.rt 0.02;
          (* Recover: fresh mailbox in the slot, restarted loop. *)
          box := Runtime.Mailbox.create h.rt;
          let b2 = !box in
          Runtime.spawn h.rt (fun () ->
              let rec loop () =
                match Runtime.Mailbox.recv b2 with
                | Some _ ->
                    incr gen2_got;
                    loop ()
                | None -> gen2_end := `Woke_none
              in
              loop ());
          (* Post-recovery traffic must flow. *)
          for i = 0 to 49 do
            ignore (Runtime.Mailbox.send !box (9, i))
          done;
          (* Outlive the straddling flood, then shut generation 2
             down cleanly — its parked receiver must wake too. *)
          Runtime.sleep h.rt 0.12;
          Runtime.Mailbox.close !box);
      Alcotest.(check bool) "crash woke the parked receiver with None" true
        (!gen1_end = `Woke_none);
      Alcotest.(check bool) "reopened receiver woken with None" true
        (!gen2_end = `Woke_none);
      Alcotest.(check bool)
        (Printf.sprintf "reopened mailbox delivered (%d >= 50)" !gen2_got)
        true (!gen2_got >= 50))

(* ------------------------------------------------------------------ *)
(* mc-specific races: real domains only                                *)
(* ------------------------------------------------------------------ *)

let test_mc_mailbox_close_race () =
  (* Three sender domains spam sends while a fourth task closes the
     mailbox mid-stream. The receiver must terminate with None (close
     drains stragglers, then reports closure), per-sender FIFO must
     hold for everything that did arrive, and sends that lose the race
     with close are dropped, never crashed on. *)
  let pool = Runtime_mc.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Runtime_mc.shutdown pool) @@ fun () ->
  let rt = Runtime_mc.runtime pool in
  let senders = 3 and iters = 20_000 in
  let box = Runtime.Mailbox.create rt in
  let got = Array.make senders (-1) in
  let violations = ref 0 and received = ref 0 and finished = ref false in
  Runtime.spawn rt (fun () ->
      let rec loop () =
        match Runtime.Mailbox.recv box with
        | Some (s, i) ->
            incr received;
            if i <> got.(s) + 1 then incr violations;
            got.(s) <- i;
            loop ()
        | None -> finished := true
      in
      loop ());
  for s = 0 to senders - 1 do
    Runtime.spawn rt (fun () ->
        for i = 0 to iters - 1 do
          ignore (Runtime.Mailbox.send box (s, i))
        done)
  done;
  Runtime.spawn rt (fun () ->
      Runtime.sleep rt 0.005;
      Runtime.Mailbox.close box);
  Runtime_mc.await_idle pool;
  Alcotest.(check bool) "receiver saw None" true !finished;
  Alcotest.(check int) "per-sender FIFO violations" 0 !violations;
  Alcotest.(check bool) "received bounded by sent" true
    (!received <= senders * iters);
  Alcotest.(check bool) "send after close refused" false
    (Runtime.Mailbox.send box (0, 0));
  Alcotest.(check int) "send after close dropped" 0 (Runtime.Mailbox.length box)

let test_mc_spawn_cursor_wrap () =
  (* With three workers, the pre-fix cursor arithmetic turned the wrap
     past max_int into a negative array index (fetch_and_add returns
     min_int at the wrap, and min_int mod 3 = -1): pin the cursor just
     below the wrap and spawn enough tasks to cross it. *)
  let pool = Runtime_mc.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Runtime_mc.shutdown pool) @@ fun () ->
  let rt = Runtime_mc.runtime pool in
  Runtime_mc.set_spawn_cursor pool (max_int - 2);
  let ran = Atomic.make 0 in
  for _ = 1 to 64 do
    Runtime.spawn rt (fun () -> Atomic.incr ran)
  done;
  Runtime_mc.await_idle pool;
  Alcotest.(check int) "all tasks ran across the wrap" 64 (Atomic.get ran)

(* ------------------------------------------------------------------ *)
(* mc scheduler: tasks are fibers, blocking never costs a thread       *)
(* ------------------------------------------------------------------ *)

let with_pool ~domains f =
  let pool = Runtime_mc.create ~domains () in
  Fun.protect ~finally:(fun () -> Runtime_mc.shutdown pool) @@ fun () ->
  f pool (Runtime_mc.runtime pool)

let os_threads () = Array.length (Sys.readdir "/proc/self/task")

(* Spin the calling (non-pool) thread until [cond] holds. *)
let wait_until cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  Alcotest.(check bool) "condition reached" true (cond ())

let test_mc_blocked_tasks_start_no_thread () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  with_pool ~domains:1 @@ fun pool rt ->
  (* One task first, so the worker domain is fully up before counting. *)
  Runtime.spawn rt ignore;
  Runtime_mc.await_idle pool;
  let before = os_threads () in
  let g = rt.Runtime.gate () in
  let blocked = Atomic.make 0 and woke = Atomic.make 0 in
  for _ = 1 to 1000 do
    Runtime.spawn rt (fun () ->
        Atomic.incr blocked;
        g.Runtime.await ();
        Atomic.incr woke)
  done;
  (* Opened even on failure: shutdown waits for every fiber. *)
  Fun.protect ~finally:g.Runtime.open_ (fun () ->
      wait_until (fun () -> Atomic.get blocked = 1000);
      (* At most: threads of an earlier test's pool may still be exiting. *)
      let after = os_threads () in
      Alcotest.(check bool)
        (Printf.sprintf "no OS thread per blocked task (%d -> %d)" before after)
        true (after <= before));
  Runtime_mc.await_idle pool;
  Alcotest.(check int) "every task woke" 1000 (Atomic.get woke)

(* Threads of an earlier pool or domain may still be exiting after
   their join: count once the number has held still for 25 ms. *)
let settled_threads () =
  let rec go last same tries =
    if same >= 5 || tries = 0 then last
    else begin
      Thread.delay 0.005;
      let n = os_threads () in
      if n = last then go n (same + 1) (tries - 1) else go n 0 (tries - 1)
    end
  in
  go (os_threads ()) 0 400

(* What [create ~domains:2] adds to the process is at most what two
   bare domains add: the workers park and fire their timers on their
   own domains, with no thread beside them. *)
let test_mc_pool_starts_no_extra_thread () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  (* The first spawn in the process also starts the main domain's
     backup thread: pay for it before counting. *)
  Domain.join (Domain.spawn ignore);
  let growth ~start ~stop =
    let before = settled_threads () in
    let x = start () in
    let after = os_threads () in
    stop x;
    after - before
  in
  let bare =
    growth
      ~start:(fun () ->
        let go = Atomic.make false and up = Atomic.make 0 in
        let ds =
          List.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  Atomic.incr up;
                  while not (Atomic.get go) do Thread.delay 0.001 done))
        in
        wait_until (fun () -> Atomic.get up = 2);
        (go, ds))
      ~stop:(fun (go, ds) ->
        Atomic.set go true;
        List.iter Domain.join ds)
  in
  let pool =
    growth
      ~start:(fun () ->
        let pool = Runtime_mc.create ~domains:2 () in
        let rt = Runtime_mc.runtime pool in
        (* A task on each worker, so both domains are up. *)
        Runtime.spawn rt ignore;
        Runtime.spawn rt ignore;
        Runtime_mc.await_idle pool;
        pool)
      ~stop:Runtime_mc.shutdown
  in
  Alcotest.(check bool)
    (Printf.sprintf "pool adds %d OS threads, two bare domains %d" pool bare)
    true (pool <= bare)

let test_mc_ivar_across_pool_boundary () =
  with_pool ~domains:1 @@ fun pool rt ->
  let iv = Runtime.Ivar.create rt in
  Runtime.spawn rt (fun () -> Runtime.Ivar.fill iv 41);
  Alcotest.(check int) "main thread awaits a task's fill" 41
    (Runtime.Ivar.await iv);
  let back = Runtime.Ivar.create rt and got = ref 0 in
  Runtime.spawn rt (fun () -> got := Runtime.Ivar.await back + 1);
  Runtime.Ivar.fill back 41;
  Runtime_mc.await_idle pool;
  Alcotest.(check int) "task awaits the main thread's fill" 42 !got

(* ------------------------------------------------------------------ *)
(* Multicore soak: 4 domains, one register, strict linearizability     *)
(* ------------------------------------------------------------------ *)

let test_mc_soak_linearizable () =
  (* Four clients on four domains hammer the same logical block of a
     2-of-4 volume; every operation is recorded in a Linearize history
     (timestamps taken under the history lock so invocation/return
     order is consistent) and the result must admit a conforming total
     order. Aborted writes are expected under this contention and are
     fine — the checker constrains them only if their value is
     observed.

     op_retries is pinned to 1 so one recorded operation is one
     protocol-level write. The volume-layer retry loop re-submits an
     aborted write's value as a fresh protocol write at a new
     timestamp; if a concurrent reader's recovery already rolled the
     first attempt forward, the value becomes visible, is superseded
     by other writers, then resurfaces when the retry commits — two
     visibility windows for one recorded op, which the unique-value
     strict checker rightly rejects. The paper's guarantee (and this
     soak) covers single protocol operations; driver-style retries
     deliberately trade that for at-least-once block semantics. *)
  let m = 2 and n = 4 and clients = 4 and ops = 25 in
  let block_size = 512 in
  let cluster =
    Core.Cluster.create ~backend:(Mc { domains = 4 }) ~block_size ~m ~n ()
  in
  let volume =
    Fab.Volume.of_cluster ~cluster ~m ~stripes:1 ~block_size ~op_retries:1
      ~stripe_offset:0 ()
  in
  let rt = cluster.Core.Cluster.runtime in
  let hist = Linearize.History.create () in
  let hlock = Mutex.create () in
  let record f =
    Mutex.lock hlock;
    let r = f (Runtime.now rt) in
    Mutex.unlock hlock;
    r
  in
  let value_of_block b =
    if Bytes.for_all (fun c -> c = '\000') b then Linearize.History.nil
    else Bytes.to_string b
  in
  let payload c i =
    let b = Bytes.make block_size '\000' in
    let stamp = Printf.sprintf "%d:%d" c i in
    Bytes.blit_string stamp 0 b 0 (String.length stamp);
    b
  in
  for c = 0 to clients - 1 do
    Runtime.spawn rt (fun () ->
        let rng = Random.State.make [| 11; c |] in
        for i = 0 to ops - 1 do
          if Random.State.bool rng then begin
            let data = payload c i in
            let id =
              record (fun now ->
                  Linearize.History.invoke hist ~client:c ~kind:Write
                    ~written:(value_of_block data) ~now ())
            in
            match Fab.Volume.write volume ~coord:c ~lba:0 data with
            | Ok () ->
                record (fun now -> Linearize.History.complete_write hist id ~now)
            | Error (`Aborted | `Unavailable) ->
                record (fun now -> Linearize.History.abort hist id ~now)
          end
          else begin
            let id =
              record (fun now ->
                  Linearize.History.invoke hist ~client:c ~kind:Read ~now ())
            in
            match Fab.Volume.read volume ~coord:c ~lba:0 ~count:1 with
            | Ok b ->
                record (fun now ->
                    Linearize.History.complete_read hist id
                      ~value:(value_of_block b) ~now)
            | Error (`Aborted | `Unavailable) ->
                record (fun now -> Linearize.History.abort hist id ~now)
          end
        done)
  done;
  Core.Cluster.await_quiesce cluster;
  Core.Cluster.shutdown cluster;
  Alcotest.(check int)
    "all ops returned" (clients * ops)
    (Linearize.History.size hist - Linearize.History.pending_count hist);
  match Linearize.Check.strict hist with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "soak history not strictly linearizable: %s"
        (Format.asprintf "%a" Linearize.Check.pp_violation v)

(* ------------------------------------------------------------------ *)

let conformance name make =
  ( "conformance:" ^ name,
    [
      Alcotest.test_case "mailbox FIFO per sender" `Quick
        (test_mailbox_fifo_per_sender make);
      Alcotest.test_case "now monotone, timers fire in order" `Quick
        (test_now_monotone_and_timer_order make);
      Alcotest.test_case "timer cancellation" `Quick
        (test_timer_cancellation make);
      Alcotest.test_case "gate abort cancels waiter" `Quick
        (test_gate_abort_cancels_waiter make);
      Alcotest.test_case "ivar fill / abort" `Quick
        (test_ivar_fill_and_abort make);
      Alcotest.test_case "mailbox timeout / close" `Quick
        (test_mailbox_timeout_and_close make);
      Alcotest.test_case "sleep ordering" `Quick (test_sleep_ordering make);
      Alcotest.test_case "all: join in input order" `Quick (test_all_join make);
      Alcotest.test_case "all: window < 1 rejected" `Quick
        (test_all_rejects_bad_window make);
      Alcotest.test_case "all: window bounds in-flight" `Quick
        (test_all_window_bounds_inflight make);
      Alcotest.test_case "all: window=1 is serial" `Quick
        (test_all_window_one_is_serial make);
      Alcotest.test_case "all: synchronous and empty thunks" `Quick
        (test_all_synchronous_thunks make);
      Alcotest.test_case "all: cancel drains and re-raises" `Quick
        (test_all_cancellation make);
      Alcotest.test_case "all: child exception re-raises" `Quick
        (test_all_reraises_child_exception make);
      Alcotest.test_case "yield lets a same-domain task run" `Quick
        (test_yield_lets_peer_run make);
      Alcotest.test_case "abort unwinds a parked task" `Quick
        (test_abort_runs_handlers make);
      Alcotest.test_case "mailbox FIFO fuzz" `Quick
        (test_mailbox_fifo_fuzz make);
      Alcotest.test_case "mailbox timeout racing live traffic" `Quick
        (test_mailbox_timeout_mid_stream make);
      Alcotest.test_case "mailbox close + crash-reopen, parked receiver"
        `Quick
        (test_mailbox_crash_reopen make);
      Alcotest.test_case "timer rejects a NaN delay" `Quick
        (test_timer_rejects_nan make);
    ] )

(* ------------------------------------------------------------------ *)
(* mc timer queue and idle wait: no wakeup nobody asked for            *)
(* ------------------------------------------------------------------ *)

let wheel_wakeups pool = (Runtime_mc.timer_stats pool).Runtime_mc.wakeups

(* Every RPC arms a retransmission timer and cancels it when its
   replies arrive. Cancelled timers, with deadlines spread over 150 ms
   here, must not keep setting the worker's park deadline. The main
   thread arms on worker 0 from outside the pool, while the worker is
   parked; an RPC arms from its task, while the worker runs. *)
let test_mc_cancelled_timers_no_wakeups () =
  let arm_and_cancel rt =
    for i = 0 to 9_999 do
      let delay = 0.01 +. (float_of_int i *. 0.000015) in
      (rt.Runtime.timer ~delay ignore).Runtime.tcancel ()
    done
  in
  List.iter
    (fun (from, arms) ->
      with_pool ~domains:1 @@ fun pool rt ->
      let before = wheel_wakeups pool in
      arms pool rt;
      Thread.delay 0.2;
      let woke = wheel_wakeups pool - before in
      Alcotest.(check bool)
        (Printf.sprintf "worker woke for a timer %d times in 200 ms (%s)" woke
           from)
        true (woke <= 8))
    [
      ("main thread", fun _ rt -> arm_and_cancel rt);
      ( "task",
        fun pool rt ->
          Runtime.spawn rt (fun () -> arm_and_cancel rt);
          Runtime_mc.await_idle pool );
    ]

(* A cancelled timer's handle outlives the cancel (the caller may keep
   it); the callback must not live on with it, or whatever it captures
   (a quorum call's pending state) outlives the call. At 1 domain the
   main thread arms and cancels; at 2 a task on worker 0 arms and a
   task on worker 1 cancels, which takes the owner's lock. Either way
   the callback never runs, though it is due well before the check. *)
let[@inline never] arm_captured rt weak ran =
  let captured = Bytes.make 64 'x' in
  Weak.set weak 0 (Some captured);
  rt.Runtime.timer ~delay:0.3 (fun () ->
      ignore (Sys.opaque_identity captured);
      Atomic.set ran true)

let test_mc_cancel_drops_callback () =
  List.iter
    (fun domains ->
      with_pool ~domains @@ fun pool rt ->
      let weak = Weak.create 1 and ran = Atomic.make false in
      let armed = Runtime.now rt in
      if domains = 1 then (arm_captured rt weak ran).Runtime.tcancel ()
      else begin
        let handle = Runtime.Ivar.create rt in
        Runtime_mc.set_spawn_cursor pool 0;
        Runtime.spawn rt (fun () ->
            Runtime.Ivar.fill handle (arm_captured rt weak ran));
        Runtime.spawn rt (fun () -> Runtime.cancel (Runtime.Ivar.await handle));
        Runtime_mc.await_idle pool
      end;
      let name what = Printf.sprintf "%s (%d domains)" what domains in
      Gc.full_major ();
      Alcotest.(check bool)
        (name "captured value reclaimed") false (Weak.check weak 0);
      Alcotest.(check int)
        (name "cancel purged") 1 (Runtime_mc.timer_stats pool).Runtime_mc.purged;
      wait_until (fun () -> Runtime.now rt > armed +. 0.35);
      Alcotest.(check bool) (name "callback never ran") false (Atomic.get ran))
    [ 1; 2 ]

(* A live timer among cancelled neighbours (one due at the same time,
   one a millisecond later) still fires, never before it is due, and at
   most 1 ms late; the median of ten is checked against that bound, so
   one preemption of the worker by the OS cannot fail the test. *)
let test_mc_live_timer_on_time () =
  with_pool ~domains:1 @@ fun _ rt ->
  let tick = 0.001 in
  let lateness =
    List.init 10 (fun i ->
        let delay = 0.02 +. (float_of_int i *. 0.0003) in
        let fired = Atomic.make None in
        let due = Runtime.now rt +. delay in
        (rt.Runtime.timer ~delay ignore).Runtime.tcancel ();
        ignore
          (rt.Runtime.timer ~delay (fun () ->
               Atomic.set fired (Some (Runtime.now rt))));
        (rt.Runtime.timer ~delay:(delay +. tick) ignore).Runtime.tcancel ();
        wait_until (fun () -> Atomic.get fired <> None);
        Option.get (Atomic.get fired) -. due)
  in
  List.iter
    (fun late ->
      Alcotest.(check bool)
        (Printf.sprintf "fired %.0f us after due, not before" (late *. 1e6))
        true (late >= 0.))
    lateness;
  let median = List.nth (List.sort compare lateness) 5 in
  Alcotest.(check bool)
    (Printf.sprintf "median lateness %.0f us within one tick" (median *. 1e6))
    true (median <= tick)

(* Timers armed in shuffled order with distinct due times, half of them
   then cancelled in another shuffled order (cancels remove entries from
   the middle of the queue): exactly the live ones fire, each once, none
   early, and in due order. The runtime reads the clock again when it
   arms, so timer [i] is really due somewhere in
   [due i, due i + slack.(i)], where [slack.(i)] is how long its arm
   took; two timers may fire swapped only when those windows overlap
   (a stall while arming), so without a stall the order is strict. *)
let test_mc_timers_fire_in_due_order () =
  with_pool ~domains:1 @@ fun pool rt ->
  let n = 2000 in
  let rng = Random.State.make [| 35 |] in
  let shuffled () =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  (* Timer [i] is due at [base + i * 20 us]. *)
  let base = Runtime.now rt +. 0.2 in
  let due i = base +. (float_of_int i *. 20e-6) in
  let order = ref [] and early = Atomic.make 0 and lock = Mutex.create () in
  let handles = Array.make n None and slack = Array.make n 0. in
  Array.iter
    (fun i ->
      let before = Runtime.now rt in
      handles.(i) <-
        Some
          (rt.Runtime.timer ~delay:(due i -. before) (fun () ->
               if Runtime.now rt < due i then Atomic.incr early;
               Mutex.lock lock;
               order := i :: !order;
               Mutex.unlock lock));
      slack.(i) <- Runtime.now rt -. before)
    (shuffled ());
  let cancelled = Array.make n false in
  Array.iteri
    (fun k i ->
      if k mod 2 = 0 then begin
        cancelled.(i) <- true;
        (Option.get handles.(i)).Runtime.tcancel ()
      end)
    (shuffled ());
  let live = List.filter (fun i -> not cancelled.(i)) (List.init n Fun.id) in
  let fired () =
    Mutex.lock lock;
    let l = List.rev !order in
    Mutex.unlock lock;
    l
  in
  wait_until (fun () -> List.length (fired ()) >= List.length live);
  Thread.delay 0.05;
  let fired = fired () in
  Alcotest.(check (list int)) "live timers, once each" live
    (List.sort compare fired);
  let overlap a b = due a <= due b +. slack.(b) in
  let rec swaps = function
    | [] -> []
    | a :: rest ->
        List.filter_map
          (fun b -> if a > b && not (overlap a b) then Some (a, b) else None)
          rest
        @ swaps rest
  in
  Alcotest.(check (list (pair int int)))
    "no two timers with disjoint due windows fire swapped" [] (swaps fired);
  Alcotest.(check int) "none early" 0 (Atomic.get early);
  let st = Runtime_mc.timer_stats pool in
  Alcotest.(check int) "fired" (List.length live) st.Runtime_mc.fired;
  Alcotest.(check int) "purged" (n - List.length live) st.Runtime_mc.purged

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let test_mc_try_await_idle_prompt () =
  with_pool ~domains:1 @@ fun pool rt ->
  Runtime.spawn rt (fun () -> Runtime.sleep rt 0.02);
  let idle, took = timed (fun () -> Runtime_mc.try_await_idle pool ~timeout:5.) in
  Alcotest.(check bool) "idle" true idle;
  Alcotest.(check bool)
    (Printf.sprintf "returned after %.3f s, not at the timeout" took)
    true (took < 1.)

let test_mc_try_await_idle_times_out () =
  with_pool ~domains:1 @@ fun pool rt ->
  let g = rt.Runtime.gate () in
  Runtime.spawn rt (fun () -> g.Runtime.await ());
  (* Opened even on failure: shutdown waits for every fiber. *)
  Fun.protect ~finally:g.Runtime.open_ (fun () ->
      let idle, took =
        timed (fun () -> Runtime_mc.try_await_idle pool ~timeout:0.1)
      in
      Alcotest.(check bool) "stuck task reported" false idle;
      Alcotest.(check bool)
        (Printf.sprintf "gave up after %.3f s" took)
        true
        (took >= 0.1 && took < 1.));
  Runtime_mc.await_idle pool

(* The wait must end at its timeout even while worker 0 is busy: a
   task there that never suspends (which the blocking contract
   forbids, and which a soak may hit) keeps its dispatcher from any
   timer. *)
let test_mc_try_await_idle_worker_busy () =
  with_pool ~domains:1 @@ fun pool rt ->
  let spin_until = Runtime.now rt +. 0.6 in
  Runtime.spawn rt (fun () ->
      while Runtime.now rt < spin_until do Domain.cpu_relax () done);
  let idle, took =
    timed (fun () -> Runtime_mc.try_await_idle pool ~timeout:0.1)
  in
  Alcotest.(check bool) "busy task reported" false idle;
  Alcotest.(check bool)
    (Printf.sprintf "gave up after %.3f s, before the task ended" took)
    true
    (took >= 0.1 && took < 0.4);
  Runtime_mc.await_idle pool

(* After shutdown no worker runs: the wait must return at once. *)
let test_mc_try_await_idle_after_shutdown () =
  let pool = Runtime_mc.create ~domains:1 () in
  Runtime_mc.shutdown pool;
  let idle, took =
    timed (fun () -> Runtime_mc.try_await_idle pool ~timeout:10.)
  in
  Alcotest.(check bool) "nothing live" true idle;
  Alcotest.(check bool) (Printf.sprintf "prompt (%.3f s)" took) true (took < 1.);
  (* A task spawned after shutdown never runs. *)
  Runtime.spawn (Runtime_mc.runtime pool) ignore;
  let idle, took =
    timed (fun () -> Runtime_mc.try_await_idle pool ~timeout:10.)
  in
  Alcotest.(check bool) "task still live" false idle;
  Alcotest.(check bool) (Printf.sprintf "prompt (%.3f s)" took) true (took < 1.)

let () =
  Alcotest.run "runtime"
    [
      conformance "sim" sim_harness;
      conformance "mc" mc_harness;
      ( "mc races",
        [
          Alcotest.test_case "mailbox close races concurrent senders" `Quick
            test_mc_mailbox_close_race;
          Alcotest.test_case "spawn cursor wraps past max_int" `Quick
            test_mc_spawn_cursor_wrap;
        ] );
      ( "mc scheduler",
        [
          Alcotest.test_case "1000 blocked tasks start no OS thread" `Quick
            test_mc_blocked_tasks_start_no_thread;
          Alcotest.test_case "ivar across the pool boundary" `Quick
            test_mc_ivar_across_pool_boundary;
          Alcotest.test_case "a pool starts no OS thread beyond its domains"
            `Quick test_mc_pool_starts_no_extra_thread;
        ] );
      ( "mc timers",
        [
          Alcotest.test_case "cancelled timers wake nothing" `Quick
            test_mc_cancelled_timers_no_wakeups;
          Alcotest.test_case "cancel drops the callback" `Quick
            test_mc_cancel_drops_callback;
          Alcotest.test_case "live timer fires on time" `Quick
            test_mc_live_timer_on_time;
          Alcotest.test_case "timers fire in due order" `Quick
            test_mc_timers_fire_in_due_order;
          Alcotest.test_case "try_await_idle returns when idle" `Quick
            test_mc_try_await_idle_prompt;
          Alcotest.test_case "try_await_idle times out" `Quick
            test_mc_try_await_idle_times_out;
          Alcotest.test_case "try_await_idle times out past a busy worker"
            `Quick test_mc_try_await_idle_worker_busy;
          Alcotest.test_case "try_await_idle after shutdown" `Quick
            test_mc_try_await_idle_after_shutdown;
        ] );
      ( "multicore soak",
        [
          Alcotest.test_case "4-domain register history linearizable" `Quick
            test_mc_soak_linearizable;
        ] );
    ]
