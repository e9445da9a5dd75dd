(* Tests for the crash-recovery brick shell. *)

let make () =
  let e = Dessim.Engine.create () in
  let rt = Runtime_sim.of_engine e in
  let metrics = Metrics.Registry.create () in
  (rt, metrics, Brick.create ~metrics rt ~id:3)

let test_identity () =
  let _, _, b = make () in
  Alcotest.(check int) "id" 3 (Brick.id b);
  Alcotest.(check bool) "alive initially" true (Brick.is_alive b)

let test_crash_recover_cycle () =
  let _, _, b = make () in
  Brick.crash b;
  Alcotest.(check bool) "crashed" false (Brick.is_alive b);
  Brick.crash b;
  Alcotest.(check int) "idempotent crash count" 1 (Brick.crash_count b);
  Brick.recover b;
  Alcotest.(check bool) "alive again" true (Brick.is_alive b);
  Brick.crash b;
  Alcotest.(check int) "counts each real crash" 2 (Brick.crash_count b)

let test_crash_hooks_run_once () =
  let _, _, b = make () in
  let runs = ref 0 in
  ignore (Brick.add_crash_hook b (fun () -> incr runs));
  Brick.crash b;
  Alcotest.(check int) "ran" 1 !runs;
  Brick.recover b;
  Brick.crash b;
  Alcotest.(check int) "hooks are one-shot" 1 !runs

let test_remove_crash_hook () =
  let _, _, b = make () in
  let runs = ref 0 in
  let h = Brick.add_crash_hook b (fun () -> incr runs) in
  Brick.remove_crash_hook b h;
  Brick.crash b;
  Alcotest.(check int) "removed hook silent" 0 !runs

let test_hook_may_register_hooks () =
  let _, _, b = make () in
  let second = ref false in
  ignore
    (Brick.add_crash_hook b (fun () ->
         ignore (Brick.add_crash_hook b (fun () -> second := true))));
  Brick.crash b;
  Alcotest.(check bool) "no reentrant firing" false !second;
  Brick.recover b;
  Brick.crash b;
  Alcotest.(check bool) "registered for next crash" true !second

let test_io_accounting () =
  let _, m, b = make () in
  Brick.count_disk_read b;
  Brick.count_disk_read b;
  Brick.count_disk_write b;
  Brick.count_nvram_write b;
  Alcotest.(check (float 0.0)) "reads" 2. (Metrics.Registry.value m "disk.reads");

  Alcotest.(check (float 0.0)) "writes" 1. (Metrics.Registry.value m "disk.writes");
  Alcotest.(check (float 0.0)) "nvram" 1. (Metrics.Registry.value m "nvram.writes")

let () =
  Alcotest.run "brick"
    [
      ( "brick",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "crash/recover cycle" `Quick test_crash_recover_cycle;
          Alcotest.test_case "crash hooks run once" `Quick test_crash_hooks_run_once;
          Alcotest.test_case "remove hook" `Quick test_remove_crash_hook;
          Alcotest.test_case "hook registers hook" `Quick test_hook_may_register_hooks;
          Alcotest.test_case "io accounting" `Quick test_io_accounting;
        ] );
    ]
