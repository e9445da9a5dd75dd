(* Tests for counters, snapshots, histograms and time series. *)

let test_counter () =
  let c = Metrics.Counter.create () in
  Alcotest.(check (float 0.0)) "zero" 0. (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.incr ~by:2.5 c;
  Alcotest.(check (float 0.0)) "accumulated" 3.5 (Metrics.Counter.value c);
  Metrics.Counter.reset c;
  Alcotest.(check (float 0.0)) "reset" 0. (Metrics.Counter.value c)

let test_registry_identity () =
  let r = Metrics.Registry.create () in
  let a = Metrics.Registry.counter r "x" in
  let b = Metrics.Registry.counter r "x" in
  Metrics.Counter.incr a;
  Alcotest.(check (float 0.0)) "same counter" 1. (Metrics.Counter.value b);
  Alcotest.(check (float 0.0)) "by name" 1. (Metrics.Registry.value r "x");
  Alcotest.(check (float 0.0)) "unknown is 0" 0. (Metrics.Registry.value r "y")

let test_registry_names_sorted () =
  let r = Metrics.Registry.create () in
  Metrics.Registry.incr r "zz";
  Metrics.Registry.incr r "aa";
  Metrics.Registry.incr r "mm";
  Alcotest.(check (list string)) "sorted" [ "aa"; "mm"; "zz" ]
    (Metrics.Registry.names r)

let test_snapshot_diff () =
  let r = Metrics.Registry.create () in
  Metrics.Registry.incr ~by:5. r "a";
  let before = Metrics.Snapshot.take r in
  Metrics.Registry.incr ~by:3. r "a";
  Metrics.Registry.incr r "b";
  let after = Metrics.Snapshot.take r in
  let delta name =
    Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name
  in
  Alcotest.(check (float 0.0)) "a" 3. (delta "a");
  Alcotest.(check (float 0.0)) "b, absent before" 1. (delta "b");
  Alcotest.(check (float 0.0)) "get" 5. (Metrics.Snapshot.get before "a")

(* ---- summary statistics of a histogram ---- *)

(* [Hist] reports count, mean, min and max exactly and a percentile
   within its relative error of the true sample at that rank. *)
let check_near name expected h p =
  let got = Metrics.Hist.percentile h p in
  if Float.abs (got -. expected) > Metrics.Hist.relative_error h *. expected
  then Alcotest.failf "%s: p%g = %g, want %g within %g" name p got expected
      (Metrics.Hist.relative_error h)

let of_list vs =
  let h = Metrics.Hist.create () in
  List.iter (Metrics.Hist.add h) vs;
  h

let test_summary_stats () =
  let s = of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "count" 8 (Metrics.Hist.count s);
  Alcotest.(check (float 1e-9)) "mean" 5. (Metrics.Hist.mean s);
  Alcotest.(check (float 0.0)) "min" 2. (Metrics.Hist.min s);
  Alcotest.(check (float 0.0)) "max" 9. (Metrics.Hist.max s);
  check_near "median" 4. s 50.;
  Alcotest.(check (float 0.0)) "p100" 9. (Metrics.Hist.percentile s 100.)

let test_summary_percentile_edges () =
  let s = Metrics.Hist.create () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Metrics.Hist.percentile: empty") (fun () ->
      ignore (Metrics.Hist.percentile s 50.));
  Metrics.Hist.add s 1.;
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g" p)
        (Invalid_argument "Metrics.Hist.percentile: p out of [0,100]")
        (fun () -> ignore (Metrics.Hist.percentile s p)))
    [ -1.; 100.5; 150. ];
  Alcotest.(check (float 0.0)) "single value" 1.
    (Metrics.Hist.percentile s 99.)

let test_summary_incremental_after_percentile () =
  (* A percentile read must not freeze the distribution. *)
  let s = of_list [ 10. ] in
  Alcotest.(check (float 0.0)) "first" 10. (Metrics.Hist.percentile s 50.);
  Metrics.Hist.add s 1.;
  check_near "updated" 1. s 50.

let test_summary_merge () =
  let a = of_list [ 1.; 2.; 3. ] in
  let b = of_list [ 10.; 20. ] in
  let m = Metrics.Hist.merge a b in
  Alcotest.(check int) "count" 5 (Metrics.Hist.count m);
  Alcotest.(check (float 1e-9)) "mean" 7.2 (Metrics.Hist.mean m);
  Alcotest.(check (float 0.0)) "min" 1. (Metrics.Hist.min m);
  Alcotest.(check (float 0.0)) "max" 20. (Metrics.Hist.max m);
  check_near "median" 3. m 50.;
  (* pooled buckets equal one histogram over the concatenated series *)
  let flat = of_list [ 1.; 2.; 3.; 10.; 20. ] in
  Alcotest.(check bool) "pooled buckets" true
    (Metrics.Hist.buckets flat = Metrics.Hist.buckets m);
  (* inputs unchanged *)
  Alcotest.(check int) "a untouched" 3 (Metrics.Hist.count a);
  Alcotest.(check int) "b untouched" 2 (Metrics.Hist.count b)

let test_summary_merge_empty () =
  let e = Metrics.Hist.create () in
  let m0 = Metrics.Hist.merge e (Metrics.Hist.create ()) in
  Alcotest.(check int) "empty+empty" 0 (Metrics.Hist.count m0);
  let a = of_list [ 4.; 6. ] in
  let left = Metrics.Hist.merge e a in
  let right = Metrics.Hist.merge a e in
  List.iter
    (fun (name, m) ->
      Alcotest.(check int) (name ^ " count") 2 (Metrics.Hist.count m);
      Alcotest.(check (float 1e-9)) (name ^ " mean") 5. (Metrics.Hist.mean m);
      Alcotest.(check bool) (name ^ " buckets") true
        (Metrics.Hist.buckets a = Metrics.Hist.buckets m);
      Alcotest.(check (float 0.0)) (name ^ " median")
        (Metrics.Hist.percentile a 50.)
        (Metrics.Hist.percentile m 50.))
    [ ("left identity", left); ("right identity", right) ]

(* ---- HDR histogram ---- *)

let test_hist_basics () =
  let h = Metrics.Hist.create () in
  Alcotest.(check int) "empty" 0 (Metrics.Hist.count h);
  Alcotest.(check (float 0.0)) "empty mean" 0. (Metrics.Hist.mean h);
  List.iter (Metrics.Hist.add h) [ 0.; 1.; 2.; 4.; 1000. ];
  Metrics.Hist.add ~count:3 h 2.;
  Alcotest.(check int) "count" 8 (Metrics.Hist.count h);
  (* the mean is exact: (0 + 1 + 2 + 4 + 1000 + 3 * 2) / 8 *)
  Alcotest.(check (float 1e-9)) "mean" (1013. /. 8.) (Metrics.Hist.mean h);
  Alcotest.(check (float 0.0)) "min" 0. (Metrics.Hist.min h);
  Alcotest.(check (float 0.0)) "max" 1000. (Metrics.Hist.max h);
  (* p0 / p100 clamp to the exact observed extremes. *)
  Alcotest.(check (float 0.0)) "p0" 0. (Metrics.Hist.percentile h 0.);
  Alcotest.(check (float 0.0)) "p100" 1000. (Metrics.Hist.percentile h 100.);
  (* count_above is strictly-above at bucket granularity: a threshold
     sharing the top value's bucket excludes it. *)
  Alcotest.(check int) "above 500" 1 (Metrics.Hist.count_above h 500.);
  Alcotest.(check int) "above 999 (same bucket as 1000)" 0
    (Metrics.Hist.count_above h 999.);
  Alcotest.(check int) "above 1000" 0 (Metrics.Hist.count_above h 1000.);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Metrics.Hist.add: value must be finite and >= 0")
    (fun () -> Metrics.Hist.add h (-1.));
  Alcotest.check_raises "nan"
    (Invalid_argument "Metrics.Hist.add: value must be finite and >= 0")
    (fun () -> Metrics.Hist.add h Float.nan)

let test_hist_merge_precision_mismatch () =
  let a = Metrics.Hist.create ~sub_bits:4 () in
  let b = Metrics.Hist.create ~sub_bits:5 () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Metrics.Hist.merge: sub_bits differ") (fun () ->
      ignore (Metrics.Hist.merge a b))

(* Exact nearest-rank percentile over a sorted array, the ground truth
   the histogram approximates. *)
let exact_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Every reported percentile must sit within the histogram's
   advertised relative error of the true sample at the same rank —
   the property that makes p99.9 trustworthy at millions of ops. *)
let check_percentiles name h sorted =
  let tol = Metrics.Hist.relative_error h in
  List.iter
    (fun p ->
      let truth = exact_percentile sorted p in
      let approx = Metrics.Hist.percentile h p in
      let rel =
        if truth = 0. then Float.abs approx
        else Float.abs (approx -. truth) /. truth
      in
      if rel > tol +. 1e-12 then
        Alcotest.failf "%s p%g: hist %g vs exact %g (rel err %.5f > %.5f)"
          name p approx truth rel tol)
    [ 50.; 90.; 99.; 99.9; 99.99 ]

let adversarial_cases =
  (* Each case: a name and a generator of one sample from a seeded
     PRNG state. A million draws per case. *)
  [
    ( "bimodal",
      fun st ->
        (* fast path near 1 delta, stragglers near 1000 delta — the
           shape a crashed brick induces on reads *)
        if Random.State.bool st then 0.5 +. Random.State.float st 1.
        else 900. +. Random.State.float st 200. );
    ( "heavy-tail",
      fun st ->
        (* Pareto alpha=1.1: infinite-variance tail, the worst case
           for sampling reservoirs *)
        let u = 1. -. Random.State.float st 0.999999 in
        1. /. (u ** (1. /. 1.1)) );
    ( "nine-nines-spike",
      fun st ->
        (* uniform bulk with a 0.05% spike three decades out — p99.9
           sits right at the cliff edge *)
        if Random.State.int st 2000 = 0 then 5000. +. Random.State.float st 1.
        else Random.State.float st 5. );
  ]

let test_hist_property () =
  let n = 1_000_000 in
  List.iter
    (fun (name, gen) ->
      let st = Random.State.make [| 0xFAB; String.length name |] in
      let h = Metrics.Hist.create () in
      let values = Array.init n (fun _ -> gen st) in
      Array.iter (Metrics.Hist.add h) values;
      Alcotest.(check int) (name ^ " exact count") n (Metrics.Hist.count h);
      Array.sort compare values;
      check_percentiles name h values;
      (* A sampling reservoir would be allowed to drift here; the
         histogram's extremes may not. *)
      Alcotest.(check (float 0.0))
        (name ^ " exact min") values.(0) (Metrics.Hist.min h);
      Alcotest.(check (float 0.0))
        (name ^ " exact max") values.(n - 1) (Metrics.Hist.max h))
    adversarial_cases

let test_hist_merge_property () =
  (* Merging shards must agree with one histogram over the union, and
     must be associative: (a+b)+c = a+(b+c) on every observable except
     float mean (checked to tolerance). *)
  let st = Random.State.make [| 42 |] in
  let parts =
    List.map
      (fun (_, gen) ->
        let h = Metrics.Hist.create () in
        let vs = Array.init 50_000 (fun _ -> gen st) in
        Array.iter (Metrics.Hist.add h) vs;
        (h, vs))
      adversarial_cases
  in
  let a, b, c =
    match parts with [ a; b; c ] -> (a, b, c) | _ -> assert false
  in
  let flat = Metrics.Hist.create () in
  List.iter (fun (_, vs) -> Array.iter (Metrics.Hist.add flat) vs) parts;
  let left = Metrics.Hist.merge (Metrics.Hist.merge (fst a) (fst b)) (fst c) in
  let right = Metrics.Hist.merge (fst a) (Metrics.Hist.merge (fst b) (fst c)) in
  List.iter
    (fun (name, m) ->
      Alcotest.(check int) (name ^ " count") (Metrics.Hist.count flat)
        (Metrics.Hist.count m);
      Alcotest.(check (float 0.0)) (name ^ " min") (Metrics.Hist.min flat)
        (Metrics.Hist.min m);
      Alcotest.(check (float 0.0)) (name ^ " max") (Metrics.Hist.max flat)
        (Metrics.Hist.max m);
      Alcotest.(check (float 1e-6)) (name ^ " mean") (Metrics.Hist.mean flat)
        (Metrics.Hist.mean m);
      List.iter
        (fun p ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s p%g" name p)
            (Metrics.Hist.percentile flat p)
            (Metrics.Hist.percentile m p))
        [ 50.; 99.; 99.9 ];
      (* bucket-exact equality with the flat histogram *)
      Alcotest.(check bool) (name ^ " buckets") true
        (Metrics.Hist.buckets flat = Metrics.Hist.buckets m))
    [ ("left assoc", left); ("right assoc", right) ];
  (* inputs unchanged *)
  Alcotest.(check int) "a untouched" 50_000 (Metrics.Hist.count (fst a))

(* ---- time series ---- *)

let test_timeseries_windows () =
  let ts = Metrics.Timeseries.create ~width:10. () in
  Alcotest.(check (option (pair int int))) "empty span" None
    (Metrics.Timeseries.span ts);
  Alcotest.(check int) "window_of" 2 (Metrics.Timeseries.window_of ts 25.);
  Alcotest.(check (float 0.0)) "window_start" 20.
    (Metrics.Timeseries.window_start ts 2);
  Metrics.Timeseries.incr ts ~time:5. "ops";
  Metrics.Timeseries.incr ts ~time:25. ~by:3. "ops";
  Metrics.Timeseries.observe ts ~time:25. "lat" 4.;
  Metrics.Timeseries.observe ts ~time:27. "lat" 8.;
  Alcotest.(check (option (pair int int))) "span" (Some (0, 2))
    (Metrics.Timeseries.span ts);
  (* counter series is zero-filled over the span *)
  Alcotest.(check (list (pair int (float 0.0))))
    "series" [ (0, 1.); (1, 0.); (2, 3.) ]
    (Metrics.Timeseries.counter_series ts "ops");
  Alcotest.(check (float 0.0)) "total" 4. (Metrics.Timeseries.total ts "ops");
  (* per-window percentile: None where the window has no data *)
  (match Metrics.Timeseries.percentile_series ts "lat" 50. with
  | [ (0, None); (1, None); (2, Some p) ] ->
      Alcotest.(check bool) "p50 near 4" true (Float.abs (p -. 4.) /. 4. < 0.05)
  | other ->
      Alcotest.failf "unexpected percentile series (%d entries)"
        (List.length other));
  (* pooled histogram sees both observations *)
  match Metrics.Timeseries.merged_hist ts "lat" with
  | None -> Alcotest.fail "merged_hist"
  | Some h ->
      Alcotest.(check int) "merged count" 2 (Metrics.Hist.count h);
      Alcotest.(check (float 0.0)) "merged max" 8. (Metrics.Hist.max h)

let test_timeseries_validation () =
  Alcotest.check_raises "width"
    (Invalid_argument "Metrics.Timeseries.create: width <= 0")
    (fun () -> ignore (Metrics.Timeseries.create ~width:0. ()))

let () =
  Alcotest.run "metrics"
    [
      ( "counters",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "registry identity" `Quick test_registry_identity;
          Alcotest.test_case "names sorted" `Quick test_registry_names_sorted;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
        ] );
      ( "summary",
        [
          Alcotest.test_case "statistics" `Quick test_summary_stats;
          Alcotest.test_case "percentile edges" `Quick test_summary_percentile_edges;
          Alcotest.test_case "cache invalidation" `Quick
            test_summary_incremental_after_percentile;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          Alcotest.test_case "merge empty" `Quick test_summary_merge_empty;
        ] );
      ( "hist",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "merge precision mismatch" `Quick
            test_hist_merge_precision_mismatch;
          Alcotest.test_case "percentile error bound (1e6 adversarial)" `Slow
            test_hist_property;
          Alcotest.test_case "merge associative + exact" `Quick
            test_hist_merge_property;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "windows" `Quick test_timeseries_windows;
          Alcotest.test_case "validation" `Quick test_timeseries_validation;
        ] );
    ]
