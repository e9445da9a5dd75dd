(* Microbenchmarks (Bechamel): raw throughput of the erasure-coding
   and version-log primitives this implementation hand-rolls — the
   compute cost a FAB brick pays per block.

   Six groups:
   - "erasure": the codec-level primitives (encode/decode/modify) under
     the default (fastest available) GF(2^8) kernel;
   - "kernel": the 64-bit-wide XOR that delta computation uses, plus
     one single-coefficient multiply-accumulate per available kernel
     and SIMD level ("c_simd@L" is level L);
   - "fused": the fused all-parity-rows encode of rs(10,14), once per
     available kernel and SIMD level — each SIMD loop against the
     portable C loop and the scalar oracle;
   - "plan": decode with a warm decode-plan cache vs re-running
     Gaussian elimination on every call;
   - "slog": the version log's entry checksum, and the [Slog.head]
     query a targeted replica read makes, at 4 KiB and 64 KiB blocks;
   - "crc32c": each available CRC32C path on one 64 KiB block, hot (the
     same block every call, so it stays in cache) and cold (a random
     block of a 64 MiB set per call, so it comes from memory).

   [json_out] (set by bench/main.ml's --json flag) additionally writes
   every row to BENCH_micro.json so the perf trajectory is
   machine-tracked; [smoke] (--smoke) shrinks the measurement quota so
   a CI alias can exercise the harness in well under a second.
   [check_gf] (--check-gf) is a pass/fail gate: where SIMD is
   available the c_simd kernel must encode rs(10,14) at least 2x faster
   than the portable C loop, and where level 3 (GFNI) is in use at
   least 1.5x faster than at level 2 (AVX2). [check_crc] (--check-crc)
   is another: where a hardware CRC32C path is in use it must hash
   64 KiB at least 2x faster than the portable slicing-by-8 path, and
   where the VPCLMULQDQ path is in use at least 2x faster than the
   SSE4.2 path. *)

open Bechamel
open Toolkit
module K = Gf256.Kernel

let json_out : string option ref = ref None
let smoke : bool ref = ref false

let block_size = 4096

let stripe m =
  Array.init m (fun i -> Bytes.make block_size (Char.chr (33 + i)))

(* Every available kernel, [C_simd] once per SIMD level:
   (label, impl, level), where [at level f] builds f's kernels at that
   level. *)
let kernel_variants () =
  List.concat_map
    (function
      | K.C_simd ->
          List.map
            (fun l -> (Printf.sprintf "c_simd@%d" l, K.C_simd, Some l))
            K.simd_levels
      | impl -> [ (K.name impl, impl, None) ])
    (K.available_impls ())

let at level f = match level with None -> f () | Some l -> K.with_simd_level l f

let kernel_tests () =
  let src = Bytes.init block_size (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let dst = Bytes.make block_size '\001' in
  let xor =
    Test.make ~name:"xor wide64"
      (Staged.stage (fun () -> Gf256.Field.mul_slice ~dst ~src 1))
  in
  (* One dispatched single-coefficient multiply-accumulate per available
     kernel and SIMD level: what a parity-delta application costs under
     each. *)
  let mul_acc (label, impl, level) =
    let mul = at level (fun () -> K.make_mul impl 0xb7) in
    Test.make ~name:("mul_acc " ^ label)
      (Staged.stage (fun () -> K.mul_acc mul ~dst ~src))
  in
  xor :: List.map mul_acc (kernel_variants ())

let erasure_tests () =
  let mk_codec name codec m =
    let data = stripe m in
    let enc = Erasure.Codec.encode codec data in
    let n = Erasure.Codec.n codec in
    let decode_input = List.init m (fun i -> (n - m + i, enc.(n - m + i))) in
    let new_block = Bytes.make block_size 'z' in
    [
      Test.make ~name:(name ^ " encode")
        (Staged.stage (fun () -> ignore (Erasure.Codec.encode codec data)));
      Test.make
        ~name:(name ^ " decode (parity-heavy)")
        (Staged.stage (fun () ->
             ignore (Erasure.Codec.decode codec decode_input)));
      Test.make ~name:(name ^ " modify")
        (Staged.stage (fun () ->
             ignore
               (Erasure.Codec.modify codec ~data_idx:0 ~parity_idx:0
                  ~old_data:data.(0) ~new_data:new_block ~old_parity:enc.(m))));
    ]
  in
  mk_codec "rs(5,8)" (Erasure.Codec.rs ~m:5 ~n:8 ()) 5
  @ mk_codec "rs(10,14)" (Erasure.Codec.rs ~m:10 ~n:14 ()) 10
  @ mk_codec "parity(4,5)" (Erasure.Codec.parity ~m:4 ()) 4

(* The fused all-parity encode of rs(10,14), head to head across every
   kernel backend and SIMD level available on this machine. encode_into
   with pinned output buffers, so the rows measure pure kernel work. *)
let fused_m = 10
let fused_n = 14

let fused_encode_test ?level impl =
  let codec =
    at level (fun () ->
        Erasure.Codec.rs ~kernel:impl ~m:fused_m ~n:fused_n ())
  in
  let data = stripe fused_m in
  let into =
    Array.init fused_n (fun i ->
        if i < fused_m then data.(i) else Bytes.create block_size)
  in
  (codec, data, into)

let fused_tests () =
  List.map
    (fun (label, impl, level) ->
      let codec, data, into = fused_encode_test ?level impl in
      Test.make
        ~name:("encode rs(10,14) " ^ label)
        (Staged.stage (fun () -> Erasure.Codec.encode_into codec data ~into)))
    (kernel_variants ())

(* Small blocks so plan construction (Gaussian elimination, O(m^3))
   dominates over slice work: this isolates what the decode-plan cache
   saves on every degraded read over an already-seen surviving set. *)
let plan_block_size = 64

let plan_tests () =
  let m = 10 and n = 14 in
  let codec = Erasure.Codec.rs ~m ~n () in
  let data =
    Array.init m (fun i -> Bytes.make plan_block_size (Char.chr (33 + i)))
  in
  let enc = Erasure.Codec.encode codec data in
  let decode_input = List.init m (fun i -> (n - m + i, enc.(n - m + i))) in
  let into = Array.init m (fun _ -> Bytes.create plan_block_size) in
  [
    Test.make ~name:"rs(10,14) decode cached plan"
      (Staged.stage (fun () ->
           Erasure.Codec.decode_into codec decode_input ~into));
    Test.make ~name:"rs(10,14) decode uncached plan"
      (Staged.stage (fun () ->
           Erasure.Codec.reset_plan_cache codec;
           Erasure.Codec.decode_into codec decode_input ~into));
  ]

(* The checksum every log query re-verifies, and a replica-read-shaped
   [head] on a two-entry log ((LowTS, nil) under one written block): it
   verifies the newest entry only. *)
let slog_tests size =
  let b = Bytes.init size (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let log = Core.Slog.create ~block_size:size in
  Core.Slog.add log (Core.Timestamp.make ~time:1 ~pid:0) (Some b);
  let kib = Printf.sprintf "%dKiB" (size / 1024) in
  [
    Test.make ~name:("checksum " ^ kib)
      (Staged.stage (fun () -> ignore (Core.Slog.checksum (Some b))));
    Test.make ~name:("head " ^ kib)
      (Staged.stage (fun () -> ignore (Core.Slog.head log)));
  ]

(* Each CRC32C path on a 64 KiB block. Hot hashes one block over and
   over; cold hashes the blocks of a 64 MiB set in a random order, so
   nearly every call reads its block from memory (the set is larger
   than the last-level cache) — what a read of a block that is not
   resident pays. "blit 64KiB cold" copies such a block into a hot
   buffer: what only moving a cold block costs, the yardstick for the
   cold hashes. *)
let crc_block = 65536

let crc_tests () =
  (* A power of two; the smoke run only exercises the rows. *)
  let cold_blocks = if !smoke then 16 else 1024 in
  let rng = Random.State.make [| 29 |] in
  let block () =
    let b = Bytes.create crc_block in
    for i = 0 to (crc_block / 8) - 1 do
      Bytes.set_int64_le b (8 * i) (Random.State.bits64 rng)
    done;
    b
  in
  let hot = block () in
  let cold = Array.init cold_blocks (fun _ -> block ()) in
  let order = Array.init cold_blocks Fun.id in
  for i = cold_blocks - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = ref 0 in
  let next_cold () =
    next := (!next + 1) land (cold_blocks - 1);
    cold.(order.(!next))
  in
  let into = Bytes.create crc_block in
  Test.make ~name:"blit 64KiB cold"
    (Staged.stage (fun () -> Bytes.blit (next_cold ()) 0 into 0 crc_block))
  :: List.concat_map
    (fun (name, crc) ->
      [
        Test.make ~name:(name ^ " 64KiB hot")
          (Staged.stage (fun () -> ignore (Sys.opaque_identity (crc hot))));
        Test.make ~name:(name ^ " 64KiB cold")
          (Staged.stage (fun () ->
               ignore (Sys.opaque_identity (crc (next_cold ())))));
      ])
    Core.Crc32c.paths

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let measure_group (group, tests, bytes_per_op) =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if !smoke then Time.second 0.005 else Time.second 0.25 in
  let limit = if !smoke then 50 else 1000 in
  let cfg = Benchmark.cfg ~limit ~quota ~kde:(Some 10) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:group ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] when ns > 0. ->
          let mbps = float_of_int bytes_per_op /. ns *. 1e9 /. 1e6 in
          (name, Some (ns, mbps)) :: acc
      | _ -> (name, None) :: acc)
    results []

let write_json path rows =
  (* Stamp run metadata (commit, date, geometry, selected kernel) so
     results files stay comparable across commits; see Obs.Meta. *)
  let open Obs.Json in
  let meta =
    Obs.Meta.standard
      ~extra:
        [
          ("tool", S "bench micro");
          ("block_size", I block_size);
          ("plan_block_size", I plan_block_size);
          ("gf_kernel", S (K.name (K.default ())));
          ("simd_level", I K.simd_level);
          ("crc32c", S Core.Crc32c.kernel);
        ]
      ()
  in
  let row (name, est) =
    let ns, mbps = match est with Some (ns, mb) -> (ns, mb) | None -> (0., 0.) in
    O [ ("name", S name); ("ns_per_op", F ns); ("mb_per_s", F mbps) ]
  in
  to_file path (O [ ("meta", O meta); ("rows", A (List.map row rows)) ]);
  Printf.printf "  wrote %d rows to %s\n" (List.length rows) path

let run () =
  Util.section "MICRO | codec and version-log primitive throughput";
  Printf.printf "  gf kernel: %s (simd level %d; available: %s)\n"
    (K.name (K.default ()))
    K.simd_level
    (String.concat " " (List.map K.name (K.available_impls ())));
  Printf.printf "  crc32c: %s\n" Core.Crc32c.kernel;
  let rows =
    List.concat_map measure_group
      [
        ("erasure", erasure_tests (), block_size);
        ("kernel", kernel_tests (), block_size);
        ("fused", fused_tests (), fused_m * block_size);
        ("plan", plan_tests (), plan_block_size);
        ("slog", slog_tests block_size, block_size);
        ("slog", slog_tests 65536, 65536);
        ("crc32c", crc_tests (), crc_block);
      ]
  in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Printf.printf "  %-38s %16s %16s\n" "primitive" "ns/op" "MB/s (per block)";
  List.iter
    (fun (name, est) ->
      match est with
      | Some (ns, mbps) ->
          Printf.printf "  %-38s %16.1f %16.1f\n" name ns mbps
      | None -> Printf.printf "  %-38s %16s %16s\n" name "(n/a)" "(n/a)")
    rows;
  match !json_out with None -> () | Some path -> write_json path rows

(* ------------------------------------------------------------------ *)
(* CI gates                                                            *)
(* ------------------------------------------------------------------ *)

(* Directly timed (not Bechamel: the smoke quota is too noisy for a
   pass/fail gate) encode comparisons. The SIMD loops exist only for
   speed: fail CI if, where they are in use, rs(10,14) encode_into is
   not at least 2x faster under c_simd than under the portable C loop,
   or, where level 3 (GFNI) is the probed level, not at least 1.5x
   faster at level 3 than at level 2 (AVX2). Without SIMD there is only
   the portable loop and nothing to gate. *)
let check_gf () =
  let time_encode ?level impl =
    let codec, data, into = fused_encode_test ?level impl in
    let iters = 200 in
    for _ = 1 to 20 do
      Erasure.Codec.encode_into codec data ~into
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Erasure.Codec.encode_into codec data ~into
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let fail what =
    Printf.eprintf "check-gf: FAIL: %s\n" what;
    exit 1
  in
  let portable_ns = time_encode K.C_portable in
  if not (K.available K.C_simd) then
    Printf.printf "check-gf: rs(10,14) encode_into  c_portable %.0f ns  (no SIMD)\n"
      portable_ns
  else begin
    let simd_ns = time_encode K.C_simd in
    Printf.printf
      "check-gf: rs(10,14) encode_into  c_simd %.0f ns  c_portable %.0f ns  \
       (%.2fx)\n"
      simd_ns portable_ns (portable_ns /. simd_ns);
    if simd_ns > portable_ns /. 2. then
      fail "c_simd kernel not 2x faster than the portable loop";
    if K.simd_level = 3 then begin
      let avx2_ns = time_encode ~level:2 K.C_simd in
      Printf.printf
        "check-gf: rs(10,14) encode_into  level 3 %.0f ns  level 2 %.0f ns  \
         (%.2fx)\n"
        simd_ns avx2_ns (avx2_ns /. simd_ns);
      if simd_ns > avx2_ns /. 1.5 then
        fail "level 3 (GFNI) not 1.5x faster than level 2 (AVX2)"
    end
  end

(* Directly timed, like [check_gf]. The hardware paths exist only for
   speed: fail CI if, where one is in use, it is not at least 2x faster
   than the portable loop on a 64 KiB block (the stream-large entry
   size), or, where the VPCLMULQDQ path is in use, not at least 2x
   faster than the SSE4.2 path on the same hot block. Without either
   there is only the portable loop and nothing to gate. *)
let check_crc () =
  let b = Bytes.init 65536 (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let time f =
    let iters = 2000 in
    for _ = 1 to 100 do
      ignore (Sys.opaque_identity (f b))
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f b))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let timed = List.map (fun (name, f) -> (name, time f)) Core.Crc32c.paths in
  let ns name = List.assoc name timed in
  let kernel_ns = ns Core.Crc32c.kernel and portable_ns = ns "portable" in
  Printf.printf "check-crc: crc32c 64KiB %s (%.2fx portable)\n"
    (String.concat "  "
       (List.map
          (fun (name, t) -> Printf.sprintf "%s %.0f ns (%.3f ns/B)" name t (t /. 65536.))
          timed))
    (portable_ns /. kernel_ns);
  let fail what =
    Printf.eprintf "check-crc: FAIL: %s\n" what;
    exit 1
  in
  if Core.Crc32c.kernel <> "portable" && kernel_ns > portable_ns /. 2. then
    fail (Core.Crc32c.kernel ^ " crc32c path not 2x faster than the portable path");
  if Core.Crc32c.kernel = "vpclmulqdq" && kernel_ns > ns "sse4.2" /. 2. then
    fail "vpclmulqdq crc32c path not 2x faster than the sse4.2 path"
