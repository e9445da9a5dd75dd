(* Microbenchmarks (Bechamel): raw throughput of the erasure-coding
   and version-log primitives this implementation hand-rolls — the
   compute cost a FAB brick pays per block.

   Five groups:
   - "erasure": the codec-level primitives (encode/decode/modify) under
     the default (fastest available) GF(2^8) kernel;
   - "kernel": the GF(2^8) slice kernels against the reference
     implementations they replaced (64-bit-wide XOR vs byte-at-a-time,
     coefficient product table vs branchy log/exp lookups), plus one
     dispatched single-coefficient row per available kernel backend;
   - "fused": the fused all-parity-rows encode of rs(10,14), once per
     available kernel backend — the head-to-head the split-table and
     SIMD work is judged by;
   - "plan": decode with a warm decode-plan cache vs re-running
     Gaussian elimination on every call;
   - "slog": the version log's entry checksum, and the [Slog.head]
     query a targeted replica read makes, at 4 KiB and 64 KiB blocks.

   [json_out] (set by bench/main.ml's --json flag) additionally writes
   every row to BENCH_micro.json so the perf trajectory is
   machine-tracked; [smoke] (--smoke) shrinks the measurement quota so
   a CI alias can exercise the harness in well under a second.
   [check_split] (--check-split) is a pass/fail gate: the split64
   kernel must not regress below the table kernel on rs(10,14) encode.
   [check_crc] (--check-crc) is another: where the SSE4.2 CRC32C path
   is in use it must hash 64 KiB at least 2x faster than the portable
   slicing-by-8 path. *)

open Bechamel
open Toolkit
module K = Gf256.Kernel

let json_out : string option ref = ref None
let smoke : bool ref = ref false

let block_size = 4096

let stripe m =
  Array.init m (fun i -> Bytes.make block_size (Char.chr (33 + i)))

(* ------------------------------------------------------------------ *)
(* Reference kernels (the pre-optimization implementations), kept here
   so every future run can compare the fast paths against them.        *)
(* ------------------------------------------------------------------ *)

let ref_exp = Array.init 510 (fun i -> Gf256.Field.exp_table i)
let ref_log = Array.init 256 (fun a -> if a = 0 then 0 else Gf256.Field.log_table a)

(* Byte-at-a-time XOR accumulate (the old c = 1 path). *)
let scalar_xor_slice ~dst ~src =
  for i = 0 to Bytes.length src - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i)
         lxor Char.code (Bytes.unsafe_get src i)))
  done

(* Zero-test plus two table lookups per byte (the old general path). *)
let logexp_mul_slice ~dst ~src c =
  let lc = ref_log.(c) in
  for i = 0 to Bytes.length src - 1 do
    let s = Char.code (Bytes.unsafe_get src i) in
    if s <> 0 then
      Bytes.unsafe_set dst i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get dst i) lxor ref_exp.(lc + ref_log.(s))))
  done

let kernel_tests () =
  let src = Bytes.init block_size (fun i -> Char.chr ((i * 7 + 3) land 0xff)) in
  let dst = Bytes.make block_size '\001' in
  let c = 0xb7 in
  let table = Gf256.Field.mul_table c in
  [
    Test.make ~name:"xor wide64"
      (Staged.stage (fun () -> Gf256.Field.mul_slice ~dst ~src 1));
    Test.make ~name:"xor scalar"
      (Staged.stage (fun () -> scalar_xor_slice ~dst ~src));
    Test.make ~name:"mul table"
      (Staged.stage (fun () -> Gf256.Field.mul_table_slice ~dst ~src table));
    Test.make ~name:"mul log/exp"
      (Staged.stage (fun () -> logexp_mul_slice ~dst ~src c));
  ]
  (* One dispatched single-coefficient multiply-accumulate per available
     backend: what a parity-delta application costs under each kernel. *)
  @ List.map
      (fun impl ->
        let mul = K.make_mul impl c in
        Test.make
          ~name:("mul_acc " ^ K.name impl)
          (Staged.stage (fun () -> K.mul_acc mul ~dst ~src)))
      (K.available_impls ())

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
   kernel backend available on this machine. encode_into with pinned
   output buffers, so the rows measure pure kernel work. *)
let fused_m = 10
let fused_n = 14

let fused_codec impl = Erasure.Codec.rs ~kernel:impl ~m:fused_m ~n:fused_n ()

let fused_encode_test impl =
  let codec = fused_codec impl in
  let data = stripe fused_m in
  let into =
    Array.init fused_n (fun i ->
        if i < fused_m then data.(i) else Bytes.create block_size)
  in
  (codec, data, into)

let fused_tests () =
  List.map
    (fun impl ->
      let codec, data, into = fused_encode_test impl in
      Test.make
        ~name:("encode rs(10,14) " ^ K.name impl)
        (Staged.stage (fun () -> Erasure.Codec.encode_into codec data ~into)))
    (K.available_impls ())

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
  let oc = open_out path in
  (* Stamp run metadata (commit, date, geometry, selected kernel) so
     results files stay comparable across commits; see Obs.Meta. *)
  let meta =
    Obs.Meta.standard
      ~extra:
        Obs.Json.
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
  Printf.fprintf oc "{\"meta\": %s,\n \"rows\": [\n"
    (Obs.Json.obj meta);
  let total = List.length rows in
  List.iteri
    (fun i (name, est) ->
      let ns, mbps = match est with Some (ns, mb) -> (ns, mb) | None -> (0., 0.) in
      Printf.fprintf oc
        "  {\"name\": %S, \"ns_per_op\": %.1f, \"mb_per_s\": %.1f}%s\n" name ns
        mbps
        (if i = total - 1 then "" else ","))
    rows;
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "  wrote %d rows to %s\n" total path

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

let list_kernels () =
  List.iter (fun impl -> print_endline (K.name impl)) (K.available_impls ())

(* Directly timed (not Bechamel: the smoke quota is too noisy for a
   pass/fail gate) encode comparison. The split64 kernel exists to beat
   the table kernel on fused multi-row maps; fail CI if it ever drops
   below 0.9x table throughput on the reference rs(10,14) encode. *)
let check_split () =
  let time_encode impl =
    let codec, data, into = fused_encode_test impl in
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
  let table_ns = time_encode K.Table in
  let split_ns = time_encode K.Split64 in
  Printf.printf
    "check-split: rs(10,14) encode_into  table %.0f ns  split64 %.0f ns  (%.2fx)\n"
    table_ns split_ns (table_ns /. split_ns);
  if split_ns > table_ns /. 0.9 then begin
    Printf.eprintf
      "check-split: FAIL: split64 kernel slower than 0.9x table kernel\n";
    exit 1
  end

(* Directly timed, like [check_split]. The SSE4.2 path exists only for
   speed: fail CI if, where it is in use, it is not at least 2x faster
   than the portable loop on a 64 KiB block (the stream-large entry
   size). Without SSE4.2 both calls run the same loop and there is
   nothing to gate. *)
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
  let kernel_ns = time Core.Crc32c.bytes in
  let portable_ns = time Core.Crc32c.portable in
  Printf.printf
    "check-crc: crc32c 64KiB  %s %.0f ns (%.3f ns/B)  portable %.0f ns (%.3f \
     ns/B)  (%.2fx)\n"
    Core.Crc32c.kernel kernel_ns (kernel_ns /. 65536.) portable_ns
    (portable_ns /. 65536.) (portable_ns /. kernel_ns);
  if Core.Crc32c.kernel <> "portable" && kernel_ns > portable_ns /. 2. then begin
    Printf.eprintf
      "check-crc: FAIL: %s crc32c path not 2x faster than the portable path\n"
      Core.Crc32c.kernel;
    exit 1
  end
