(* Tests for the erasure-coding primitives (paper section 2.1). *)

module C = Erasure.Codec

let block_size = 32

let random_stripe rng m =
  Array.init m (fun _ ->
      Bytes.init block_size (fun _ -> Char.chr (Random.State.int rng 256)))

let stripes_equal a b =
  Array.length a = Array.length b && Array.for_all2 Bytes.equal a b

(* All m-subsets of [0, n). *)
let rec subsets k lo n =
  if k = 0 then [ [] ]
  else if lo >= n then []
  else
    List.map (fun s -> lo :: s) (subsets (k - 1) (lo + 1) n)
    @ subsets k (lo + 1) n

let test_roundtrip_all_subsets () =
  let rng = Random.State.make [| 11 |] in
  let configs = [ (1, 3); (2, 3); (2, 4); (3, 5); (5, 8); (4, 6) ] in
  List.iter
    (fun (m, n) ->
      let codec = if m = 1 then C.replication ~n () else C.rs ~m ~n () in
      let stripe = random_stripe rng m in
      let enc = C.encode codec stripe in
      Alcotest.(check int) "n blocks" n (Array.length enc);
      (* Systematic: first m blocks are the data. *)
      for i = 0 to m - 1 do
        Alcotest.(check bool) "systematic" true (Bytes.equal enc.(i) stripe.(i))
      done;
      List.iter
        (fun subset ->
          let blocks = List.map (fun i -> (i, enc.(i))) subset in
          let dec = C.decode codec blocks in
          Alcotest.(check bool)
            (Printf.sprintf "decode (%d,%d) from [%s]" m n
               (String.concat "," (List.map string_of_int subset)))
            true (stripes_equal dec stripe))
        (subsets m 0 n))
    configs

let test_parity_codec_is_xor () =
  let rng = Random.State.make [| 12 |] in
  let m = 4 in
  let codec = C.parity ~m () in
  let stripe = random_stripe rng m in
  let enc = C.encode codec stripe in
  let xor = Bytes.make block_size '\000' in
  Array.iter
    (fun b ->
      Bytes.iteri
        (fun i c ->
          Bytes.set xor i (Char.chr (Char.code (Bytes.get xor i) lxor Char.code c)))
        b)
    stripe;
  Alcotest.(check bool) "parity block is xor of data" true
    (Bytes.equal enc.(m) xor)

let test_replication_copies () =
  let codec = C.replication ~n:4 () in
  let b = Bytes.make block_size 'x' in
  let enc = C.encode codec [| b |] in
  Array.iter
    (fun blk -> Alcotest.(check bool) "copy" true (Bytes.equal blk b))
    enc

let test_modify_equals_reencode () =
  let rng = Random.State.make [| 13 |] in
  List.iter
    (fun (m, n) ->
      let codec = if n = m + 1 then C.parity ~m () else C.rs ~m ~n () in
      let stripe = random_stripe rng m in
      let enc = C.encode codec stripe in
      for j = 0 to m - 1 do
        let stripe' = Array.map Bytes.copy stripe in
        stripe'.(j) <- Bytes.init block_size (fun _ -> Char.chr (Random.State.int rng 256));
        let enc' = C.encode codec stripe' in
        for p = 0 to n - m - 1 do
          let via_modify =
            C.modify codec ~data_idx:j ~parity_idx:p ~old_data:stripe.(j)
              ~new_data:stripe'.(j) ~old_parity:enc.(m + p)
          in
          Alcotest.(check bool)
            (Printf.sprintf "modify (%d,%d) j=%d p=%d" m n j p)
            true
            (Bytes.equal via_modify enc'.(m + p))
        done
      done)
    [ (3, 5); (5, 8); (2, 3); (4, 5) ]

(* The section 5.2 path: the coordinator folds a block's change into a
   zeroed buffer, and the parity member XORs that fold into its old
   parity block. The result must be [modify]'s. *)
let test_delta_composition () =
  let rng = Random.State.make [| 14 |] in
  let codec = C.rs ~m:5 ~n:8 () in
  let stripe = random_stripe rng 5 in
  let enc = C.encode codec stripe in
  let new_b = Bytes.init block_size (fun _ -> Char.chr (Random.State.int rng 256)) in
  for p = 0 to 2 do
    let direct =
      C.modify codec ~data_idx:2 ~parity_idx:p ~old_data:stripe.(2)
        ~new_data:new_b ~old_parity:enc.(5 + p)
    in
    let fold = Bytes.make block_size '\000' in
    C.fold_into codec ~parity_idx:p ~j0:2 ~olds:[| stripe.(2) |]
      ~news:[| new_b |] ~parity:fold;
    let via_fold = Bytes.create block_size in
    C.delta_into ~old_data:fold ~new_data:enc.(5 + p) ~into:via_fold;
    Alcotest.(check bool) "pre-folded path equals modify" true
      (Bytes.equal direct via_fold)
  done

let test_coeff_systematic () =
  let codec = C.rs ~m:4 ~n:7 () in
  for r = 0 to 3 do
    for c = 0 to 3 do
      Alcotest.(check int) "identity top" (if r = c then 1 else 0)
        (C.coeff codec ~row:r ~col:c)
    done
  done;
  (* Parity rows must be dense (no zero coefficients for Cauchy). *)
  for r = 4 to 6 do
    for c = 0 to 3 do
      Alcotest.(check bool) "nonzero parity coeff" true
        (C.coeff codec ~row:r ~col:c <> 0)
    done
  done

(* ------------------------------------------------------------------ *)
(* The [_into] variants must be byte-for-byte equivalent to the
   allocating API: same planes, same plans, just caller-owned buffers.
   Lengths deliberately include values that are not multiples of 4 or 8
   so the wide-word kernels' scalar tails are exercised.               *)
(* ------------------------------------------------------------------ *)

let into_lengths = [ 5; 12; 29; block_size ]

let random_stripe_len rng m len =
  Array.init m (fun _ ->
      Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)))

let test_into_equals_allocating () =
  let rng = Random.State.make [| 21 |] in
  let configs = [ (2, 4); (3, 5); (5, 8) ] in
  List.iter
    (fun (m, n) ->
      let codec = C.rs ~m ~n () in
      List.iter
        (fun len ->
          let stripe = random_stripe_len rng m len in
          (* encode_into vs encode *)
          let enc = C.encode codec stripe in
          let enc' = Array.init n (fun _ -> Bytes.create len) in
          C.encode_into codec stripe ~into:enc';
          Alcotest.(check bool)
            (Printf.sprintf "encode_into (%d,%d) len=%d" m n len)
            true (stripes_equal enc enc');
          List.iter
            (fun subset ->
              let blocks = List.map (fun i -> (i, enc.(i))) subset in
              (* decode_into vs decode *)
              let dec = C.decode codec blocks in
              let dec' = Array.init m (fun _ -> Bytes.create len) in
              C.decode_into codec blocks ~into:dec';
              Alcotest.(check bool)
                (Printf.sprintf "decode_into (%d,%d) len=%d [%s]" m n len
                   (String.concat "," (List.map string_of_int subset)))
                true (stripes_equal dec dec'))
            (subsets m 0 n))
        into_lengths)
    configs

let test_encode_into_aliased_data () =
  (* Data slots of [into] may be the very stripe blocks themselves. *)
  let rng = Random.State.make [| 22 |] in
  List.iter
    (fun len ->
      let m = 3 and n = 5 in
      let codec = C.rs ~m ~n () in
      let stripe = random_stripe_len rng m len in
      let expected = C.encode codec stripe in
      let into =
        Array.init n (fun i -> if i < m then stripe.(i) else Bytes.create len)
      in
      C.encode_into codec stripe ~into;
      Alcotest.(check bool)
        (Printf.sprintf "aliased encode_into len=%d" len)
        true (stripes_equal expected into))
    into_lengths

(* [delta_into] against a byte-wise XOR, out of place and in place;
   [fold_into] against re-encoding the changed stripe. *)
let test_delta_into_oracle () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun len ->
      let codec = C.rs ~m:4 ~n:7 () in
      let stripe = random_stripe_len rng 4 len in
      let enc = C.encode codec stripe in
      let new_b = Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
      let d =
        Bytes.init len (fun i ->
            Char.chr
              (Char.code (Bytes.get stripe.(1) i)
              lxor Char.code (Bytes.get new_b i)))
      in
      let d' = Bytes.create len in
      C.delta_into ~old_data:stripe.(1) ~new_data:new_b ~into:d';
      Alcotest.(check bool)
        (Printf.sprintf "delta_into len=%d" len)
        true (Bytes.equal d d');
      (* In-place form: into = new_data. *)
      let d'' = Bytes.copy new_b in
      C.delta_into ~old_data:stripe.(1) ~new_data:d'' ~into:d'';
      Alcotest.(check bool)
        (Printf.sprintf "delta_into in place len=%d" len)
        true (Bytes.equal d d'');
      let stripe' = Array.copy stripe in
      stripe'.(1) <- new_b;
      let enc' = C.encode codec stripe' in
      for p = 0 to 2 do
        let parity = Bytes.copy enc.(4 + p) in
        C.fold_into codec ~parity_idx:p ~j0:1 ~olds:[| stripe.(1) |]
          ~news:[| new_b |] ~parity;
        Alcotest.(check bool)
          (Printf.sprintf "fold_into len=%d p=%d" len p)
          true
          (Bytes.equal enc'.(4 + p) parity)
      done)
    into_lengths

let test_plan_cache () =
  let rng = Random.State.make [| 24 |] in
  let m = 3 and n = 6 in
  let codec = C.rs ~m ~n () in
  let stripe = random_stripe rng m in
  let enc = C.encode codec stripe in
  C.reset_plan_cache codec;
  Alcotest.(check (triple int int int)) "fresh cache" (0, 0, 0)
    (C.plan_cache_stats codec);
  let blocks = [ (1, enc.(1)); (3, enc.(3)); (5, enc.(5)) ] in
  ignore (C.decode codec blocks);
  Alcotest.(check (triple int int int)) "first decode misses" (0, 1, 1)
    (C.plan_cache_stats codec);
  ignore (C.decode codec blocks);
  (* Same index set in a different order hits the same plan. *)
  ignore (C.decode codec [ (5, enc.(5)); (1, enc.(1)); (3, enc.(3)) ]);
  Alcotest.(check (triple int int int)) "repeats hit" (2, 1, 1)
    (C.plan_cache_stats codec);
  ignore (C.decode codec [ (0, enc.(0)); (2, enc.(2)); (4, enc.(4)) ]);
  Alcotest.(check (triple int int int)) "new subset misses" (2, 2, 2)
    (C.plan_cache_stats codec);
  (* decode_into reuses the same plan cache. *)
  C.decode_into codec blocks
    ~into:(Array.init m (fun _ -> Bytes.create block_size));
  let hits, misses, entries = C.plan_cache_stats codec in
  Alcotest.(check (pair int int)) "decode_into hits cached plan" (3, 2)
    (hits, misses);
  Alcotest.(check int) "entries stable" 2 entries;
  C.reset_plan_cache codec;
  Alcotest.(check (triple int int int)) "reset" (0, 0, 0)
    (C.plan_cache_stats codec);
  (* Results are identical whether the plan is cached or rebuilt. *)
  let a = C.decode codec blocks in
  let b = C.decode codec blocks in
  Alcotest.(check bool) "cached plan same result" true (stripes_equal a b)

let qtest ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let stripe_gen m =
  QCheck.map
    (fun s ->
      let s = Bytes.of_string s in
      Array.init m (fun i -> Bytes.sub s (i * 8) 8))
    (QCheck.string_of_size (QCheck.Gen.return (m * 8)))

let prop_tests =
  [
    qtest "rs(3,5): decode any parity-heavy subset"
      (QCheck.pair (stripe_gen 3) (QCheck.int_range 0 9))
      (fun (stripe, pick) ->
        let codec = C.rs ~m:3 ~n:5 () in
        let enc = C.encode codec stripe in
        let all = subsets 3 0 5 in
        let subset = List.nth all (pick mod List.length all) in
        let dec = C.decode codec (List.map (fun i -> (i, enc.(i))) subset) in
        Array.for_all2 Bytes.equal dec stripe);
    qtest "rs(5,8): encode deterministic" (stripe_gen 5) (fun stripe ->
        let codec = C.rs ~m:5 ~n:8 () in
        let a = C.encode codec stripe and b = C.encode codec stripe in
        Array.for_all2 Bytes.equal a b);
    qtest "delta of equal blocks is zero" (stripe_gen 1) (fun s ->
        let d = Bytes.create (Bytes.length s.(0)) in
        C.delta_into ~old_data:s.(0) ~new_data:s.(0) ~into:d;
        Bytes.for_all (fun c -> c = '\000') d);
  ]

let test_errors () =
  let codec = C.rs ~m:3 ~n:5 () in
  let stripe = Array.init 3 (fun _ -> Bytes.make 8 'a') in
  let enc = C.encode codec stripe in
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Erasure.Codec.encode: expected 3 blocks, got 2")
    (fun () -> ignore (C.encode codec [| Bytes.create 8; Bytes.create 8 |]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Erasure.Codec.encode: block size mismatch") (fun () ->
      ignore (C.encode codec [| Bytes.create 8; Bytes.create 8; Bytes.create 9 |]));
  Alcotest.check_raises "decode duplicate index"
    (Invalid_argument "Erasure.Codec.decode: duplicate index") (fun () ->
      ignore (C.decode codec [ (0, enc.(0)); (0, enc.(0)); (1, enc.(1)) ]));
  Alcotest.check_raises "decode bad index"
    (Invalid_argument "Erasure.Codec.decode: index out of range") (fun () ->
      ignore (C.decode codec [ (0, enc.(0)); (1, enc.(1)); (9, enc.(2)) ]));
  (* fold_into checks everything before touching the parity block. *)
  let parity = Bytes.copy enc.(3) in
  let fold_raises name msg ~parity_idx ~j0 ~olds ~news =
    Alcotest.check_raises name
      (Invalid_argument ("Erasure.Codec.fold_into: " ^ msg))
      (fun () -> C.fold_into codec ~parity_idx ~j0 ~olds ~news ~parity);
    Alcotest.(check bool) (name ^ ": parity untouched") true
      (Bytes.equal parity enc.(3))
  in
  let b8 () = Bytes.make 8 'b' in
  fold_raises "fold parity_idx" "parity_idx out of range" ~parity_idx:2 ~j0:0
    ~olds:[| stripe.(0) |] ~news:[| b8 () |];
  fold_raises "fold range past m" "block range out of range" ~parity_idx:0
    ~j0:2 ~olds:[| stripe.(1); stripe.(2) |] ~news:[| b8 (); b8 () |];
  fold_raises "fold negative j0" "block range out of range" ~parity_idx:0
    ~j0:(-1) ~olds:[| stripe.(0) |] ~news:[| b8 () |];
  fold_raises "fold olds/news" "olds and news differ in length" ~parity_idx:0
    ~j0:0 ~olds:[| stripe.(0) |] ~news:[| b8 (); b8 () |];
  fold_raises "fold size" "size mismatch" ~parity_idx:1 ~j0:0
    ~olds:[| stripe.(0); stripe.(1) |] ~news:[| b8 (); Bytes.create 9 |];
  Alcotest.check_raises "rs m >= n"
    (Invalid_argument "Erasure.Codec.rs: need 1 <= m < n <= 256") (fun () ->
      ignore (C.rs ~m:5 ~n:5 ()));
  Alcotest.check_raises "replication n < 2"
    (Invalid_argument "Erasure.Codec.replication: need n >= 2") (fun () ->
      ignore (C.replication ~n:1 ()))

(* ------------------------------------------------------------------ *)
(* Kernel backends: every available GF(2^8) kernel must produce
   byte-identical codec results.                                       *)
(* ------------------------------------------------------------------ *)

module K = Gf256.Kernel

(* [f label impl] for every available kernel, [C_simd] once per SIMD
   level up to the probe's, run under [K.with_simd_level] so the
   codec and every decode plan it builds use that level. *)
let each_kernel f =
  List.iter
    (function
      | K.C_simd ->
          List.iter
            (fun l ->
              K.with_simd_level l (fun () ->
                  f (Printf.sprintf "c_simd@%d" l) K.C_simd))
            K.simd_levels
      | impl -> f (K.name impl) impl)
    (K.available_impls ())

(* rs(5,8) under every kernel and SIMD level: identical encodings and
   identical decodes, through [decode] and [decode_into], over every
   m-subset of survivors. Lengths include non-multiples of
   8/16/32 and straddle the 64-byte step and the 256-byte GFNI tile,
   so each kernel's tail handling is exercised. *)
let test_kernels_byte_identical () =
  let rng = Random.State.make [| 61 |] in
  let m = 5 and n = 8 in
  let scalar = C.rs ~kernel:K.Scalar ~m ~n () in
  List.iter
    (fun len ->
      let stripe = random_stripe_len rng m len in
      let reference = C.encode scalar stripe in
      each_kernel (fun label impl ->
          let codec = C.rs ~kernel:impl ~m ~n () in
          Alcotest.(check string)
            "kernel_name reflects request" (K.name impl)
            (C.kernel_name codec);
          let enc = C.encode codec stripe in
          if not (stripes_equal enc reference) then
            Alcotest.failf "%s encode len=%d diverges from scalar" label len;
          List.iter
            (fun subset ->
              let blocks = List.map (fun i -> (i, enc.(i))) subset in
              let dec = C.decode codec blocks in
              let dec' = Array.init m (fun _ -> Bytes.create len) in
              C.decode_into codec blocks ~into:dec';
              if not (stripes_equal dec stripe && stripes_equal dec' stripe)
              then
                Alcotest.failf "%s decode len=%d [%s] wrong" label len
                  (String.concat "," (List.map string_of_int subset)))
            (subsets m 0 n)))
    [ 13; 32; 63; 64; 65; 100; 255; 256; 257; 4096 + 13 ]

(* [fold_into] on a copy of the old parity equals re-encoding the
   changed stripe, under every kernel and SIMD level, for every start
   [j0], range length and parity index of rs(5,8). *)
let test_fold_equals_reencode () =
  let rng = Random.State.make [| 62 |] in
  let m = 5 and n = 8 in
  let len = 57 in
  each_kernel (fun label impl ->
      let codec = C.rs ~kernel:impl ~m ~n () in
      let stripe = random_stripe_len rng m len in
      let enc = C.encode codec stripe in
      for j0 = 0 to m do
        for k = 0 to m - j0 do
          let news = random_stripe_len rng k len in
          let changed = Array.copy stripe in
          Array.blit news 0 changed j0 k;
          let expected = C.encode codec changed in
          for p = 0 to n - m - 1 do
            let parity = Bytes.copy enc.(m + p) in
            C.fold_into codec ~parity_idx:p ~j0 ~olds:(Array.sub stripe j0 k)
              ~news ~parity;
            if not (Bytes.equal parity expected.(m + p)) then
              Alcotest.failf "%s fold (j0=%d, k=%d, p=%d) diverges" label j0 k
                p
          done
        done
      done)

(* One codec used from two domains at once, as the multicore backend
   shares a volume's codec among coordinators on different domains.
   Each domain encodes and decodes its own random stripes through the
   shared rs(5,8) codec; every encoding must equal a Scalar codec's, and
   every decode (from Scalar-encoded survivors, cycling through every
   m-subset) must return the stripe. A kernel that keeps mutable state
   outside its arguments corrupts blocks here. *)
let test_shared_codec_two_domains () =
  let m = 5 and n = 8 and len = 1500 and iters = 300 in
  let scalar = C.rs ~kernel:K.Scalar ~m ~n () in
  let survivor_sets = Array.of_list (subsets m 0 n) in
  List.iter
    (fun impl ->
      let shared = C.rs ~kernel:impl ~m ~n () in
      (* Inputs are built up front so the timed loops overlap. *)
      let inputs seed =
        let rng = Random.State.make [| seed |] in
        Array.init iters (fun i ->
            let stripe = random_stripe_len rng m len in
            let enc = C.encode scalar stripe in
            let subset = survivor_sets.(i mod Array.length survivor_sets) in
            (stripe, enc, List.map (fun j -> (j, enc.(j))) subset))
      in
      let ready = Atomic.make 0 in
      let run work () =
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        Array.map
          (fun (stripe, _, survivors) ->
            let enc =
              Array.init n (fun j ->
                  if j < m then stripe.(j) else Bytes.create len)
            in
            C.encode_into shared stripe ~into:enc;
            let dec = Array.init m (fun _ -> Bytes.create len) in
            C.decode_into shared survivors ~into:dec;
            (enc, dec))
          work
      in
      let work_a = inputs 71 and work_b = inputs 72 in
      let other = Domain.spawn (run work_b) in
      let out_a = run work_a () in
      let out_b = Domain.join other in
      let bad = ref 0 in
      List.iter
        (fun (work, out) ->
          Array.iteri
            (fun i (stripe, reference, _) ->
              let enc, dec = out.(i) in
              for p = m to n - 1 do
                if not (Bytes.equal enc.(p) reference.(p)) then incr bad
              done;
              if not (stripes_equal dec stripe) then incr bad)
            work)
        [ (work_a, out_a); (work_b, out_b) ];
      Alcotest.(check int)
        (K.name impl ^ ": wrong parity blocks and decodes")
        0 !bad)
    (K.available_impls ())

let test_large_code () =
  (* A wide code near the field-size limit still round-trips. *)
  let rng = Random.State.make [| 16 |] in
  let m = 20 and n = 36 in
  let codec = C.rs ~m ~n () in
  let stripe = random_stripe rng m in
  let enc = C.encode codec stripe in
  (* Decode from the last m blocks (all parity-heavy). *)
  let blocks = List.init m (fun i -> (n - m + i, enc.(n - m + i))) in
  Alcotest.(check bool) "wide code roundtrip" true
    (stripes_equal (C.decode codec blocks) stripe)

(* [decode] hands surviving data blocks back as they are: with every
   data block present the outputs are the inputs themselves. With a
   parity block among the inputs, each erased position is a fresh
   buffer (aliasing no input and no other output) holding the encoded
   data, and no input is written. *)
let test_decode_aliasing () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun (m, n) ->
      let codec = if n = m + 1 then C.parity ~m () else C.rs ~m ~n () in
      let stripe = random_stripe rng m in
      let enc = C.encode codec stripe in
      let dec = C.decode codec (List.init m (fun i -> (i, enc.(i)))) in
      Array.iteri
        (fun i b ->
          Alcotest.(check bool)
            (Printf.sprintf "(%d,%d) data block %d returned as is" m n i)
            true (b == enc.(i)))
        dec;
      List.iter
        (fun subset ->
          let name =
            Printf.sprintf "(%d,%d) from [%s]" m n
              (String.concat "," (List.map string_of_int subset))
          in
          let inputs = List.map (fun i -> (i, enc.(i))) subset in
          let before = List.map (fun (_, b) -> Bytes.copy b) inputs in
          let dec = C.decode codec inputs in
          Array.iteri
            (fun i b ->
              if List.mem i subset then
                Alcotest.(check bool) (name ^ ": survivor as is") true
                  (b == enc.(i))
              else begin
                Alcotest.(check bool) (name ^ ": erased is fresh") true
                  (Array.for_all (fun e -> e != b) enc
                  && List.length (List.filter (( == ) b) (Array.to_list dec))
                     = 1);
                Alcotest.(check bool) (name ^ ": erased rebuilt") true
                  (Bytes.equal b stripe.(i))
              end)
            dec;
          Alcotest.(check bool) (name ^ ": inputs untouched") true
            (List.for_all2 (fun (_, b) c -> Bytes.equal b c) inputs before))
        (List.filter (List.exists (fun i -> i >= m)) (subsets m 0 n)))
    [ (2, 4); (3, 4); (5, 8) ]

let () =
  Alcotest.run "erasure"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "all m-subsets decode" `Quick
            test_roundtrip_all_subsets;
          Alcotest.test_case "parity is xor" `Quick test_parity_codec_is_xor;
          Alcotest.test_case "replication copies" `Quick test_replication_copies;
          Alcotest.test_case "wide code" `Quick test_large_code;
          Alcotest.test_case "decode returns survivors as is" `Quick
            test_decode_aliasing;
        ] );
      ( "modify",
        [
          Alcotest.test_case "modify equals re-encode" `Quick
            test_modify_equals_reencode;
          Alcotest.test_case "delta composition" `Quick test_delta_composition;
          Alcotest.test_case "coeff exposes generator" `Quick test_coeff_systematic;
        ] );
      ( "into",
        [
          Alcotest.test_case "_into equals allocating API" `Quick
            test_into_equals_allocating;
          Alcotest.test_case "encode_into aliased data slots" `Quick
            test_encode_into_aliased_data;
          Alcotest.test_case "delta_into / fold_into" `Quick
            test_delta_into_oracle;
          Alcotest.test_case "plan cache stats" `Quick test_plan_cache;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "all kernels byte-identical" `Quick
            test_kernels_byte_identical;
          Alcotest.test_case "fold equals re-encode" `Quick
            test_fold_equals_reencode;
          Alcotest.test_case "shared codec across two domains" `Quick
            test_shared_codec_two_domains;
        ] );
      ("properties", prop_tests);
      ( "errors",
        [
          Alcotest.test_case "input validation" `Quick test_errors;
        ] );
    ]
