(* Tests for GF(2^8) arithmetic and matrices. *)

module F = Gf256.Field
module M = Gf256.Matrix

let elem = QCheck.int_range 0 255
let nonzero = QCheck.int_range 1 255

let qtest ?(count = 500) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Field axioms                                                        *)
(* ------------------------------------------------------------------ *)

let field_axioms =
  [
    qtest "add is xor" (QCheck.pair elem elem) (fun (a, b) ->
        F.add a b = a lxor b);
    qtest "add commutative" (QCheck.pair elem elem) (fun (a, b) ->
        F.add a b = F.add b a);
    qtest "mul commutative" (QCheck.pair elem elem) (fun (a, b) ->
        F.mul a b = F.mul b a);
    qtest "mul associative" (QCheck.triple elem elem elem) (fun (a, b, c) ->
        F.mul a (F.mul b c) = F.mul (F.mul a b) c);
    qtest "distributivity" (QCheck.triple elem elem elem) (fun (a, b, c) ->
        F.mul a (F.add b c) = F.add (F.mul a b) (F.mul a c));
    qtest "one is identity" elem (fun a -> F.mul 1 a = a);
    qtest "zero annihilates" elem (fun a -> F.mul 0 a = 0);
    qtest "sub equals add" (QCheck.pair elem elem) (fun (a, b) ->
        F.sub a b = F.add a b);
    qtest "inverse" nonzero (fun a -> F.mul a (F.inv a) = 1);
    qtest "div by self" nonzero (fun a -> F.div a a = 1);
    qtest "div inverse of mul" (QCheck.pair elem nonzero) (fun (a, b) ->
        F.div (F.mul a b) b = a);
    qtest "pow 2 is square" elem (fun a -> F.pow a 2 = F.mul a a);
    qtest "pow adds exponents" (QCheck.pair nonzero (QCheck.int_range 0 30))
      (fun (a, k) -> F.mul (F.pow a k) (F.pow a 3) = F.pow a (k + 3));
    qtest "exp/log roundtrip" nonzero (fun a -> F.exp_table (F.log_table a) = a);
    qtest "frobenius: (a+b)^2 = a^2 + b^2" (QCheck.pair elem elem)
      (fun (a, b) -> F.pow (F.add a b) 2 = F.add (F.pow a 2) (F.pow b 2));
  ]

let test_sentinel_errors () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F.inv 0));
  Alcotest.check_raises "div by 0" Division_by_zero (fun () ->
      ignore (F.div 3 0));
  check_int "div 0 b" 0 (F.div 0 7);
  check_int "pow 0 0 = 1" 1 (F.pow 0 0);
  check_int "pow 0 5 = 0" 0 (F.pow 0 5);
  Alcotest.check_raises "pow negative"
    (Invalid_argument "Gf256.Field.pow: negative exponent") (fun () ->
      ignore (F.pow 2 (-1)))

let test_generator_order () =
  (* 2 generates the multiplicative group: the powers 2^0..2^254 are
     all distinct. *)
  let seen = Array.make 256 false in
  for i = 0 to 254 do
    let x = F.exp_table i in
    Alcotest.(check bool) "no repeat" false seen.(x);
    seen.(x) <- true
  done;
  check_int "2^255 wraps to 1" 1 (F.exp_table 255)

let test_check_element () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Gf256.Field: element -1 out of range") (fun () ->
      F.check_element (-1));
  F.check_element 0;
  F.check_element 255;
  (* The scalar entry points validate their arguments instead of
     reading out of table bounds. *)
  Alcotest.check_raises "mul out of range"
    (Invalid_argument "Gf256.Field: element 256 out of range") (fun () ->
      ignore (F.mul 256 3));
  Alcotest.check_raises "inv out of range"
    (Invalid_argument "Gf256.Field: element -2 out of range") (fun () ->
      ignore (F.inv (-2)));
  Alcotest.check_raises "div out of range"
    (Invalid_argument "Gf256.Field: element 300 out of range") (fun () ->
      ignore (F.div 1 300))

(* ------------------------------------------------------------------ *)
(* Byte-slice operations                                               *)
(* ------------------------------------------------------------------ *)

let bytes_gen =
  QCheck.map Bytes.of_string (QCheck.string_of_size (QCheck.Gen.return 64))

let slice_tests =
  [
    qtest "mul_slice accumulates" (QCheck.triple bytes_gen bytes_gen elem)
      (fun (dst0, src, c) ->
        let dst = Bytes.copy dst0 in
        F.mul_slice ~dst ~src c;
        let ok = ref true in
        Bytes.iteri
          (fun i x ->
            let expected =
              F.add
                (Char.code (Bytes.get dst0 i))
                (F.mul c (Char.code (Bytes.get src i)))
            in
            if Char.code x <> expected then ok := false)
          dst;
        !ok);
    qtest "mul_slice by 0 is no-op" bytes_gen (fun src ->
        let dst = Bytes.copy src in
        F.mul_slice ~dst ~src 0;
        Bytes.equal dst src);
    qtest "mul_slice by 1 xors" (QCheck.pair bytes_gen bytes_gen)
      (fun (dst0, src) ->
        let dst = Bytes.copy dst0 in
        F.mul_slice ~dst ~src 1;
        let ok = ref true in
        Bytes.iteri
          (fun i x ->
            if
              Char.code x
              <> Char.code (Bytes.get dst0 i) lxor Char.code (Bytes.get src i)
            then ok := false)
          dst;
        !ok);
  ]

let test_slice_length_mismatch () =
  let a = Bytes.create 4 and b = Bytes.create 5 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Gf256.Field.mul_slice: length mismatch") (fun () ->
      F.mul_slice ~dst:a ~src:b 3);
  Alcotest.check_raises "kernel mismatch"
    (Invalid_argument "Gf256.Kernel.mul_acc: length mismatch") (fun () ->
      Gf256.Kernel.(mul_acc (make_mul (default ()) 3) ~dst:a ~src:b))

(* The wide XOR must be bit-identical to the byte-at-a-time definition
   on every length class: 64-bit body, scalar tail, and lengths below
   one word. *)
let slice_lengths = [ 1; 3; 7; 8; 9; 15; 16; 17; 63; 64; 65; 257 ]

let test_wide_kernels_match_reference () =
  let rng = Random.State.make [| 21 |] in
  let random_bytes len =
    Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))
  in
  List.iter
    (fun len ->
      List.iter
        (fun c ->
          let src = random_bytes len in
          let dst0 = random_bytes len in
          let dst = Bytes.copy dst0 in
          F.mul_slice ~dst ~src c;
          for i = 0 to len - 1 do
            let expected =
              F.add
                (Char.code (Bytes.get dst0 i))
                (F.mul c (Char.code (Bytes.get src i)))
            in
            if Char.code (Bytes.get dst i) <> expected then
              Alcotest.failf "mul_slice len=%d c=%d mismatch at %d" len c i
          done)
        [ 0; 1; 2; 29; 173; 255 ])
    slice_lengths

let rng_bytes rng len =
  Bytes.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* The SPLIT(8,4) nibble tables must reproduce c * s for every pair:
   c * s = lo[s land 15] lxor hi[s lsr 4], pair c at byte 32 c. *)
let test_split_tables_agree () =
  let t = F.split_tables in
  check_int "split table length" (256 * 32) (String.length t);
  for c = 0 to 255 do
    for s = 0 to 255 do
      let p =
        Char.code t.[(32 * c) + (s land 15)]
        lxor Char.code t.[(32 * c) + 16 + (s lsr 4)]
      in
      if p <> F.mul c s then
        Alcotest.failf "split_tables %d disagrees with mul at %d" c s
    done
  done

(* ------------------------------------------------------------------ *)
(* Kernel dispatch layer                                               *)
(* ------------------------------------------------------------------ *)

module K = Gf256.Kernel

(* Lengths on each side of the SIMD loops' 16/32/64-byte steps and the
   fused maps' 128-byte (AVX2) and 256-byte (GFNI) tiles, plus one long
   unaligned block. *)
let kernel_lengths =
  [ 1; 7; 8; 9; 15; 16; 17; 31; 32; 33; 63; 64; 65; 127; 128; 129; 255; 256;
    257; 4096 + 13 ]

(* [f label impl] for every available implementation, [C_simd] once
   per SIMD level up to the probe's (built under [K.with_simd_level]),
   so a host that probes GFNI still checks its SSSE3 and AVX2 loops. *)
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

(* Every implementation, every coefficient: mul_acc/mul_set match the
   scalar field definition, including when dst and src are the same
   buffer. Lengths rotate through [kernel_lengths]. *)
let test_kernel_mul_equivalence () =
  let rng = Random.State.make [| 41 |] in
  each_kernel (fun label impl ->
      for c = 0 to 255 do
        let len = List.nth kernel_lengths (c mod List.length kernel_lengths) in
        let mul = K.make_mul impl c in
        let src = rng_bytes rng len in
        let dst0 = rng_bytes rng len in
        let dst = Bytes.copy dst0 in
        K.mul_acc mul ~dst ~src;
        for i = 0 to len - 1 do
          let expected =
            Char.code (Bytes.get dst0 i)
            lxor F.mul c (Char.code (Bytes.get src i))
          in
          if Char.code (Bytes.get dst i) <> expected then
            Alcotest.failf "%s mul_acc c=%d len=%d mismatch at %d"
              label c len i
        done;
        let dst = Bytes.copy dst0 in
        K.mul_set mul ~dst ~src;
        for i = 0 to len - 1 do
          if
            Char.code (Bytes.get dst i)
            <> F.mul c (Char.code (Bytes.get src i))
          then
            Alcotest.failf "%s mul_set c=%d len=%d mismatch at %d"
              label c len i
        done;
        (* Aliased dst == src (in-place scale / self-accumulate). *)
        let self = Bytes.copy src in
        K.mul_acc mul ~dst:self ~src:self;
        for i = 0 to len - 1 do
          let v = Char.code (Bytes.get src i) in
          if Char.code (Bytes.get self i) <> v lxor F.mul c v then
            Alcotest.failf "%s mul_acc aliased c=%d mismatch at %d"
              label c i
        done;
        let self = Bytes.copy src in
        K.mul_set mul ~dst:self ~src:self;
        for i = 0 to len - 1 do
          let v = Char.code (Bytes.get src i) in
          if Char.code (Bytes.get self i) <> F.mul c v then
            Alcotest.failf "%s mul_set aliased c=%d mismatch at %d"
              label c i
        done
      done)

(* Fused row groups: every implementation against the scalar reference,
   across shapes that exercise the trivial-row fast path (zero rows,
   identity rows, single-coefficient rows), single dense rows and wide
   maps (r > 8), one to four and six dense rows (the GFNI path applies
   up to four per pass), many sources (k = 70), in both overwrite and
   accumulate modes, at every length class of [kernel_lengths] that
   straddles a step or tile. *)
let test_kernel_rows_equivalence () =
  let rng = Random.State.make [| 47 |] in
  let shapes =
    [ (1, 1); (1, 4); (2, 3); (4, 10); (5, 8); (7, 6); (8, 5); (10, 10);
      (14, 3); (3, 70) ]
  in
  List.iter
    (fun (r, k) ->
      List.iter
        (fun len ->
          let coeffs =
            Array.init r (fun p ->
                Array.init k (fun j ->
                    (* Seed trivial rows alongside dense ones. *)
                    match p mod 4 with
                    | 0 -> if j = p mod k then 1 else 0
                    | 1 when r > 1 -> 0
                    | _ -> Random.State.int rng 256))
          in
          let srcs = Array.init k (fun _ -> rng_bytes rng len) in
          let dsts0 = Array.init r (fun _ -> rng_bytes rng len) in
          let scalar = K.make_rows K.Scalar coeffs in
          let expected = Array.map Bytes.copy dsts0 in
          K.apply_rows scalar ~srcs ~dsts:expected;
          let expected_acc = Array.map Bytes.copy dsts0 in
          K.apply_rows ~acc:true scalar ~srcs ~dsts:expected_acc;
          each_kernel (fun label impl ->
              let rows = K.make_rows impl coeffs in
              let dsts = Array.map Bytes.copy dsts0 in
              K.apply_rows rows ~srcs ~dsts;
              Array.iteri
                (fun p b ->
                  if not (Bytes.equal b expected.(p)) then
                    Alcotest.failf "%s rows %dx%d len=%d row %d diverges"
                      label r k len p)
                dsts;
              let dsts = Array.map Bytes.copy dsts0 in
              K.apply_rows ~acc:true rows ~srcs ~dsts;
              Array.iteri
                (fun p b ->
                  if not (Bytes.equal b expected_acc.(p)) then
                    Alcotest.failf "%s rows acc %dx%d len=%d row %d diverges"
                      label r k len p)
                dsts))
        [ 1; 15; 16; 17; 31; 33; 63; 64; 65; 127; 128; 129; 255; 256; 257;
          4096 + 13 ])
    shapes

(* With no kernel requested a codec gets the CPU probe's choice; an
   explicit request wins, and an unavailable one is refused. *)
let test_kernel_default () =
  let probed = if K.simd_level > 0 then K.C_simd else K.C_portable in
  Alcotest.(check string) "default follows the probe" (K.name probed)
    (K.name (K.default ()));
  Alcotest.(check string) "select without request" (K.name probed)
    (K.name (K.select ()));
  Alcotest.(check string) "select honours request" "scalar"
    (K.name (K.select ~impl:K.Scalar ()));
  if not (K.available K.C_simd) then
    Alcotest.check_raises "unavailable refused"
      (Invalid_argument "Gf256.Kernel.select: c_simd unavailable") (fun () ->
        ignore (K.select ~impl:K.C_simd ()))

let test_kernel_names () =
  Alcotest.(check (list string))
    "names" [ "scalar"; "c_portable"; "c_simd" ] (List.map K.name K.all);
  Alcotest.(check bool) "scalar always available" true (K.available K.Scalar);
  Alcotest.(check bool) "c_portable always available" true
    (K.available K.C_portable);
  Alcotest.(check bool)
    "c_simd availability tracks simd level" (K.simd_level > 0)
    (K.available K.C_simd);
  Alcotest.(check (list int))
    "every level up to the probe" (List.init K.simd_level succ) K.simd_levels;
  Alcotest.check_raises "level above the probe refused"
    (Invalid_argument
       (Printf.sprintf "Gf256.Kernel.with_simd_level: %d" (K.simd_level + 1)))
    (fun () -> K.with_simd_level (K.simd_level + 1) ignore)

(* ------------------------------------------------------------------ *)
(* Matrices                                                            *)
(* ------------------------------------------------------------------ *)

let random_matrix rng ~rows ~cols =
  M.init ~rows ~cols (fun _ _ -> Random.State.int rng 256)

let test_identity_mul () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 8 in
    let a = random_matrix rng ~rows:n ~cols:n in
    Alcotest.(check bool) "I*A = A" true (M.equal (M.mul (M.identity n) a) a);
    Alcotest.(check bool) "A*I = A" true (M.equal (M.mul a (M.identity n)) a)
  done

let test_invert_roundtrip () =
  let rng = Random.State.make [| 9 |] in
  let tried = ref 0 and inverted = ref 0 in
  while !inverted < 25 && !tried < 500 do
    incr tried;
    let n = 1 + Random.State.int rng 7 in
    let a = random_matrix rng ~rows:n ~cols:n in
    match M.invert a with
    | None -> ()
    | Some inv ->
        incr inverted;
        Alcotest.(check bool) "A * A^-1 = I" true
          (M.equal (M.mul a inv) (M.identity n));
        Alcotest.(check bool) "A^-1 * A = I" true
          (M.equal (M.mul inv a) (M.identity n))
  done;
  Alcotest.(check bool) "found invertible samples" true (!inverted >= 25)

let test_singular () =
  let z = M.create ~rows:3 ~cols:3 in
  Alcotest.(check (option reject)) "zero singular" None
    (Option.map ignore (M.invert z));
  (* Two equal rows. *)
  let a = M.init ~rows:2 ~cols:2 (fun _ c -> c + 1) in
  Alcotest.(check (option reject)) "rank deficient" None
    (Option.map ignore (M.invert a))

let test_cauchy_submatrices_invertible () =
  let xs = Array.init 4 (fun i -> 10 + i) in
  let ys = Array.init 4 (fun j -> j) in
  let c = M.cauchy ~xs ~ys in
  (* Every square submatrix of a Cauchy matrix is invertible; check all
     2x2 submatrices. *)
  for r1 = 0 to 3 do
    for r2 = r1 + 1 to 3 do
      for c1 = 0 to 3 do
        for c2 = c1 + 1 to 3 do
          let sub =
            M.init ~rows:2 ~cols:2 (fun r cc ->
                M.get c
                  (if r = 0 then r1 else r2)
                  (if cc = 0 then c1 else c2))
          in
          Alcotest.(check bool) "2x2 invertible" true (M.invert sub <> None)
        done
      done
    done
  done

let test_cauchy_overlap_rejected () =
  Alcotest.check_raises "xs/ys overlap"
    (Invalid_argument "Gf256.Matrix.cauchy: xs and ys are not disjoint")
    (fun () -> ignore (M.cauchy ~xs:[| 1; 2 |] ~ys:[| 2; 3 |]))

let test_sub_rows () =
  let a = M.init ~rows:4 ~cols:2 (fun r c -> (r * 2) + c) in
  let b = M.sub_rows a [ 3; 1 ] in
  check_int "rows" 2 (M.rows b);
  check_int "b[0][0]" 6 (M.get b 0 0);
  check_int "b[1][1]" 3 (M.get b 1 1)

let test_bounds () =
  let a = M.create ~rows:2 ~cols:2 in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Gf256.Matrix: index (2,0) out of 2x2") (fun () ->
      ignore (M.get a 2 0));
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Gf256.Matrix.create: bad shape") (fun () ->
      ignore (M.create ~rows:0 ~cols:3))

let () =
  Alcotest.run "gf256"
    [
      ("field-axioms", field_axioms);
      ( "field-unit",
        [
          Alcotest.test_case "sentinel errors" `Quick test_sentinel_errors;
          Alcotest.test_case "generator order" `Quick test_generator_order;
          Alcotest.test_case "check_element" `Quick test_check_element;
        ] );
      ( "slices",
        (Alcotest.test_case "split tables agree with mul" `Quick
           test_split_tables_agree
        :: slice_tests)
        @ [
            Alcotest.test_case "length mismatch" `Quick
              test_slice_length_mismatch;
            Alcotest.test_case "wide kernels match reference" `Quick
              test_wide_kernels_match_reference;
          ] );
      ( "kernels",
        [
          Alcotest.test_case "names and availability" `Quick test_kernel_names;
          Alcotest.test_case "mul equivalence (all coefficients)" `Quick
            test_kernel_mul_equivalence;
          Alcotest.test_case "fused rows equivalence" `Quick
            test_kernel_rows_equivalence;
          Alcotest.test_case "default is the CPU probe" `Quick
            test_kernel_default;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "invert roundtrip" `Quick test_invert_roundtrip;
          Alcotest.test_case "singular detected" `Quick test_singular;
          Alcotest.test_case "cauchy submatrices invertible" `Quick
            test_cauchy_submatrices_invertible;
          Alcotest.test_case "cauchy overlap rejected" `Quick
            test_cauchy_overlap_rejected;
          Alcotest.test_case "sub_rows" `Quick test_sub_rows;
          Alcotest.test_case "bounds checking" `Quick test_bounds;
        ] );
    ]
