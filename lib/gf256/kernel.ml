(* Kernel dispatch for GF(2^8) slice arithmetic.

   Two paths compute the same linear-map primitives:

   - [Scalar]: byte-at-a-time log/exp reference. Slow on purpose — it
     is the oracle the C path is tested against.
   - [C_portable] / [C_simd]: the C stubs in gf256_stubs.c, applying
     each coefficient's 40-byte [entry]: its SPLIT(8,4) pair from
     {!Field.split_tables} and its GFNI bit matrix. Both run the
     same entry points; the impl only fixes the SIMD level passed to
     them: 0 (the portable nibble-table loop) or the level the CPU
     probe reported (SSSE3/AVX2 pshufb, NEON tbl, AVX-512 GFNI affine;
     16–64 bytes per step). Each mul and rows resolves its level once,
     at construction.

   Rows with at most one nonzero coefficient (identity rows of decode
   plans over surviving data blocks, replication rows) are served by
   blit / zero-fill / single-coefficient passes and never enter the
   fused C map, so replicated and systematic-survivor workloads keep
   their wide-XOR/memcpy speed.

   Nothing here is mutable after construction: a codec's {!mul}s and
   {!rows} may be applied from several domains at once. *)

module F = Field

type impl = Scalar | C_portable | C_simd

let all = [ Scalar; C_portable; C_simd ]

let name = function
  | Scalar -> "scalar"
  | C_portable -> "c_portable"
  | C_simd -> "c_simd"

(* ------------------------------------------------------------------ *)
(* C stubs                                                             *)
(* ------------------------------------------------------------------ *)

external stub_simd_level : unit -> int = "gf256_simd_level" [@@noalloc]

external c_mul_acc : int -> Bytes.t -> Bytes.t -> string -> int -> unit
  = "gf256_mul_acc_stub"
[@@noalloc]

external c_mul_set : int -> Bytes.t -> Bytes.t -> string -> int -> unit
  = "gf256_mul_set_stub"
[@@noalloc]

external c_rows_apply :
  int -> string -> Bytes.t array -> Bytes.t array -> int -> int -> int ->
  bool -> unit = "gf256_rows_apply_bytecode" "gf256_rows_apply_native"
[@@noalloc]

let simd_level = stub_simd_level ()

let simd_levels = List.init simd_level (fun l -> l + 1)

(* The level [C_simd] resolves to at construction: the probe's, except
   inside [with_simd_level]. *)
let c_simd_level = ref simd_level

let with_simd_level l f =
  if l < 1 || l > simd_level then
    invalid_arg (Printf.sprintf "Gf256.Kernel.with_simd_level: %d" l);
  c_simd_level := l;
  Fun.protect ~finally:(fun () -> c_simd_level := simd_level) f

let available = function
  | Scalar | C_portable -> true
  | C_simd -> simd_level > 0

let available_impls () = List.filter available all

let default () = if simd_level > 0 then C_simd else C_portable

let select ?impl () =
  let impl = match impl with Some i -> i | None -> default () in
  if not (available impl) then
    invalid_arg
      (Printf.sprintf "Gf256.Kernel.select: %s unavailable" (name impl));
  impl

(* The SIMD level a C impl passes to the stubs. *)
let level = function C_simd -> !c_simd_level | Scalar | C_portable -> 0

(* The 32-byte SPLIT(8,4) pair of one coefficient. *)
let split c = String.sub F.split_tables (c lsl 5) 32

(* The C stubs' 40-byte entry for coefficient c: its SPLIT(8,4) pair,
   then the 8x8 bit matrix of multiplication by c in GFNI's
   vgf2p8affineqb layout. Multiplication by c is linear over GF(2), so
   the matrix's column j is c * 2^j, read off the pair (lo[2^j] for
   j < 4, hi[2^(j-4)] for j >= 4). Byte 7 - i of the matrix is the row
   of output bit i: its bit j is bit i of column j. All 256 entries are
   built once, like the split tables, so building a decode plan only
   copies them. *)
let entry_size = 40

let entries =
  String.concat ""
    (List.init 256 (fun c ->
         let pair = split c in
         let column j =
           Char.code pair.[if j < 4 then 1 lsl j else 16 + (1 lsl (j - 4))]
         in
         let row i =
           let r = ref 0 in
           for j = 0 to 7 do
             r := !r lor (((column j lsr i) land 1) lsl j)
           done;
           Char.chr !r
         in
         pair ^ String.init 8 (fun b -> row (7 - b))))

let entry c = String.sub entries (c * entry_size) entry_size

(* ------------------------------------------------------------------ *)
(* Scalar reference ops                                                *)
(* ------------------------------------------------------------------ *)

let scalar_mul_acc ~dst ~src c len =
  for i = 0 to len - 1 do
    let p = F.mul c (Char.code (Bytes.unsafe_get src i)) in
    Bytes.unsafe_set dst i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor p))
  done

let scalar_mul_set ~dst ~src c len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr (F.mul c (Char.code (Bytes.unsafe_get src i))))
  done

(* ------------------------------------------------------------------ *)
(* Single-coefficient multipliers                                      *)
(* ------------------------------------------------------------------ *)

type mul = { mimpl : impl; mlevel : int; c : int; tbl : string }

let make_mul impl c =
  F.check_element c;
  { mimpl = impl; mlevel = level impl; c; tbl = entry c }

let check_pair name ~dst ~src =
  let len = Bytes.length src in
  if Bytes.length dst <> len then
    invalid_arg (Printf.sprintf "Gf256.Kernel.%s: length mismatch" name);
  len

let mul_acc m ~dst ~src =
  let len = check_pair "mul_acc" ~dst ~src in
  match m.mimpl with
  | _ when m.c = 0 -> ()
  | Scalar -> scalar_mul_acc ~dst ~src m.c len
  | _ when m.c = 1 -> F.mul_slice ~dst ~src 1
  | C_portable | C_simd -> c_mul_acc m.mlevel dst src m.tbl len

let mul_set m ~dst ~src =
  let len = check_pair "mul_set" ~dst ~src in
  match m.mimpl with
  | _ when m.c = 0 -> Bytes.fill dst 0 len '\000'
  | Scalar -> scalar_mul_set ~dst ~src m.c len
  | _ when m.c = 1 -> Bytes.blit src 0 dst 0 len
  | C_portable | C_simd -> c_mul_set m.mlevel dst src m.tbl len

(* ------------------------------------------------------------------ *)
(* Fused row-group application                                         *)
(* ------------------------------------------------------------------ *)

(* Trivial rows (at most one nonzero coefficient) bypass the fused map
   entirely. *)
type trivial = T_zero | T_one of int (* column; coefficient 1 *) | T_mul of int * mul

type dense =
  | D_none
  | D_scalar of int array (* dense rows, applied byte by byte *)
  | D_c of { d_level : int; d_rows : int array; d_tables : string }
    (* r' * k 40-byte entries, applied in C at [d_level]. *)

type rows = {
  r : int;
  k : int;
  coeffs : int array array;
  trivial : (int * trivial) array; (* (row, op) *)
  dense : dense;
}

let make_rows impl coeffs =
  let r = Array.length coeffs in
  if r = 0 then invalid_arg "Gf256.Kernel.make_rows: no rows";
  let k = Array.length coeffs.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> k then
        invalid_arg "Gf256.Kernel.make_rows: ragged coefficient matrix";
      Array.iter F.check_element row)
    coeffs;
  let trivial = ref [] and dense_rows = ref [] in
  Array.iteri
    (fun p row ->
      let nonzero = ref 0 and last = ref 0 in
      Array.iteri
        (fun j c -> if c <> 0 then begin incr nonzero; last := j end)
        row;
      match !nonzero with
      | 0 -> trivial := (p, T_zero) :: !trivial
      | 1 when row.(!last) = 1 -> trivial := (p, T_one !last) :: !trivial
      | 1 -> trivial := (p, T_mul (!last, make_mul impl row.(!last))) :: !trivial
      | _ -> dense_rows := p :: !dense_rows)
    coeffs;
  let trivial = Array.of_list (List.rev !trivial) in
  let dense_rows = Array.of_list (List.rev !dense_rows) in
  let dense =
    if Array.length dense_rows = 0 then D_none
    else
      match impl with
      | Scalar -> D_scalar dense_rows
      | C_portable | C_simd ->
          let tables =
            List.concat_map
              (fun p -> Array.to_list (Array.map entry coeffs.(p)))
              (Array.to_list dense_rows)
          in
          D_c
            {
              d_level = level impl;
              d_rows = dense_rows;
              d_tables = String.concat "" tables;
            }
  in
  { r; k; coeffs; trivial; dense }

let apply_row_scalar ~coeffs ~srcs ~dst ~len ~acc =
  for i = 0 to len - 1 do
    let v = ref (if acc then Char.code (Bytes.unsafe_get dst i) else 0) in
    Array.iteri
      (fun j c ->
        if c <> 0 then
          v := !v lxor F.mul c (Char.code (Bytes.unsafe_get srcs.(j) i)))
      coeffs;
    Bytes.unsafe_set dst i (Char.unsafe_chr !v)
  done

let apply_trivial t ~srcs ~dsts ~len ~acc =
  Array.iter
    (fun (p, op) ->
      let dst = dsts.(p) in
      match op with
      | T_zero -> if not acc then Bytes.fill dst 0 len '\000'
      | T_one j ->
          if acc then F.mul_slice ~dst ~src:srcs.(j) 1
          else if dst != srcs.(j) then Bytes.blit srcs.(j) 0 dst 0 len
      | T_mul (j, m) ->
          if acc then mul_acc m ~dst ~src:srcs.(j)
          else mul_set m ~dst ~src:srcs.(j))
    t.trivial

let apply_rows ?(acc = false) t ~srcs ~dsts =
  if Array.length srcs <> t.k then
    invalid_arg "Gf256.Kernel.apply_rows: expected k sources";
  if Array.length dsts <> t.r then
    invalid_arg "Gf256.Kernel.apply_rows: expected r destinations";
  let len = if t.k > 0 then Bytes.length srcs.(0) else 0 in
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Gf256.Kernel.apply_rows: source length mismatch")
    srcs;
  Array.iter
    (fun b ->
      if Bytes.length b <> len then
        invalid_arg "Gf256.Kernel.apply_rows: destination length mismatch")
    dsts;
  apply_trivial t ~srcs ~dsts ~len ~acc;
  match t.dense with
  | D_none -> ()
  | D_scalar rows ->
      Array.iter
        (fun p ->
          apply_row_scalar ~coeffs:t.coeffs.(p) ~srcs ~dst:dsts.(p) ~len ~acc)
        rows
  | D_c { d_level; d_rows; d_tables } ->
      let dense_dsts = Array.map (fun p -> dsts.(p)) d_rows in
      c_rows_apply d_level d_tables srcs dense_dsts t.k
        (Array.length d_rows) len acc
