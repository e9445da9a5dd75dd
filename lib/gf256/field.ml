(* GF(2^8) arithmetic with the primitive polynomial 0x11d.

   The tables are built once at module initialization: [exp.(i)] holds
   2^i for i in [0, 509] (doubled so that [exp.(log a + log b)] needs no
   modular reduction), and [log.(a)] holds the discrete log of [a] for
   a in [1, 255]. *)

type t = int

let field_size = 256
let primitive_poly = 0x11d

let exp = Array.make (2 * (field_size - 1)) 0
let log = Array.make field_size 0

let () =
  let x = ref 1 in
  for i = 0 to field_size - 2 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lsl 1;
    if !x land 0x100 <> 0 then x := !x lxor primitive_poly
  done;
  for i = field_size - 1 to (2 * (field_size - 1)) - 1 do
    exp.(i) <- exp.(i - (field_size - 1))
  done

let check_element a =
  if a < 0 || a > 255 then
    invalid_arg (Printf.sprintf "Gf256.Field: element %d out of range" a)

let add a b = a lxor b
let sub = add

let mul a b =
  check_element a;
  check_element b;
  if a = 0 || b = 0 then 0 else exp.(log.(a) + log.(b))

let inv a =
  check_element a;
  if a = 0 then raise Division_by_zero else exp.(field_size - 1 - log.(a))

let div a b =
  check_element a;
  check_element b;
  if b = 0 then raise Division_by_zero
  else if a = 0 then 0
  else exp.(log.(a) + (field_size - 1) - log.(b))

let pow a k =
  if k < 0 then invalid_arg "Gf256.Field.pow: negative exponent";
  if k = 0 then 1
  else if a = 0 then 0
  else exp.(log.(a) * k mod (field_size - 1))

let exp_table i =
  if i < 0 then invalid_arg "Gf256.Field.exp_table: negative index";
  exp.(i mod (field_size - 1))

let log_table a =
  if a = 0 then invalid_arg "Gf256.Field.log_table: log of zero";
  log.(a)

(* ------------------------------------------------------------------ *)
(* Slices and SPLIT(8,4) tables                                        *)
(* ------------------------------------------------------------------ *)

(* Bulk slice multiplication lives in Gf256.Kernel. What stays here is
   plain XOR accumulation (c = 1), 64 bits at a time, which delta
   computation and the kernels' identity rows use; other coefficients
   take a byte-at-a-time loop over the nibble tables. *)

external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* dst.(i) <- dst.(i) xor src.(i), 64 bits at a time. Caller has checked
   that both buffers have length [len]. *)
let xor_slice_unchecked ~dst ~src len =
  let words = len lsr 3 in
  for w = 0 to words - 1 do
    let off = w lsl 3 in
    unsafe_set_64 dst off
      (Int64.logxor (unsafe_get_64 dst off) (unsafe_get_64 src off))
  done;
  for i = words lsl 3 to len - 1 do
    Bytes.unsafe_set dst i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get dst i)
         lxor Char.code (Bytes.unsafe_get src i)))
  done

(* For a coefficient c the product c * s splits over the nibbles of s:
   c * s = c * (s_hi << 4) + c * s_lo, so two 16-entry tables reproduce
   the full product table in 32 bytes: bytes 0..15 are c * v, bytes
   16..31 are c * (v << 4). One string holds all 256 pairs, built here
   at module initialisation, so no domain ever writes it. *)
let split_tables =
  let mul_c c s = if c = 0 || s = 0 then 0 else exp.(log.(c) + log.(s)) in
  String.init (field_size * 32) (fun i ->
      let c = i lsr 5 and v = i land 31 in
      Char.unsafe_chr (if v < 16 then mul_c c v else mul_c c ((v - 16) lsl 4)))

let mul_slice ~dst ~src c =
  let len = Bytes.length src in
  if Bytes.length dst <> len then
    invalid_arg "Gf256.Field.mul_slice: length mismatch";
  check_element c;
  if c = 0 then ()
  else if c = 1 then xor_slice_unchecked ~dst ~src len
  else
    let base = c lsl 5 in
    for i = 0 to len - 1 do
      let s = Char.code (Bytes.unsafe_get src i) in
      let p =
        Char.code (String.unsafe_get split_tables (base + (s land 15)))
        lxor Char.code (String.unsafe_get split_tables (base + 16 + (s lsr 4)))
      in
      Bytes.unsafe_set dst i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get dst i) lxor p))
    done
