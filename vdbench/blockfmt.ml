(* Self-describing blocks and the read-side checker.

   Every block the benchmark writes carries a 32-byte header — its
   LBA, the writer id, the writer's sequence number and a checksum —
   followed by a body derived from the header. A read block is judged
   in three steps: the checksum must match the bytes (else
   [Bad_checksum]), the header LBA must be the address it was read
   from (else [Wrong_lba]), and the (writer, seq) pair must name a
   write the benchmark issued covering that LBA (else [Unknown]).
   None of this pins which write a read must return: the volume's
   retry loop is at-least-once (see lib/fab/volume.ml), so any issued
   write is a legal value. *)

let header_bytes = 32

(* splitmix64's finalizer on OCaml's 63-bit ints: a cheap bijective
   scramble, good enough to make every body word depend on the header. *)
let mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

let fnv_prime = 0x100000001b3

let body_words block_size = (block_size - header_bytes) / 8

let checksum ~lba ~writer ~seq b ~off ~block_size =
  let h = ref ((((lba * fnv_prime) lxor writer) * fnv_prime) lxor seq) in
  for i = 0 to body_words block_size - 1 do
    let w = Int64.to_int (Bytes.get_int64_le b (off + header_bytes + (8 * i))) in
    h := (!h lxor w) * fnv_prime
  done;
  !h

(* Fill [b.[off .. off + block_size)] with the block for (lba, writer,
   seq). *)
let fill_block b ~off ~block_size ~lba ~writer ~seq =
  let key = mix ((lba * 0x9e3779b97f4a7c1) lxor (writer lsl 48) lxor seq) in
  for i = 0 to body_words block_size - 1 do
    Bytes.set_int64_le b
      (off + header_bytes + (8 * i))
      (Int64.of_int (mix (key + i)))
  done;
  Bytes.set_int64_le b off (Int64.of_int lba);
  Bytes.set_int64_le b (off + 8) (Int64.of_int writer);
  Bytes.set_int64_le b (off + 16) (Int64.of_int seq);
  Bytes.set_int64_le b (off + 24)
    (Int64.of_int (checksum ~lba ~writer ~seq b ~off ~block_size))

(* Writes the benchmark has issued, keyed by (writer, seq), each with
   the extent it covers. Filled before the write is sent, so a read
   racing the write can already name it. *)
type registry = {
  lock : Mutex.t;
  issued : (int, int * int) Hashtbl.t;  (* key -> (lba, count) *)
  mutable next_seq : int;
}

let registry () =
  { lock = Mutex.create (); issued = Hashtbl.create 4096; next_seq = 0 }

let key ~writer ~seq = (writer lsl 40) lor seq

(* A fresh payload of [count] blocks for a write at [lba] by
   [writer]. *)
let issue reg ~writer ~lba ~count ~block_size =
  Mutex.lock reg.lock;
  let seq = reg.next_seq in
  reg.next_seq <- seq + 1;
  Hashtbl.replace reg.issued (key ~writer ~seq) (lba, count);
  Mutex.unlock reg.lock;
  let b = Bytes.create (count * block_size) in
  for i = 0 to count - 1 do
    fill_block b ~off:(i * block_size) ~block_size ~lba:(lba + i) ~writer
      ~seq
  done;
  b

type verdict = Good | Bad_checksum | Wrong_lba | Unknown

let judge reg ~lba b ~off ~block_size =
  let get k = Int64.to_int (Bytes.get_int64_le b (off + k)) in
  let hlba = get 0 and writer = get 8 and seq = get 16 and sum = get 24 in
  let body_ok =
    checksum ~lba:hlba ~writer ~seq b ~off ~block_size = sum
  in
  if not body_ok then Bad_checksum
  else if hlba <> lba then Wrong_lba
  else begin
    Mutex.lock reg.lock;
    let found = Hashtbl.find_opt reg.issued (key ~writer ~seq) in
    Mutex.unlock reg.lock;
    match found with
    | Some (l0, count) when lba >= l0 && lba < l0 + count -> Good
    | Some _ | None -> Unknown
  end

(* Per-verdict tallies over every block the benchmark read back. *)
type tally = {
  checked : int Atomic.t;
  bad_checksum : int Atomic.t;
  wrong_lba : int Atomic.t;
  unknown : int Atomic.t;
}

let tally () =
  {
    checked = Atomic.make 0;
    bad_checksum = Atomic.make 0;
    wrong_lba = Atomic.make 0;
    unknown = Atomic.make 0;
  }

(* Check every block of a read of [count] blocks at [lba]. *)
let check reg tally ~lba ~count ~block_size b =
  for i = 0 to count - 1 do
    Atomic.incr tally.checked;
    match judge reg ~lba:(lba + i) b ~off:(i * block_size) ~block_size with
    | Good -> ()
    | Bad_checksum -> Atomic.incr tally.bad_checksum
    | Wrong_lba -> Atomic.incr tally.wrong_lba
    | Unknown -> Atomic.incr tally.unknown
  done

let errors t =
  Atomic.get t.bad_checksum + Atomic.get t.wrong_lba + Atomic.get t.unknown
