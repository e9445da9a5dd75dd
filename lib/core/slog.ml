module TsMap = Map.Make (struct
  type t = Timestamp.t

  let compare = Timestamp.compare
end)

(* Each persisted pair carries the checksum computed when it was
   written. A stored entry whose checksum no longer matches its
   content models a detectably-damaged record — a torn write or a
   latent sector error — and every read path below treats it as
   absent, so the protocol's recovery and scrub paths repair it like
   a missing version. *)
type entry = { block : Bytes.t option; mutable sum : int }

type t = {
  block_size : int;
  nil : Bytes.t;
  mutable entries : entry TsMap.t;
  mutable last_add : Timestamp.t option;
      (* Most recent [add], volatile (not part of persistent state):
         the write a crash can tear. *)
}

(* CRC32C (Crc32c): it changes on every single-bit error and every
   error burst of at most 32 bits. A bot marker carries a fixed tag
   above the CRC's 32-bit range, so no marker record can ever carry a
   block's checksum, and a torn marker is detectable too. *)
let checksum = function
  | None -> 0x1ae16a3b2f90404f
  | Some b -> Crc32c.bytes b

let intact e = e.sum = checksum e.block
let fresh block = { block; sum = checksum block }

(* One all-zero block per block size, shared by every log, stored with
   its checksum so a new log stamps its initial entry without hashing:
   [nil] is never mutated ([corrupt_newest] flips a copy), so a log
   need not own it. The map is immutable behind one atomic, safe across
   domains. *)
module Sizes = Map.Make (Int)

let zeroes = Atomic.make Sizes.empty

let rec zero_block n =
  let m = Atomic.get zeroes in
  match Sizes.find_opt n m with
  | Some z -> z
  | None ->
      let b = Bytes.make n '\000' in
      let z = (b, checksum (Some b)) in
      if Atomic.compare_and_set zeroes m (Sizes.add n z m) then z
      else zero_block n

let create ~block_size =
  if block_size <= 0 then invalid_arg "Core.Slog.create: block_size <= 0";
  let nil, sum = zero_block block_size in
  {
    block_size;
    nil;
    entries = TsMap.singleton Timestamp.low { block = Some nil; sum };
    last_add = None;
  }

let add t ts block =
  (match ts with
  | Timestamp.Low | Timestamp.High ->
      invalid_arg "Core.Slog.add: sentinel timestamp"
  | Timestamp.Ts _ -> ());
  (match block with
  | Some b when Bytes.length b <> t.block_size ->
      invalid_arg "Core.Slog.add: wrong block size"
  | Some _ | None -> ());
  (* Set semantics over intact entries; a damaged record at the same
     timestamp is overwritten (this is how recovery and scrub repair
     detected corruption in place). [last_add] only moves when a write
     physically happens: a deduped retransmission touches no media, so
     there is nothing for a crash to tear. *)
  match TsMap.find_opt ts t.entries with
  | Some e when intact e -> ()
  | Some _ | None ->
      t.entries <- TsMap.add ts (fresh block) t.entries;
      t.last_add <- Some ts

let find t ts =
  match TsMap.find_opt ts t.entries with
  | Some e when intact e -> Some e.block
  | Some _ | None -> None

let mem t ts = find t ts <> None

(* The queries scan newest-first and verify an entry only when they
   consult it: each stops at the first entry that answers it, so older
   entries are never hashed. [older bound entries] is the log strictly
   below [bound], newest first, produced lazily. *)
let rec older bound entries () =
  match TsMap.find_last_opt (fun ts -> Timestamp.( < ) ts bound) entries with
  | None -> Seq.Nil
  | Some ((ts, _) as x) -> Seq.Cons (x, older ts entries)

let newest t = older Timestamp.high t.entries

let rec first p s =
  match s () with
  | Seq.Nil -> None
  | Seq.Cons ((ts, e), rest) -> if p e then Some (ts, e, rest) else first p rest

(* An intact non-bot entry; markers are skipped without a check. *)
let real e = Option.is_some e.block && intact e

let max_ts t =
  match first intact (newest t) with
  | Some (ts, _, _) -> ts
  | None -> Timestamp.low

(* No entry is verified: this is the bound every answer of [max_ts]
   lies at or below. *)
let top_ts t =
  match TsMap.max_binding_opt t.entries with
  | Some (ts, _) -> ts
  | None -> Timestamp.low

let head t =
  (* With every real entry damaged the log is detectably empty, which
     reads as an unwritten register; the quorum repairs this brick as
     long as at most f members are in that state. *)
  let nil = (Timestamp.low, t.nil) in
  match first intact (newest t) with
  | None -> (Timestamp.low, nil)
  | Some (ts, { block = Some b; _ }, _) -> (ts, (ts, b))
  | Some (ts, _, rest) -> (
      match first real rest with
      | Some (r, { block = Some b; _ }, _) -> (ts, (r, b))
      | Some _ | None -> (ts, nil))

(* Markers above the newest real entry cost a tag compare, not a hash. *)
let max_block t = snd (head t)

let max_below t bound =
  match first intact (older bound t.entries) with
  | None -> None
  | Some (lts, { block = Some b; _ }, _) -> Some (lts, Some b)
  | Some (lts, _, rest) ->
      Some (lts, Option.bind (first real rest) (fun (_, e, _) -> e.block))

(* Every timestamp in the log lies below HighTS, so [max_below] at
   HighTS descends from the newest entry, as [max_ts] does: one descent
   answers both. *)
let max_and_below t bound =
  if Timestamp.equal bound Timestamp.high then
    let below = max_below t bound in
    ((match below with Some (ts, _) -> ts | None -> Timestamp.low), below)
  else (max_ts t, max_below t bound)

let gc t ~before =
  (* Only entries older than [before] are visited, and none is hashed:
     [head] names the two that must stay. *)
  let newest, (newest_real, _) = head t in
  let old, _, _ = TsMap.split before t.entries in
  TsMap.fold
    (fun ts _ removed ->
      if Timestamp.equal ts newest || Timestamp.equal ts newest_real then
        removed
      else begin
        t.entries <- TsMap.remove ts t.entries;
        removed + 1
      end)
    old 0

let size t = TsMap.cardinal t.entries

let entries t =
  TsMap.fold (fun ts e acc -> (ts, e.block) :: acc) t.entries []

let checksum_errors t =
  TsMap.fold (fun _ e acc -> if intact e then acc else acc + 1) t.entries 0

let corrupt_newest t =
  match first real (newest t) with
  | Some (ts, { block = Some block; _ }, _) ->
      let copy = Bytes.copy block in
      Bytes.set copy 0 (Char.chr (Char.code (Bytes.get copy 0) lxor 0x40));
      (* The checksum is recomputed over the flipped content: this
         models corruption below the checksum's radar (bad RAM at
         write time, firmware writing the wrong bits with a valid CRC).
         Only scrub's cross-brick decode can catch it. *)
      t.entries <- TsMap.add ts (fresh (Some copy)) t.entries
  | Some _ | None -> ()

let damage_newest t =
  match first real (newest t) with
  | None -> None
  | Some (ts, e, _) ->
      e.sum <- e.sum lxor 1;
      Some ts

let tear_last t =
  match t.last_add with
  | None -> None
  | Some ts ->
      t.last_add <- None;
      (match TsMap.find_opt ts t.entries with
      | Some e when intact e ->
          e.sum <- e.sum lxor 1;
          Some ts
      | Some _ | None -> None)
