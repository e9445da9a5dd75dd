(* Tests for the persistent version log (paper section 4.2, 5.1). *)

module Ts = Core.Timestamp
module Slog = Core.Slog

let bs = 16
let ts t = Ts.make ~time:t ~pid:0
let blk c = Bytes.make bs c

let test_initial_state () =
  let l = Slog.create ~block_size:bs in
  Alcotest.(check int) "one entry" 1 (Slog.size l);
  Alcotest.(check bool) "max_ts is Low" true (Ts.equal (Slog.max_ts l) Ts.low);
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "nil at Low" true (Ts.equal mts Ts.low);
  Alcotest.(check bool) "nil is zeroes" true
    (Bytes.for_all (fun c -> c = '\000') mb);
  Alcotest.(check int) "block size" bs (Slog.block_size l)

let test_add_and_queries () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 9) (Some (blk 'b'));
  Slog.add l (ts 7) None;
  Alcotest.(check int) "4 entries" 4 (Slog.size l);
  Alcotest.(check bool) "max_ts = 9" true (Ts.equal (Slog.max_ts l) (ts 9));
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "max_block at 9" true (Ts.equal mts (ts 9));
  Alcotest.(check bool) "content b" true (Bytes.equal mb (blk 'b'));
  Alcotest.(check bool) "mem 7" true (Slog.mem l (ts 7));
  Alcotest.(check bool) "not mem 8" false (Slog.mem l (ts 8));
  (match Slog.find l (ts 7) with
  | Some None -> ()
  | _ -> Alcotest.fail "find marker");
  match Slog.find l (ts 5) with
  | Some (Some b) -> Alcotest.(check bool) "find block" true (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "find 5"

let test_marker_as_newest () =
  (* A bot marker newer than every real block: max_ts counts it,
     max_block skips it. *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 8) None;
  Alcotest.(check bool) "max_ts sees marker" true (Ts.equal (Slog.max_ts l) (ts 8));
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "max_block at 5" true (Ts.equal mts (ts 5));
  Alcotest.(check bool) "content a" true (Bytes.equal mb (blk 'a'))

let test_max_below_plain () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 9) (Some (blk 'b'));
  (match Slog.max_below l Ts.high with
  | Some (lts, Some b) ->
      Alcotest.(check bool) "newest below High" true (Ts.equal lts (ts 9));
      Alcotest.(check bool) "content" true (Bytes.equal b (blk 'b'))
  | _ -> Alcotest.fail "below high");
  (match Slog.max_below l (ts 9) with
  | Some (lts, Some b) ->
      Alcotest.(check bool) "strictly below" true (Ts.equal lts (ts 5));
      Alcotest.(check bool) "content a" true (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "below 9");
  match Slog.max_below l Ts.low with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing below Low"

let test_max_below_marker_semantics () =
  (* The version a marker names is the marker's timestamp with the
     newest real content below it (see slog.mli and DESIGN.md). *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 8) None;
  (match Slog.max_below l Ts.high with
  | Some (lts, Some b) ->
      Alcotest.(check bool) "marker ts reported" true (Ts.equal lts (ts 8));
      Alcotest.(check bool) "older real content" true (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "marker-aware reply");
  (* Below the marker: the real entry itself. *)
  match Slog.max_below l (ts 8) with
  | Some (lts, Some b) ->
      Alcotest.(check bool) "real entry" true (Ts.equal lts (ts 5));
      Alcotest.(check bool) "content" true (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "below marker"

let test_add_idempotent () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 5) (Some (blk 'z'));  (* ignored: set semantics *)
  Alcotest.(check int) "no duplicate" 2 (Slog.size l);
  match Slog.find l (ts 5) with
  | Some (Some b) -> Alcotest.(check bool) "first write wins" true (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "entry"

let test_add_validation () =
  let l = Slog.create ~block_size:bs in
  Alcotest.check_raises "sentinel"
    (Invalid_argument "Core.Slog.add: sentinel timestamp") (fun () ->
      Slog.add l Ts.low (Some (blk 'a')));
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Core.Slog.add: wrong block size") (fun () ->
      Slog.add l (ts 1) (Some (Bytes.create 3)));
  Alcotest.check_raises "create size"
    (Invalid_argument "Core.Slog.create: block_size <= 0") (fun () ->
      ignore (Slog.create ~block_size:0))

let test_gc_drops_old () =
  let l = Slog.create ~block_size:bs in
  for i = 1 to 10 do
    Slog.add l (ts i) (Some (blk (Char.chr (96 + i))))
  done;
  let removed = Slog.gc l ~before:(ts 8) in
  (* entries 1..7 and the initial Low entry go; 8, 9, 10 stay *)
  Alcotest.(check int) "removed" 8 removed;
  Alcotest.(check int) "kept" 3 (Slog.size l);
  Alcotest.(check bool) "max_ts intact" true (Ts.equal (Slog.max_ts l) (ts 10));
  Alcotest.(check bool) "8 kept" true (Slog.mem l (ts 8));
  Alcotest.(check bool) "7 gone" false (Slog.mem l (ts 7))

let test_gc_preserves_newest_even_if_old () =
  (* gc with a threshold above everything must keep the newest entry
     and the newest real block so max_ts / max_block stay defined. *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 3) (Some (blk 'a'));
  Slog.add l (ts 6) None;  (* newest entry is a marker *)
  let removed = Slog.gc l ~before:(ts 100) in
  Alcotest.(check int) "only Low dropped" 1 removed;
  Alcotest.(check bool) "marker kept" true (Slog.mem l (ts 6));
  Alcotest.(check bool) "real block kept" true (Slog.mem l (ts 3));
  let _, mb = Slog.max_block l in
  Alcotest.(check bool) "max_block defined" true (Bytes.equal mb (blk 'a'))

let test_gc_idempotent () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 1) (Some (blk 'a'));
  Slog.add l (ts 2) (Some (blk 'b'));
  ignore (Slog.gc l ~before:(ts 2));
  let again = Slog.gc l ~before:(ts 2) in
  Alcotest.(check int) "second gc removes nothing" 0 again

let test_entries_newest_first () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 2) (Some (blk 'a'));
  Slog.add l (ts 5) None;
  match Slog.entries l with
  | (t1, None) :: (t2, Some _) :: (t3, Some _) :: [] ->
      Alcotest.(check bool) "5 first" true (Ts.equal t1 (ts 5));
      Alcotest.(check bool) "then 2" true (Ts.equal t2 (ts 2));
      Alcotest.(check bool) "then Low" true (Ts.equal t3 Ts.low)
  | _ -> Alcotest.fail "unexpected shape"

let test_tear_last () =
  let l = Slog.create ~block_size:bs in
  Alcotest.(check bool) "nothing to tear" true (Slog.tear_last l = None);
  Slog.add l (ts 5) (Some (blk 'a'));
  (match Slog.tear_last l with
  | Some t -> Alcotest.(check bool) "tears 5" true (Ts.equal t (ts 5))
  | None -> Alcotest.fail "expected a tear");
  Alcotest.(check bool) "reads as absent" false (Slog.mem l (ts 5));
  Alcotest.(check int) "one checksum error" 1 (Slog.checksum_errors l);
  Alcotest.(check bool) "each write torn at most once" true
    (Slog.tear_last l = None);
  (* Recovery rewrites the damaged entry in place. *)
  Slog.add l (ts 5) (Some (blk 'a'));
  Alcotest.(check bool) "repaired" true (Slog.mem l (ts 5))

let test_tear_skips_deduped_add () =
  (* Regression: a retransmitted add deduped by set semantics touches
     no media, so a crash racing it must not tear the long-durable
     entry it happened to name — only the last physical write. *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 9) (Some (blk 'b'));
  Slog.add l (ts 5) (Some (blk 'a'));  (* deduped retransmission *)
  (match Slog.tear_last l with
  | Some t ->
      Alcotest.(check bool) "tears the last physical write" true
        (Ts.equal t (ts 9))
  | None -> Alcotest.fail "expected a tear");
  Alcotest.(check bool) "durable entry untouched" true (Slog.mem l (ts 5));
  (* With 9 already torn, another deduped add leaves nothing tearable. *)
  Slog.add l (ts 5) (Some (blk 'a'));
  Alcotest.(check bool) "no-op add is not tearable" true
    (Slog.tear_last l = None)

let test_corrupt_newest_never_resurrects () =
  (* Regression: with no intact real entry left, corrupt_newest used to
     corrupt max_block's (LowTS, nil) fallback, inserting a new LowTS
     entry with non-zero "unwritten" content. *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  ignore (Slog.gc l ~before:(ts 5));
  Alcotest.(check int) "LowTS collected" 1 (Slog.size l);
  ignore (Slog.damage_newest l);
  Slog.corrupt_newest l;
  Alcotest.(check int) "nothing added" 1 (Slog.size l);
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "reads as unwritten" true
    (Ts.equal mts Ts.low && Bytes.for_all (fun c -> c = '\000') mb)

let test_corrupt_newest_restamps () =
  (* The newest intact real entry is rewritten in place, below the
     checksum's radar: it stays intact, with different content. *)
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 7) None;
  Slog.corrupt_newest l;
  Alcotest.(check int) "same entries" 3 (Slog.size l);
  Alcotest.(check int) "no checksum error" 0 (Slog.checksum_errors l);
  match Slog.find l (ts 5) with
  | Some (Some b) ->
      Alcotest.(check bool) "content flipped" false (Bytes.equal b (blk 'a'))
  | _ -> Alcotest.fail "entry 5"

let test_damage_newest () =
  let l = Slog.create ~block_size:bs in
  Slog.add l (ts 5) (Some (blk 'a'));
  Slog.add l (ts 9) (Some (blk 'b'));
  Slog.add l (ts 12) None;
  let damages what expect =
    Alcotest.(check (option string)) what
      (Option.map Ts.to_string expect)
      (Option.map Ts.to_string (Slog.damage_newest l))
  in
  damages "skips the marker" (Some (ts 9));
  damages "skips damaged 9" (Some (ts 5));
  damages "then the nil block" (Some Ts.low);
  damages "nothing intact" None;
  Alcotest.(check int) "three errors" 3 (Slog.checksum_errors l);
  Alcotest.(check bool) "marker still the head" true
    (Ts.equal (Slog.max_ts l) (ts 12));
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "reads as unwritten" true
    (Ts.equal mts Ts.low && Bytes.for_all (fun c -> c = '\000') mb);
  (* A later add at the same timestamp repairs the entry. *)
  Slog.add l (ts 9) (Some (blk 'b'));
  Alcotest.(check int) "two errors" 2 (Slog.checksum_errors l);
  let mts, mb = Slog.max_block l in
  Alcotest.(check bool) "repaired" true
    (Ts.equal mts (ts 9) && Bytes.equal mb (blk 'b'))

(* Every single-bit flip of a stored block is caught. The log keeps the
   caller's buffer by reference, so flipping a bit in it models rot of
   the stored record. 13 bytes exercise the checksum's tail loop;
   4096 bytes are a full 4 KiB block. *)
let test_checksum_detects_every_bit size () =
  let l = Slog.create ~block_size:size in
  let b = Bytes.init size (fun i -> Char.chr ((i * 37 + 11) land 0xff)) in
  Slog.add l (ts 5) (Some b);
  let flip i bit =
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
  in
  for i = 0 to size - 1 do
    for bit = 0 to 7 do
      flip i bit;
      if Slog.find l (ts 5) <> None || Slog.checksum_errors l <> 1 then
        Alcotest.failf "flip of byte %d bit %d undetected" i bit;
      flip i bit;
      if Slog.find l (ts 5) <> Some (Some b) || Slog.checksum_errors l <> 0
      then Alcotest.failf "byte %d bit %d: not intact after restore" i bit
    done
  done

(* RFC 3720 section B.4 known answers, plus the customary check value
   of "123456789". The CRC is read as a number, so 0x8a9136aa is the
   value the RFC lists as the bytes aa 36 91 8a. *)
let test_crc32c_known_answers () =
  let check name want b =
    Alcotest.(check string) name (Printf.sprintf "%08x" want)
      (Printf.sprintf "%08x" (Slog.checksum (Some b)))
  in
  check "32 x 00" 0x8a9136aa (Bytes.make 32 '\000');
  check "32 x ff" 0x62a8ab43 (Bytes.make 32 '\255');
  check "32 ascending" 0x46dd794e (Bytes.init 32 Char.chr);
  check "32 descending" 0x113fdb5c (Bytes.init 32 (fun i -> Char.chr (31 - i)));
  check "123456789" 0xe3069283 (Bytes.of_string "123456789")

(* The hardware path (when this CPU has one) and the portable path
   agree on every length around the 8-byte step and its tail, and on
   the two block sizes the benchmarks use. *)
let test_crc32c_paths_agree () =
  let agree len =
    let b = Bytes.init len (fun i -> Char.chr ((i * 131 + len) land 0xff)) in
    let hw = Core.Crc32c.bytes b and sw = Core.Crc32c.portable b in
    if hw <> sw then
      Alcotest.failf "length %d: %s %08x, portable %08x" len Core.Crc32c.kernel
        hw sw
  in
  for len = 0 to 300 do
    agree len
  done;
  List.iter agree [ 4096; 65536; 65536 + 7 ]

let test_marker_tag_outside_crc_range () =
  Alcotest.(check bool) "bot tag > 0xffffffff" true
    (Slog.checksum None > 0xffffffff)

(* A list-based oracle with the log's original whole-log fold
   semantics: the newest-first queries must answer exactly as it does
   after every step of a random history. *)
module Model = struct
  type e = { ts : Ts.t; block : Bytes.t option; ok : bool }

  (* Oldest first. *)
  type t = { mutable es : e list; mutable last : Ts.t option }

  let create () =
    { es = [ { ts = Ts.low; block = Some (Bytes.make bs '\000'); ok = true } ];
      last = None }

  let nil = (Ts.low, Bytes.make bs '\000')
  let fold f l acc = List.fold_left (fun acc e -> f e acc) acc l.es
  let intact l t = List.exists (fun e -> e.ok && Ts.equal e.ts t) l.es

  let put l e =
    l.es <-
      List.sort
        (fun a b -> Ts.compare a.ts b.ts)
        (e :: List.filter (fun x -> not (Ts.equal x.ts e.ts)) l.es)

  let add l t block =
    if not (intact l t) then begin
      put l { ts = t; block = Option.map Bytes.copy block; ok = true };
      l.last <- Some t
    end

  let find l t =
    List.find_map
      (fun e -> if e.ok && Ts.equal e.ts t then Some e.block else None)
      l.es

  let max_ts l =
    fold (fun e acc -> if e.ok then e.ts else acc) l Ts.low

  let real_at_or_below l bound =
    fold
      (fun e acc ->
        match e.block with
        | Some b when e.ok && Ts.( <= ) e.ts bound -> Some (e.ts, b)
        | Some _ | None -> acc)
      l None

  let max_block l =
    Option.value (real_at_or_below l (max_ts l)) ~default:nil

  let max_below l bound =
    let below e acc = if e.ok && Ts.( < ) e.ts bound then Some e.ts else acc in
    match fold below l None with
    | None -> None
    | Some lts -> Some (lts, Option.map snd (real_at_or_below l lts))

  let gc l ~before =
    let newest = max_ts l and newest_real = fst (max_block l) in
    let keep e =
      Ts.( >= ) e.ts before || Ts.equal e.ts newest || Ts.equal e.ts newest_real
    in
    let n = List.length l.es in
    l.es <- List.filter keep l.es;
    n - List.length l.es

  let newest_real l =
    fold (fun e acc -> if e.ok && e.block <> None then Some e else acc) l None

  let damage_newest l =
    Option.map (fun e -> put l { e with ok = false }; e.ts) (newest_real l)

  let corrupt_newest l =
    match newest_real l with
    | Some ({ block = Some b; _ } as e) ->
        let c = Bytes.copy b in
        Bytes.set c 0 (Char.chr (Char.code (Bytes.get c 0) lxor 0x40));
        put l { e with block = Some c }
    | Some _ | None -> ()

  let tear_last l =
    match l.last with
    | None -> None
    | Some t ->
        l.last <- None;
        if intact l t then begin
          put l
            { (List.find (fun e -> Ts.equal e.ts t) l.es) with ok = false };
          Some t
        end
        else None

  let size l = List.length l.es
  let errors l = List.length (List.filter (fun e -> not e.ok) l.es)
end

let test_queries_match_model () =
  let horizon = 12 in
  let rng = Random.State.make [| 20040628 |] in
  let ts_s t = Ts.to_string t in
  let blk_s = function None -> "bot" | Some b -> Bytes.to_string b in
  let check_all step l m =
    let where what = Printf.sprintf "step %d: %s" step what in
    let eq what show a b =
      if a <> b then
        Alcotest.failf "%s: %s <> %s" (where what) (show a) (show b)
    in
    let pair (t, b) = ts_s t ^ "/" ^ Bytes.to_string b in
    eq "max_ts" ts_s (Model.max_ts m) (Slog.max_ts l);
    eq "max_block" pair (Model.max_block m) (Slog.max_block l);
    eq "head" (fun (t, p) -> ts_s t ^ " " ^ pair p)
      (Model.max_ts m, Model.max_block m)
      (Slog.head l);
    eq "size" string_of_int (Model.size m) (Slog.size l);
    eq "checksum_errors" string_of_int (Model.errors m)
      (Slog.checksum_errors l);
    let below = function
      | None -> "none"
      | Some (t, c) -> ts_s t ^ " " ^ blk_s c
    in
    let bounds = Ts.low :: Ts.high :: List.init (horizon + 2) ts in
    List.iter
      (fun b ->
        eq ("max_below " ^ ts_s b) below (Model.max_below m b)
          (Slog.max_below l b);
        eq ("find " ^ ts_s b)
          (function None -> "absent" | Some c -> blk_s c)
          (Model.find m b) (Slog.find l b);
        eq ("mem " ^ ts_s b) string_of_bool (Model.find m b <> None)
          (Slog.mem l b))
      bounds
  in
  for _ = 1 to 100 do
    let l = Slog.create ~block_size:bs and m = Model.create () in
    for step = 1 to 40 do
      let t = ts (1 + Random.State.int rng horizon) in
      let opt show a b =
        if a <> b then
          Alcotest.failf "step %d: %s <> %s" step
            (Option.fold ~none:"none" ~some:show a)
            (Option.fold ~none:"none" ~some:show b)
      in
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let b =
            if Random.State.bool rng then
              Some
                (Bytes.init bs (fun _ -> Char.chr (Random.State.int rng 256)))
            else None
          in
          Model.add m t b;
          Slog.add l t b
      | 4 ->
          let removed = Model.gc m ~before:t in
          Alcotest.(check int) "gc removed" removed (Slog.gc l ~before:t)
      | 5 | 6 -> opt ts_s (Model.damage_newest m) (Slog.damage_newest l)
      | 7 | 8 -> opt ts_s (Model.tear_last m) (Slog.tear_last l)
      | _ ->
          Model.corrupt_newest m;
          Slog.corrupt_newest l);
      check_all step l m
    done
  done

let qtest name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:200 ~name gen f)

(* Random logs: lists of (time, has-block). *)
let log_gen =
  QCheck.list_of_size (QCheck.Gen.int_range 0 20)
    (QCheck.pair (QCheck.int_range 1 30) QCheck.bool)

let build entries =
  let l = Slog.create ~block_size:bs in
  List.iter
    (fun (t, real) ->
      Slog.add l (ts t) (if real then Some (blk 'x') else None))
    entries;
  l

let slog_props =
  [
    qtest "max_ts is the maximum" log_gen (fun entries ->
        let l = build entries in
        let expect =
          List.fold_left (fun acc (t, _) -> Ts.max acc (ts t)) Ts.low entries
        in
        Ts.equal (Slog.max_ts l) expect);
    qtest "gc never changes max_ts or max_block" log_gen (fun entries ->
        let l = build entries in
        let mts = Slog.max_ts l and mb = Slog.max_block l in
        ignore (Slog.gc l ~before:(ts 15));
        Ts.equal (Slog.max_ts l) mts
        && Ts.equal (fst (Slog.max_block l)) (fst mb)
        && Bytes.equal (snd (Slog.max_block l)) (snd mb));
    qtest "max_below bound respected" (QCheck.pair log_gen (QCheck.int_range 1 30))
      (fun (entries, bound) ->
        let l = build entries in
        match Slog.max_below l (ts bound) with
        | None -> true
        | Some (lts, _) -> Ts.( < ) lts (ts bound));
  ]

let () =
  Alcotest.run "slog"
    [
      ( "queries",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "add and queries" `Quick test_add_and_queries;
          Alcotest.test_case "marker as newest" `Quick test_marker_as_newest;
          Alcotest.test_case "max_below plain" `Quick test_max_below_plain;
          Alcotest.test_case "max_below marker semantics" `Quick
            test_max_below_marker_semantics;
          Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
          Alcotest.test_case "validation" `Quick test_add_validation;
          Alcotest.test_case "entries newest first" `Quick test_entries_newest_first;
        ] );
      ( "gc",
        [
          Alcotest.test_case "drops old entries" `Quick test_gc_drops_old;
          Alcotest.test_case "preserves newest" `Quick
            test_gc_preserves_newest_even_if_old;
          Alcotest.test_case "idempotent" `Quick test_gc_idempotent;
        ] );
      ( "damage",
        [
          Alcotest.test_case "damage_newest" `Quick test_damage_newest;
          Alcotest.test_case "corrupt_newest never resurrects" `Quick
            test_corrupt_newest_never_resurrects;
          Alcotest.test_case "corrupt_newest restamps" `Quick
            test_corrupt_newest_restamps;
          Alcotest.test_case "checksum catches every bit (64 B)" `Quick
            (test_checksum_detects_every_bit 64);
          Alcotest.test_case "checksum catches every bit (13 B)" `Quick
            (test_checksum_detects_every_bit 13);
          Alcotest.test_case "checksum catches every bit (4096 B)" `Quick
            (test_checksum_detects_every_bit 4096);
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "known answers" `Quick test_crc32c_known_answers;
          Alcotest.test_case "hardware and portable paths agree" `Quick
            test_crc32c_paths_agree;
          Alcotest.test_case "bot tag outside CRC range" `Quick
            test_marker_tag_outside_crc_range;
        ] );
      ( "model",
        [
          Alcotest.test_case "queries match the fold model" `Quick
            test_queries_match_model;
        ] );
      ( "tear",
        [
          Alcotest.test_case "tear_last" `Quick test_tear_last;
          Alcotest.test_case "deduped add not tearable" `Quick
            test_tear_skips_deduped_add;
        ] );
      ("properties", slog_props);
    ]
