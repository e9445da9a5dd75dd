(* bench_diff: compare two BENCH_*.json files and fail on regressions.

   Usage:
     bench_diff OLD.json NEW.json [--threshold PCT] [--rule PAT:PCT]
                [--exact] [--ignore PATH] [--force] [--quiet]

   Both files are flattened to dotted leaf paths (arrays of objects are
   keyed by their "name"/"w" field when present, by index otherwise).
   Two modes:

   - default: numeric leaves present in both files are compared with a
     direction-aware rule (latency up = worse, throughput down = worse,
     ...); any metric worse by more than the threshold (default 10%) is
     a regression. --rule PAT:PCT overrides the threshold for paths
     containing PAT (PCT < 0 disables the check for those paths).
   - --exact: any differing or missing leaf is a failure — the
     determinism gate (same seed, same commit => identical report).

   Meta stamps guard against apples-to-oranges comparisons: if the two
   files disagree on gf_kernel / simd_level / crc32c / geometry /
   workload shape / runtime backend / domain count the diff refuses to run
   (exit 2) unless --force is given — sim delta units and mc
   wall-clock seconds must never be compared as if commensurable.
   meta.date, meta.git and meta.ocaml_version are always ignored (they
   differ by commit or toolchain, not by behaviour).

   Exit codes: 0 = no regression, 1 = regression (or --exact
   difference), 2 = incompatible meta / unreadable input / usage. *)

(* ---------------- recursive JSON ---------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    incr pos;
    c
  in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' -> (
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
              | Some _ -> Buffer.add_char b '?'
              | None -> fail "bad \\u escape")
          | _ -> fail "unknown escape");
          loop ())
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec loop () =
            items := parse_value () :: !items;
            skip_ws ();
            match next () with
            | ',' -> loop ()
            | ']' -> ()
            | _ -> fail "expected , or ]"
          in
          loop ();
          Arr (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match next () with
            | ',' -> loop ()
            | '}' -> ()
            | _ -> fail "expected , or }"
          in
          loop ();
          Obj (List.rev !fields)
        end
    | _ -> fail "expected value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

(* ---------------- flattening ---------------- *)

(* Arrays of objects are keyed by a stable identity field when one
   exists, so inserting a window in the middle doesn't shift every
   later path. *)
let arr_key (item : json) =
  match item with
  | Obj fields -> (
      match List.assoc_opt "name" fields with
      | Some (Str s) -> Some s
      | _ -> (
          match List.assoc_opt "w" fields with
          | Some (Num w) -> Some (Printf.sprintf "w%g" w)
          | _ -> None))
  | _ -> None

let flatten (j : json) : (string * json) list =
  let out = ref [] in
  let rec go path j =
    match j with
    | Obj fields ->
        List.iter
          (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
          fields
    | Arr items ->
        List.iteri
          (fun i item ->
            let key =
              match arr_key item with
              | Some k -> k
              | None -> string_of_int i
            in
            go (Printf.sprintf "%s[%s]" path key) item)
          items
    | leaf -> out := (path, leaf) :: !out
  in
  go "" j;
  List.rev !out

let leaf_str = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> Printf.sprintf "%.12g" f
  | Str s -> Printf.sprintf "%S" s
  | Arr _ | Obj _ -> "<tree>"

(* ---------------- direction classifier ---------------- *)

type dir = Worse_up | Worse_down | Neutral

let last_segment path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let direction path =
  let seg = last_segment path in
  (* strip an array suffix like "p99[3]" *)
  let seg =
    match String.index_opt seg '[' with
    | Some i -> String.sub seg 0 i
    | None -> seg
  in
  match seg with
  | "throughput" | "goodput" | "ok" | "mb_per_s" | "blocks_per_s" -> Worse_down
  (* BENCH_parallel.json rate fields: higher is better. Only the new
     implementation's cells are gated; the legacy-twin columns
     (single_calls_per_sec, legacy_msgs_per_sec) stay informational. *)
  | "ops_per_sec" | "sharded_calls_per_sec" | "batched_msgs_per_sec"
  | "arms_per_sec" | "speedup" | "speedup_vs_1" ->
      Worse_down
  | "mean" | "max" | "p50" | "p90" | "p95" | "p99" | "p999" | "stddev"
  | "aborts" | "unavailable" | "bad" | "burn" | "retransmits" | "drops"
  | "timeouts" | "elapsed" | "evicted" | "ns_per_block" | "msgs" | "bytes"
  | "net_blocks" | "disk_reads" | "disk_writes" | "nvram_writes" ->
      Worse_up
  | "p50_ms" | "p99_ms" | "elapsed_s" | "gc_minor_words_per_op" -> Worse_up
  (* BENCH_chaos.json: time-to-recover up = worse, availability under
     fault down = worse. *)
  | "ttr_p50" | "ttr_p99" | "ttr_max" | "ttr_mean" -> Worse_up
  | "availability_pct" -> Worse_down
  | _ ->
      (* cost trees are worse-up whatever the field name *)
      if contains path "cost_per_op" || contains path "table1" then Worse_up
      else Neutral

(* ---------------- CLI ---------------- *)

let usage () =
  prerr_endline
    "usage: bench_diff OLD.json NEW.json [--threshold PCT] [--rule PAT:PCT]\n\
    \       [--exact] [--ignore PATH] [--force] [--quiet]";
  exit 2

let read_file path =
  match open_in_bin path with
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s
  | exception Sys_error msg ->
      Printf.eprintf "bench_diff: %s\n" msg;
      exit 2

let () =
  let files = ref [] in
  let threshold = ref 10. in
  let rules = ref [] in
  let exact = ref false in
  let ignored = ref [ "meta.date"; "meta.git"; "meta.ocaml_version" ] in
  let force = ref false in
  let quiet = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0. -> threshold := t
        | _ -> usage ());
        parse_args rest
    | "--rule" :: v :: rest ->
        (match String.rindex_opt v ':' with
        | Some i -> (
            let pat = String.sub v 0 i in
            match
              float_of_string_opt
                (String.sub v (i + 1) (String.length v - i - 1))
            with
            | Some pct -> rules := (pat, pct) :: !rules
            | None -> usage ())
        | None -> usage ());
        parse_args rest
    | "--exact" :: rest ->
        exact := true;
        parse_args rest
    | "--ignore" :: v :: rest ->
        ignored := v :: !ignored;
        parse_args rest
    | "--force" :: rest ->
        force := true;
        parse_args rest
    | "--quiet" :: rest ->
        quiet := true;
        parse_args rest
    | arg :: rest ->
        if String.length arg > 0 && arg.[0] = '-' then usage ();
        files := arg :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let load path =
    match parse_json (read_file path) with
    | j -> flatten j
    | exception Parse_error msg ->
        Printf.eprintf "bench_diff: %s: %s\n" path msg;
        exit 2
  in
  let old_leaves = load old_path in
  let new_leaves = load new_path in
  let ignored_path p = List.exists (fun pat -> contains p pat) !ignored in

  (* Refuse apples-to-oranges: both sides must agree on the stamps
     that change what is being measured (not just how well). *)
  let guard_keys =
    [
      "meta.gf_kernel"; "meta.simd_level"; "meta.crc32c"; "meta.geometries";
      "meta.profiles";
      "meta.m"; "meta.n"; "meta.bricks"; "meta.stripes"; "meta.block_size";
      "meta.clients"; "meta.ops"; "meta.window"; "meta.faults"; "meta.slos";
      "meta.seed"; "meta.tool"; "meta.runtime"; "meta.domains";
    ]
  in
  let incompatible =
    List.filter_map
      (fun key ->
        match (List.assoc_opt key old_leaves, List.assoc_opt key new_leaves) with
        | Some a, Some b when a <> b -> Some (key, leaf_str a, leaf_str b)
        | _ -> None)
      guard_keys
  in
  if incompatible <> [] then begin
    List.iter
      (fun (key, a, b) ->
        Printf.eprintf "bench_diff: meta mismatch %s: %s vs %s\n" key a b)
      incompatible;
    if not !force then begin
      Printf.eprintf
        "bench_diff: refusing to compare different setups (use --force)\n";
      exit 2
    end
  end;

  let failures = ref 0 in
  let compared = ref 0 in
  let report fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        if not !quiet then print_endline s)
      fmt
  in
  if !exact then begin
    List.iter
      (fun (path, v) ->
        if not (ignored_path path) then
          match List.assoc_opt path new_leaves with
          | None -> report "MISSING  %s (only in %s)" path old_path
          | Some v' ->
              incr compared;
              if v <> v' then
                report "DIFFERS  %s: %s -> %s" path (leaf_str v) (leaf_str v'))
      old_leaves;
    List.iter
      (fun (path, _) ->
        if (not (ignored_path path)) && not (List.mem_assoc path old_leaves)
        then report "ADDED    %s (only in %s)" path new_path)
      new_leaves
  end
  else
    List.iter
      (fun (path, v) ->
        let pct =
          match List.find_opt (fun (pat, _) -> contains path pat) !rules with
          | Some (_, pct) -> pct
          | None -> !threshold
        in
        if (not (ignored_path path)) && pct >= 0. then
          match (v, List.assoc_opt path new_leaves) with
          | Num old_v, Some (Num new_v) -> (
                match direction path with
                | Neutral -> ()
                | dir ->
                    incr compared;
                    let worse =
                      match dir with
                      | Worse_up -> new_v -. old_v
                      | Worse_down -> old_v -. new_v
                      | Neutral -> 0.
                    in
                    let base = Float.max (Float.abs old_v) 1e-9 in
                    let frac = worse /. base in
                    if frac *. 100. > pct then
                      report "REGRESSION  %-40s %s -> %s (%+.1f%% worse, limit %g%%)"
                        path (leaf_str v)
                        (leaf_str (Num new_v))
                        (frac *. 100.) pct)
          | Bool true, Some (Bool false) when last_segment path = "compliant"
            ->
              incr compared;
              report "REGRESSION  %-40s went non-compliant" path
          | _ -> ())
      old_leaves;
  if !failures > 0 then begin
    Printf.printf "bench_diff: %d failure(s) over %d compared leaves (%s vs %s)\n"
      !failures !compared old_path new_path;
    exit 1
  end
  else
    Printf.printf "bench_diff: OK (%d leaves compared, %s vs %s)\n" !compared
      old_path new_path
