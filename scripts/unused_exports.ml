(* unused_exports: audit the public surface of lib/.

   Usage:
     unused_exports [ROOT]

   Reads every ROOT/lib/<dir>/*.mli and lists, for each exported value:

   (a) no caller   - nothing outside its own compilation unit calls it;
   (b) tests only  - only files under ROOT/test call it; also an
                     optional parameter that only tests pass, or that
                     programs pass with one constant and tests vary;
   (c) one value   - an optional parameter that no caller passes, or
                     that every program caller passes with the same
                     constant; a labelled parameter that every caller,
                     tests included, passes with the same constant
                     (calls from ROOT/vdbench do not count for this one:
                     the benchmark changes only in its own revisions).

   Callers are the .ml files under ROOT/lib (other compilation units,
   siblings in the same library included), ROOT/bin, ROOT/bench,
   ROOT/examples, ROOT/scripts and ROOT/vdbench; ROOT/test holds the
   tests. References are matched as qualified paths, resolved through
   [open], local opens and module aliases, so [Int64.to_float] never
   counts as a call of [Obs.Json.to_float]. The matching is lexical
   and errs towards "called": an open counts for its whole file.

   A (b) entry is annotated when the doc comment that follows its
   [val] names a test file that exists, as in "test_dessim needs it".

   Exit codes: 0 when (a) and (c) are empty and every (b) entry is
   annotated, 1 otherwise, 2 on a usage error. *)

(* ---------------- files ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if name = "_build" || name.[0] = '.' then []
           else if Sys.is_directory path then walk path
           else [ path ])

(* ---------------- lexing ---------------- *)

type tok =
  | Path of string list * string option
      (** [A.B.x] is [(["A"; "B"], Some "x")]; [A.B] is [(["A"; "B"], None)] *)
  | Local_open of string list  (** [A.B.(] *)
  | Ident of string  (** a lowercase identifier or keyword *)
  | Label of char * string * bool
      (** [~l], [?l], [~l:], [?l:], or [l:] in a type (sigil [' ']);
          [true] when a colon follows *)
  | Lit of string  (** a number, string or character literal *)
  | Sym of string  (** a bracket, operator or other punctuation *)
  | Doc of string  (** a [(** ... *)] comment *)

type lexed = { tok : tok; line : int }

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = (c >= 'a' && c <= 'z') || c = '_'
let is_ident c = is_upper c || is_lower c || (c >= '0' && c <= '9') || c = '\''
let is_op c = String.contains "!$%&*+-./:<=>?@^|~#" c

let lex src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let emit tok l = toks := { tok; line = l } :: !toks in
  let peek i = if i < n then src.[i] else '\000' in
  let count_lines a b =
    for k = a to b - 1 do
      if src.[k] = '\n' then incr line
    done
  in
  let skip_string i =
    (* [i] is just past the opening quote; returns the index past the
       closing one *)
    let rec go i =
      if i >= n then n
      else if src.[i] = '\\' then go (i + 2)
      else if src.[i] = '"' then i + 1
      else go (i + 1)
    in
    go i
  in
  let quoted_string i =
    (* [{id|...|id}] at [i], or [None] *)
    let j = ref (i + 1) in
    while !j < n && is_lower src.[!j] do
      incr j
    done;
    if peek !j <> '|' then None
    else
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let rec find k =
        if k + String.length close > n then n
        else if String.sub src k (String.length close) = close then
          k + String.length close
        else find (k + 1)
      in
      Some (find (!j + 1))
  in
  let skip_comment i =
    (* [i] is just past the opening "(*" *)
    let rec go i depth =
      if i >= n then n
      else if src.[i] = '(' && peek (i + 1) = '*' then go (i + 2) (depth + 1)
      else if src.[i] = '*' && peek (i + 1) = ')' then
        if depth = 0 then i + 2 else go (i + 2) (depth - 1)
      else if src.[i] = '"' then go (skip_string (i + 1)) depth
      else go (i + 1) depth
    in
    go i 0
  in
  let ident_end i =
    let j = ref i in
    while !j < n && is_ident src.[!j] do
      incr j
    done;
    !j
  in
  let rec go i =
    if i >= n then ()
    else
      let c = src.[i] in
      let l = !line in
      let next j =
        count_lines i j;
        go j
      in
      if c = '\n' then (
        incr line;
        go (i + 1))
      else if c = ' ' || c = '\t' || c = '\r' then go (i + 1)
      else if c = '(' && peek (i + 1) = '*' then (
        let j = skip_comment (i + 2) in
        let doc =
          peek (i + 2) = '*' && peek (i + 3) <> '*' && peek (i + 3) <> ')'
        in
        if doc then emit (Doc (String.sub src (i + 3) (max 0 (j - i - 5)))) l;
        next j)
      else if c = '"' then (
        let j = skip_string (i + 1) in
        emit (Lit (String.sub src i (j - i))) l;
        next j)
      else if c = '{' && (peek (i + 1) = '|' || is_lower (peek (i + 1))) then (
        match quoted_string i with
        | Some j ->
            emit (Lit (String.sub src i (j - i))) l;
            next j
        | None ->
            emit (Sym "{") l;
            go (i + 1))
      else if c = '\'' then
        (* a character literal, or the tick of a type variable *)
        if peek (i + 1) = '\\' then (
          let j = ref (i + 2) in
          while !j < n && src.[!j] <> '\'' do
            incr j
          done;
          emit (Lit (String.sub src i (!j + 1 - i))) l;
          next (!j + 1))
        else if peek (i + 2) = '\'' then (
          emit (Lit (String.sub src i 3)) l;
          next (i + 3))
        else (
          emit (Sym "'") l;
          go (i + 1))
      else if c >= '0' && c <= '9' then (
        let j = ref i in
        while
          !j < n
          && (is_ident src.[!j]
             || src.[!j] = '.'
             || ((src.[!j] = '-' || src.[!j] = '+')
                && (src.[!j - 1] = 'e' || src.[!j - 1] = 'E')))
        do
          incr j
        done;
        emit (Lit (String.sub src i (!j - i))) l;
        go !j)
      else if is_upper c then (
        (* a module path, possibly ending in a value, an operator value
           [M.( op )] or a local open [M.( ... )] *)
        let rec path i acc =
          let j = ident_end i in
          let acc = String.sub src i (j - i) :: acc in
          if peek j = '.' && is_upper (peek (j + 1)) then path (j + 1) acc
          else if peek j = '.' && is_lower (peek (j + 1)) then
            let k = ident_end (j + 1) in
            (Path (List.rev acc, Some (String.sub src (j + 1) (k - j - 1))), k)
          else if peek j = '.' && (peek (j + 1) = '(' || peek (j + 1) = '['
                                  || peek (j + 1) = '{') then
            let k = ref (j + 2) in
            while !k < n && src.[!k] = ' ' do
              incr k
            done;
            let o = ref !k in
            while !o < n && is_op src.[!o] do
              incr o
            done;
            let c = ref !o in
            while !c < n && src.[!c] = ' ' do
              incr c
            done;
            if peek (j + 1) = '(' && !o > !k && peek !c = ')' then
              (Path (List.rev acc, Some (String.sub src !k (!o - !k))), !c + 1)
            else (Local_open (List.rev acc), j + 1)
          else (Path (List.rev acc, None), j)
        in
        let tok, j = path i [] in
        emit tok l;
        go j)
      else if is_lower c then (
        let j = ident_end i in
        let id = String.sub src i (j - i) in
        if peek j = ':' && peek (j + 1) <> ':' && peek (j + 1) <> '=' then (
          (* [l:] in a type, or [x:] in a record pattern; only types
             read it *)
          emit (Label (' ', id, true)) l;
          go (j + 1))
        else (
          emit (Ident id) l;
          go j))
      else if (c = '~' || c = '?') && is_lower (peek (i + 1)) then (
        let j = ident_end (i + 1) in
        let id = String.sub src (i + 1) (j - i - 1) in
        if peek j = ':' && peek (j + 1) <> ':' && peek (j + 1) <> '=' then (
          emit (Label (c, id, true)) l;
          go (j + 1))
        else (
          emit (Label (c, id, false)) l;
          go j))
      else if c = '(' && peek (i + 1) = ')' then (
        emit (Lit "()") l;
        go (i + 2))
      else if c = '[' && peek (i + 1) = '|' then (
        emit (Sym "[|") l;
        go (i + 2))
      else if c = '|' && peek (i + 1) = ']' then (
        emit (Sym "|]") l;
        go (i + 2))
      else if String.contains "()[]{},;" c then (
        emit (Sym (String.make 1 c)) l;
        go (i + 1))
      else if is_op c then (
        let j = ref i in
        while !j < n && is_op src.[!j] do
          incr j
        done;
        emit (Sym (String.sub src i (!j - i))) l;
        go !j)
      else go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !toks)

(* ---------------- the declared surface ---------------- *)

type value = {
  path : string list;  (** [["Obs"; "Json"; "to_float"]] *)
  unit_files : string list;  (** its own .ml and .mli *)
  file : string;
  line : int;
  doc : string;
  labels : (string * bool) list;  (** name, optional *)
}

let capitalize = String.capitalize_ascii

(* The dune library name of a lib/ directory: its [(name x)] stanza. *)
let library_name dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then Filename.basename dir
  else
    let toks = lex (read_file dune) in
    let rec find i =
      if i + 1 >= Array.length toks then Filename.basename dir
      else
        match (toks.(i).tok, toks.(i + 1).tok) with
        | Ident "name", Ident n -> n
        | _ -> find (i + 1)
    in
    find 0

let modules_of dir =
  walk dir
  |> List.filter (fun f -> Filename.dirname f = dir)
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then Some (Filename.remove_extension (Filename.basename f))
         else None)
  |> List.sort_uniq compare

(* The path other libraries use for module [m] of library [lib]: dune
   wraps a library, and a module named like the library is its main
   module. *)
let unit_path ~lib ~modules m =
  if m = lib && List.mem lib modules then [ capitalize lib ]
  else [ capitalize lib; capitalize m ]

let item_keywords =
  [ "val"; "type"; "module"; "end"; "exception"; "include"; "open";
    "external"; "class" ]

(* Walk one .mli: every [val] with its path, labels and the doc
   comment that follows it, and every [module X = Y] alias. *)
let parse_mli ~file ~unit_files ~prefix ~add_alias src =
  let toks = lex src in
  let n = Array.length toks in
  let values = ref [] in
  let is_item i =
    i >= n
    || match toks.(i).tok with Ident k -> List.mem k item_keywords | _ -> false
  in
  let rec skip_to_item i = if is_item i then i else skip_to_item (i + 1) in
  let rec go i stack =
    if i >= n then ()
    else
      match toks.(i).tok with
      | Ident "module" -> (
          let j = if i + 1 < n && toks.(i + 1).tok = Ident "type" then i + 2 else i + 1 in
          match (toks.(j).tok, if j + 1 < n then toks.(j + 1).tok else Sym "") with
          | Path ([ name ], None), Sym ":" when j + 2 < n && toks.(j + 2).tok = Ident "sig" ->
              go (j + 3) (name :: stack)
          | Path ([ name ], None), Sym "=" when j + 2 < n && toks.(j + 2).tok = Ident "sig" ->
              go (j + 3) (name :: stack)
          | Path ([ name ], None), Sym "=" -> (
              match toks.(j + 2).tok with
              | Path (target, None) ->
                  add_alias
                    (prefix @ List.rev (name :: stack))
                    (prefix @ List.rev stack @ target);
                  go (j + 3) stack
              | _ -> go (skip_to_item (j + 1)) stack)
          | _ -> go (skip_to_item (j + 1)) stack)
      | Ident "end" -> go (i + 1) (match stack with [] -> [] | _ :: s -> s)
      | Ident "val" -> (
          let name, j =
            match toks.(i + 1).tok with
            | Label (' ', v, true) -> (v, i + 2)
            | Ident v -> (v, i + 3)
            | Sym "(" -> (
                match toks.(i + 2).tok with
                | Sym op -> (op, i + 5)
                | _ -> ("?", i + 1))
            | _ -> ("?", i + 1)
          in
          let stop = skip_to_item j in
          (* labels of the top-level arrows only *)
          let labels = ref [] in
          let depth = ref 0 in
          let doc = ref None in
          for k = j to stop - 1 do
            match toks.(k).tok with
            | Sym ("(" | "[" | "{" | "<" | "[|") -> incr depth
            | Sym (")" | "]" | "}" | ">" | "|]") -> decr depth
            | Label (sigil, l, true) when !depth = 0 ->
                labels := (l, sigil = '?') :: !labels
            | Doc d when !doc = None -> doc := Some d
            | _ -> ()
          done;
          values :=
            {
              path = prefix @ List.rev (name :: stack);
              unit_files;
              file;
              line = toks.(i).line;
              doc = Option.value !doc ~default:"";
              labels = List.rev !labels;
            }
            :: !values;
          go stop stack)
      | _ -> go (i + 1) stack
  in
  go 0 [];
  List.rev !values

(* ---------------- callers ---------------- *)

type site = {
  caller : string;  (** the calling file *)
  own : bool;  (** the caller is the value's own compilation unit *)
  passed : (string * string option) list;
      (** labels passed at this call, each with its argument when that
          is a constant *)
}

let keywords =
  [ "and"; "as"; "assert"; "begin"; "do"; "done"; "downto"; "else"; "end";
    "exception"; "external"; "for"; "fun"; "function"; "functor"; "if";
    "in"; "include"; "inherit"; "lazy"; "let"; "match"; "method"; "module";
    "mutable"; "new"; "object"; "of"; "open"; "rec"; "sig"; "struct";
    "then"; "to"; "try"; "type"; "val"; "virtual"; "when"; "while"; "with";
    "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "or" ]

let opening = [ "("; "["; "{"; "[|" ]
let closing = [ ")"; "]"; "}"; "|]" ]

(* The end of the bracket group that starts at [i]. *)
let group_end toks i =
  let n = Array.length toks in
  let rec go k depth =
    if k >= n then n
    else
      match toks.(k).tok with
      | Sym s when List.mem s opening -> go (k + 1) (depth + 1)
      | Ident "begin" -> go (k + 1) (depth + 1)
      | Sym s when List.mem s closing ->
          if depth = 1 then k + 1 else go (k + 1) (depth - 1)
      | Ident "end" -> if depth = 1 then k + 1 else go (k + 1) (depth - 1)
      | _ -> go (k + 1) depth
  in
  go i 0

let constant_tok = function
  | Lit s -> Some s
  | Ident (("true" | "false") as b) -> Some b
  | Path ([ c ], None) -> Some c
  | _ -> None

(* A labelled argument's value when it is a constant: one literal or
   constant constructor, bare or in parentheses. *)
let constant_arg toks k =
  let n = Array.length toks in
  if k >= n then None
  else
    match toks.(k).tok with
    | Sym "(" ->
        let e = group_end toks k in
        let inner = Array.sub toks (k + 1) (max 0 (e - k - 2)) |> Array.to_list in
        let parts =
          List.map
            (fun t -> match t.tok with Sym "-" -> Some "-" | tok -> constant_tok tok)
            inner
        in
        if inner <> [] && List.for_all Option.is_some parts then
          Some (String.concat " " (List.filter_map Fun.id parts))
        else None
    | tok -> constant_tok tok

(* The labels passed to an application whose function token is at
   [i]: scan its arguments at bracket depth 0. *)
let passed_labels toks i =
  let n = Array.length toks in
  let rec go k acc =
    if k >= n then acc
    else
      match toks.(k).tok with
      | Label (('~' | '?'), l, false) -> go (k + 1) ((l, None) :: acc)
      | Label (('~' | '?'), l, true) when k + 1 < n ->
          let v = constant_arg toks (k + 1) in
          let next =
            match toks.(k + 1).tok with
            | Sym s when List.mem s opening -> group_end toks (k + 1)
            | Ident "begin" -> group_end toks (k + 1)
            | _ -> k + 2
          in
          go next ((l, v) :: acc)
      | Sym s when List.mem s opening -> go (group_end toks k) acc
      | Ident "begin" -> go (group_end toks k) acc
      | Ident id when not (List.mem id keywords) -> go (k + 1) acc
      | Lit _ | Path _ | Sym ("!" | ".") -> go (k + 1) acc
      | _ -> acc
  in
  if i + 1 < n then go (i + 1) [] else []

type ctx = {
  libs : (string, string * string list) Hashtbl.t;
      (** directory -> library name, module names *)
  roots : string list;  (** the main module of every library *)
  sig_aliases : (string list * string list) list;
  table : (string list, value) Hashtbl.t;
  modules : (string list, unit) Hashtbl.t;  (** every declared module path *)
}

(* Rewrite a signature alias ([Metrics.Summary] to [Metrics.Hist]). *)
let canon ctx path =
  let rec strip p a = match (p, a) with
    | rest, [] -> Some rest
    | x :: p, y :: a when x = y -> strip p a
    | _ -> None
  in
  List.fold_left
    (fun path (alias, target) ->
      match strip path alias with Some rest -> target @ rest | None -> path)
    path ctx.sig_aliases

(* Every call in one .ml file: the values it names, each with the
   labels passed at that site. *)
let scan_file ctx file =
  let toks = lex (read_file file) in
  let n = Array.length toks in
  let own_lib = Hashtbl.find_opt ctx.libs (Filename.dirname file) in
  let aliases = Hashtbl.create 8 in
  (* a unit sees its own top level unqualified *)
  let opens =
    ref
      (match own_lib with
      | Some (lib, modules) when Filename.check_suffix file ".ml" ->
          [ unit_path ~lib ~modules (Filename.remove_extension (Filename.basename file)) ]
      | _ -> [])
  in
  (* Candidate absolute paths for a module path as written here. *)
  let resolve comps =
    match comps with
    | [] -> []
    | head :: rest ->
        let via_alias =
          match Hashtbl.find_opt aliases head with
          | Some targets -> List.map (fun t -> t @ rest) targets
          | None -> []
        in
        let absolute = if List.mem head ctx.roots then [ comps ] else [] in
        let sibling =
          match own_lib with
          | Some (lib, modules) when List.mem (String.uncapitalize_ascii head) modules ->
              [ unit_path ~lib ~modules (String.uncapitalize_ascii head) @ rest ]
          | _ -> []
        in
        let opened = List.map (fun o -> o @ comps) !opens in
        List.map (canon ctx) (via_alias @ absolute @ sibling @ opened)
        |> List.sort_uniq compare
  in
  let add_opens paths =
    let known = List.filter (Hashtbl.mem ctx.modules) paths in
    opens := List.sort_uniq compare (known @ !opens)
  in
  (* aliases and opens first, in file order *)
  for i = 0 to n - 1 do
    match toks.(i).tok with
    | Ident "module" when i + 3 < n -> (
        match (toks.(i + 1).tok, toks.(i + 2).tok, toks.(i + 3).tok) with
        | Path ([ name ], None), Sym "=", Path (target, None) ->
            Hashtbl.replace aliases name (resolve target)
        | _ -> ())
    | Ident "open" when i + 1 < n -> (
        let k = if toks.(i + 1).tok = Sym "!" then i + 2 else i + 1 in
        match toks.(k).tok with
        | Path (target, None) -> add_opens (resolve target)
        | _ -> ())
    | Local_open target -> add_opens (resolve target)
    | _ -> ()
  done;
  let calls = ref [] in
  let defines i =
    i > 0 && match toks.(i - 1).tok with Ident ("let" | "and" | "rec") -> true | _ -> false
  in
  let record i path =
    match Hashtbl.find_opt ctx.table path with
    | Some v when not (defines i) ->
        let site =
          { caller = file; own = List.mem file v.unit_files; passed = passed_labels toks i }
        in
        calls := (v, site) :: !calls
    | _ -> ()
  in
  Array.iteri
    (fun i t ->
      match t.tok with
      | Path (comps, Some x) ->
          List.iter (fun m -> record i (m @ [ x ])) (resolve comps)
      | Ident x when not (List.mem x keywords) ->
          List.iter (fun o -> record i (canon ctx (o @ [ x ]))) !opens
      | Sym op -> List.iter (fun o -> record i (canon ctx (o @ [ op ]))) !opens
      | _ -> ())
    toks;
  !calls

(* ---------------- the audit ---------------- *)

let caller_dirs = [ "lib"; "bin"; "bench"; "examples"; "scripts"; "vdbench" ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_dir root dir file =
  has_prefix ~prefix:(Filename.concat root dir ^ Filename.dir_sep) file

let is_test root = in_dir root "test"

(* [Some c] when every call passes the same constant [c]. *)
let same_constant = function
  | Some (Some c) :: rest when List.for_all (( = ) (Some (Some c))) rest -> Some c
  | _ -> None

(* The test files a doc comment names, when they exist. *)
let named_tests root doc =
  let words =
    String.map (fun c -> if is_ident c && c <> '\'' then c else ' ') doc
    |> String.split_on_char ' '
  in
  List.filter
    (fun w ->
      String.length w > 5
      && has_prefix ~prefix:"test_" w
      && Sys.file_exists (Filename.concat (Filename.concat root "test") (w ^ ".ml")))
    words
  |> List.sort_uniq compare

let short root file =
  let prefix = root ^ Filename.dir_sep in
  if has_prefix ~prefix file then
    String.sub file (String.length prefix) (String.length file - String.length prefix)
  else file

let test_name file = Filename.remove_extension (Filename.basename file)

let audit root =
  let lib_root = Filename.concat root "lib" in
  let dirs =
    (if Sys.file_exists lib_root then Sys.readdir lib_root else [||])
    |> Array.to_list |> List.sort compare
    |> List.map (Filename.concat lib_root)
    |> List.filter Sys.is_directory
  in
  let libs = Hashtbl.create 32 in
  List.iter (fun d -> Hashtbl.replace libs d (library_name d, modules_of d)) dirs;
  let sig_aliases = ref [] in
  let values =
    List.concat_map
      (fun d ->
        let lib, modules = Hashtbl.find libs d in
        List.concat_map
          (fun m ->
            let base = Filename.concat d m in
            let mli = base ^ ".mli" in
            if not (Sys.file_exists mli) then []
            else
              parse_mli ~file:mli ~unit_files:[ base ^ ".ml"; mli ]
                ~prefix:(unit_path ~lib ~modules m)
                ~add_alias:(fun a t -> sig_aliases := (a, t) :: !sig_aliases)
                (read_file mli))
          modules)
      dirs
  in
  let table = Hashtbl.create 512 in
  List.iter (fun v -> Hashtbl.replace table v.path v) values;
  let roots = Hashtbl.fold (fun _ (lib, _) acc -> capitalize lib :: acc) libs [] in
  let modules = Hashtbl.create 64 in
  let rec prefixes = function
    | [] | [ _ ] -> ()
    | p ->
        let m = List.filteri (fun i _ -> i < List.length p - 1) p in
        Hashtbl.replace modules m ();
        prefixes m
  in
  List.iter (fun v -> prefixes v.path) values;
  List.iter (fun (a, _) -> Hashtbl.replace modules a ()) !sig_aliases;
  let ctx = { libs; roots; sig_aliases = !sig_aliases; table; modules } in
  let sources =
    List.concat_map (fun d -> walk (Filename.concat root d)) ("test" :: caller_dirs)
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
  in
  let sites_of = Hashtbl.create 512 in
  List.iter
    (fun f -> List.iter (fun (v, s) -> Hashtbl.add sites_of v.path s) (scan_file ctx f))
    sources;
  let failures = ref 0 in
  let fail () = incr failures in
  let no_caller = ref [] and tests_only = ref [] and one_value = ref [] in
  let where v = Printf.sprintf "%s:%d" (short root v.file) v.line in
  let name v = String.concat "." v.path in
  let tests_only_entry v label testers =
    let annotation =
      match named_tests root v.doc with
      | [] -> fail (); "NOT ANNOTATED"
      | ts -> "named: " ^ String.concat ", " ts
    in
    tests_only :=
      Printf.sprintf "%-48s %s; from %s  %s" label annotation
        (String.concat ", " testers) (where v)
      :: !tests_only
  in
  List.iter
    (fun v ->
      let own, sites = List.partition (fun s -> s.own) (Hashtbl.find_all sites_of v.path) in
      let prog, test = List.partition (fun s -> not (is_test root s.caller)) sites in
      let testers =
        List.map (fun s -> test_name s.caller) test |> List.sort_uniq compare
      in
      if prog = [] && test = [] then (
        fail ();
        no_caller := Printf.sprintf "%-48s %s" (name v) (where v) :: !no_caller)
      else if prog = [] then tests_only_entry v (name v) testers
      else
        List.iter
          (fun (l, optional) ->
            let args ss = List.map (fun s -> List.assoc_opt l s.passed) ss in
            let in_prog = args (own @ prog) and in_tests = args test in
            let label =
              Printf.sprintf "%s %c%s" (name v) (if optional then '?' else '~') l
            in
            let one why =
              fail ();
              one_value := Printf.sprintf "%-48s %s  %s" label why (where v) :: !one_value
            in
            if optional then begin
              let constant = same_constant in_prog in
              let tests_vary =
                List.exists
                  (fun a -> Option.is_some a && a <> Option.map Option.some constant)
                  in_tests
              in
              if List.for_all Option.is_none in_prog || constant <> None then
                if tests_vary then tests_only_entry v label testers
                else
                  one
                    (match constant with
                    | Some c -> "every caller passes " ^ c
                    | None -> "no caller passes it")
            end
            else
              (* A required label is one-valued when every call passes the
                 same constant; vdbench's calls change only with the
                 benchmark, so they do not count here. *)
              let fixed =
                List.filter (fun s -> not (in_dir root "vdbench" s.caller)) (own @ prog)
              in
              match same_constant (args fixed @ in_tests) with
              | Some c -> one ("every caller passes " ^ c)
              | None -> ())
          v.labels)
    values;
  let section title entries =
    Printf.printf "== %s: %d ==\n" title (List.length entries);
    List.iter print_endline (List.rev entries)
  in
  section "(a) no caller" !no_caller;
  section "(b) tests only" !tests_only;
  section "(c) one value" !one_value;
  Printf.printf "values %d, labelled parameters %d\n" (List.length values)
    (List.fold_left (fun a v -> a + List.length v.labels) 0 values);
  !failures

let () =
  let root =
    match Sys.argv with
    | [| _ |] -> "."
    | [| _; root |] -> root
    | _ ->
        prerr_endline "usage: unused_exports [ROOT]";
        exit 2
  in
  exit (if audit root > 0 then 1 else 0)
