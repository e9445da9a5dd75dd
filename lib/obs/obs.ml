(* Structured observability for the protocol stack: typed events, an
   event hub with pluggable sinks, a wire format (JSONL + Chrome
   trace_event), and derived per-op/per-phase statistics.

   The golden rule is zero cost when disabled: every emission site is
   guarded by [if Obs.enabled hub then Obs.emit hub {...}], so a run
   without sinks pays one boolean load per potential event and
   allocates nothing. *)

(* ------------------------------------------------------------------ *)
(* Event model                                                         *)
(* ------------------------------------------------------------------ *)

type phase = Fast_read | Order | Write | Modify | Recover | Gc

let phase_name = function
  | Fast_read -> "fast-read"
  | Order -> "order"
  | Write -> "write"
  | Modify -> "modify"
  | Recover -> "recover"
  | Gc -> "gc"

let phase_of_name = function
  | "fast-read" -> Some Fast_read
  | "order" -> Some Order
  | "write" -> Some Write
  | "modify" -> Some Modify
  | "recover" -> Some Recover
  | "gc" -> Some Gc
  | _ -> None

let all_phases = [ Fast_read; Order; Write; Modify; Recover; Gc ]

type outcome = Ok | Abort | Retry | Unavailable

let outcome_name = function
  | Ok -> "ok"
  | Abort -> "abort"
  | Retry -> "retry"
  | Unavailable -> "unavailable"

let outcome_of_name = function
  | "ok" -> Some Ok
  | "abort" -> Some Abort
  | "retry" -> Some Retry
  | "unavailable" -> Some Unavailable
  | _ -> None

type actor = Coord of int | Brick of int | Sim

let actor_name = function
  | Coord i -> "c" ^ string_of_int i
  | Brick i -> "b" ^ string_of_int i
  | Sim -> "sim"

let actor_of_name s =
  if s = "sim" then Some Sim
  else if String.length s >= 2 then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 0 -> (
        match s.[0] with
        | 'c' -> Some (Coord i)
        | 'b' -> Some (Brick i)
        | _ -> None)
    | _ -> None
  else None

type ctx = { op : int; phase : phase option }

let no_ctx = { op = -1; phase = None }
let ctx ?phase op = { op; phase }

type kind =
  | Span_start of { op_kind : string; stripe : int }
  | Span_end of { op_kind : string; stripe : int; outcome : outcome }
  | Phase_start
  | Phase_end
  | Phase_elided
  | Msg_send of { dst : int; bytes : int; label : string; bg : bool }
  | Msg_recv of { src : int; label : string }
  | Msg_drop of { dst : int; bytes : int; bg : bool }
  | Io_read of { blocks : int }
  | Io_write of { blocks : int }
  | Timeout of { missing : int; attempt : int }
  | Retarget of { suspect : int }
  | Queue_depth of { depth : int }
  | Fault of { label : string }

type event = {
  time : float;
  actor : actor;
  op : int;  (* -1 = not tied to an operation *)
  phase : phase option;
  kind : kind;
}

let ev_name = function
  | Span_start _ -> "span_start"
  | Span_end _ -> "span_end"
  | Phase_start -> "phase_start"
  | Phase_end -> "phase_end"
  | Phase_elided -> "phase_elided"
  | Msg_send _ -> "msg_send"
  | Msg_recv _ -> "msg_recv"
  | Msg_drop _ -> "msg_drop"
  | Io_read _ -> "io_read"
  | Io_write _ -> "io_write"
  | Timeout _ -> "timeout"
  | Retarget _ -> "retarget"
  | Queue_depth _ -> "queue_depth"
  | Fault _ -> "fault"

let pp_event fmt ev =
  let a = actor_name ev.actor in
  let op fmt = if ev.op >= 0 then Format.fprintf fmt " (op %d)" ev.op in
  let ph fmt =
    match ev.phase with
    | Some p -> Format.fprintf fmt "%s " (phase_name p)
    | None -> ()
  in
  match ev.kind with
  | Span_start { op_kind; stripe } ->
      Format.fprintf fmt "[%s/s%d] %s start%t" a stripe op_kind op
  | Span_end { op_kind; stripe; outcome } ->
      Format.fprintf fmt "[%s/s%d] %s %s%t" a stripe op_kind
        (match outcome with
        | Ok -> "ok"
        | Abort -> "ABORT"
        | Retry -> "abort (will retry)"
        | Unavailable -> "UNAVAILABLE")
        op
  | Phase_start -> Format.fprintf fmt "[%s] phase %tstart%t" a ph op
  | Phase_end -> Format.fprintf fmt "[%s] phase %tend%t" a ph op
  | Phase_elided -> Format.fprintf fmt "[%s] phase %tELIDED%t" a ph op
  | Msg_send { dst; bytes; label; bg } ->
      Format.fprintf fmt "[%s] -> b%d %s (%dB%s)%t" a dst label bytes
        (if bg then ", bg" else "")
        op
  | Msg_recv { src; label } -> Format.fprintf fmt "[%s] <- %d %s%t" a src label op
  | Msg_drop { dst; bytes; _ } ->
      Format.fprintf fmt "[%s] DROP -> b%d (%dB)%t" a dst bytes op
  | Io_read { blocks } -> Format.fprintf fmt "[%s] disk read x%d%t" a blocks op
  | Io_write { blocks } -> Format.fprintf fmt "[%s] disk write x%d%t" a blocks op
  | Timeout { missing; attempt } ->
      Format.fprintf fmt "[%s] retransmit #%d, %d member(s) missing%t" a attempt
        missing op
  | Retarget { suspect } ->
      Format.fprintf fmt "[%s] route around suspected b%d%t" a suspect op
  | Queue_depth { depth } -> Format.fprintf fmt "[%s] queue depth %d" a depth
  | Fault { label } -> Format.fprintf fmt "[%s] FAULT %s" a label

(* ------------------------------------------------------------------ *)
(* JSON: the one value type, writer and parser in the tree             *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type v =
    | S of string
    | I of int
    | F of float
    | B of bool
    | A of v list
    | O of (string * v) list

  exception Error of string

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 32 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    add_escaped b s;
    Buffer.contents b

  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f

  (* Compact ([pretty = false]): no whitespace at all. Pretty: each
     object member on its own line, indented two spaces per level;
     arrays stay on one line, their items separated by ", ". *)
  let rec write ~pretty b level v =
    let add = Buffer.add_string b in
    match v with
    | S s ->
        add "\"";
        add_escaped b s;
        add "\""
    | I i -> add (string_of_int i)
    | F f -> add (number f)
    | B x -> add (if x then "true" else "false")
    | A items ->
        add "[";
        List.iteri
          (fun i item ->
            if i > 0 then add (if pretty then ", " else ",");
            write ~pretty b level item)
          items;
        add "]"
    | O [] -> add "{}"
    | O fields ->
        let newline l = if pretty then add ("\n" ^ String.make (2 * l) ' ') in
        add "{";
        List.iteri
          (fun i (k, item) ->
            if i > 0 then add ",";
            newline (level + 1);
            write ~pretty b level (S k);
            add (if pretty then ": " else ":");
            write ~pretty b (level + 1) item)
          fields;
        newline level;
        add "}"

  let render v =
    let b = Buffer.create 128 in
    write ~pretty:false b 0 v;
    Buffer.contents b

  let obj fields = render (O fields)

  let to_file path v =
    let b = Buffer.create 4096 in
    write ~pretty:true b 0 v;
    Buffer.add_char b '\n';
    let oc = open_out path in
    Buffer.output_buffer oc b;
    close_out oc

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Error (Printf.sprintf "%s at byte %d" msg !pos)) in
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
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
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
        | '\\' ->
            (match next () with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' -> (
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                pos := !pos + 4;
                match int_of_string_opt ("0x" ^ hex) with
                | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                | Some _ -> Buffer.add_char b '?'
                | None -> fail "bad \\u escape")
            | _ -> fail "unknown escape");
            loop ()
        | c ->
            Buffer.add_char b c;
            loop ()
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
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> I i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> F f
          | None -> fail "bad number")
    in
    (* [items close item] parses "item, item, ... close" after the
       opening bracket has been consumed. *)
    let items close item =
      skip_ws ();
      if peek () = Some close then begin
        incr pos;
        []
      end
      else
        let rec loop acc =
          let acc = item () :: acc in
          skip_ws ();
          match next () with
          | ',' -> loop acc
          | c when c = close -> List.rev acc
          | _ -> fail (Printf.sprintf "expected , or %c" close)
        in
        loop []
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> S (parse_string ())
      | Some 't' -> literal "true" (B true)
      | Some 'f' -> literal "false" (B false)
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some '[' ->
          incr pos;
          A (items ']' value)
      | Some '{' ->
          incr pos;
          O (items '}' member)
      | Some 'n' -> fail "bad literal (null is not part of the schema)"
      | _ -> fail "expected value"
    and member () =
      skip_ws ();
      let key = parse_string () in
      skip_ws ();
      expect ':';
      (key, value ())
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing bytes";
    v

  let to_float = function I i -> Some (float_of_int i) | F f -> Some f | _ -> None
  let to_int = function I i -> Some i | _ -> None
  let to_string = function S s -> Some s | _ -> None
  let to_bool = function B b -> Some b | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Wire codec for events                                               *)
(* ------------------------------------------------------------------ *)

let to_json ev =
  let base =
    [
      ("t", Json.F ev.time);
      ("actor", Json.S (actor_name ev.actor));
      ("ev", Json.S (ev_name ev.kind));
    ]
  in
  let opf = if ev.op >= 0 then [ ("op", Json.I ev.op) ] else [] in
  let phf =
    match ev.phase with
    | Some p -> [ ("phase", Json.S (phase_name p)) ]
    | None -> []
  in
  let kf =
    match ev.kind with
    | Span_start { op_kind; stripe } ->
        [ ("kind", Json.S op_kind); ("stripe", Json.I stripe) ]
    | Span_end { op_kind; stripe; outcome } ->
        [
          ("kind", Json.S op_kind);
          ("stripe", Json.I stripe);
          ("outcome", Json.S (outcome_name outcome));
        ]
    | Phase_start | Phase_end | Phase_elided -> []
    | Msg_send { dst; bytes; label; bg } ->
        [ ("dst", Json.I dst); ("bytes", Json.I bytes); ("msg", Json.S label) ]
        @ (if bg then [ ("bg", Json.B true) ] else [])
    | Msg_recv { src; label } ->
        [ ("src", Json.I src); ("msg", Json.S label) ]
    | Msg_drop { dst; bytes; bg } ->
        [ ("dst", Json.I dst); ("bytes", Json.I bytes) ]
        @ if bg then [ ("bg", Json.B true) ] else []
    | Io_read { blocks } | Io_write { blocks } -> [ ("blocks", Json.I blocks) ]
    | Timeout { missing; attempt } ->
        [ ("missing", Json.I missing); ("attempt", Json.I attempt) ]
    | Retarget { suspect } -> [ ("suspect", Json.I suspect) ]
    | Queue_depth { depth } -> [ ("depth", Json.I depth) ]
    | Fault { label } -> [ ("fault", Json.S label) ]
  in
  Json.obj (base @ opf @ phf @ kf)

let of_json line =
  try
    let fields =
      match Json.parse line with
      | Json.O fields ->
          if List.exists (function _, (Json.A _ | Json.O _) -> true | _ -> false) fields
          then raise (Json.Error "nested values not allowed in event schema");
          fields
      | _ -> raise (Json.Error "expected an object")
    in
    let get name conv what =
      match Option.bind (List.assoc_opt name fields) conv with
      | Some v -> v
      | None -> raise (Json.Error (Printf.sprintf "missing/invalid %S (%s)" name what))
    in
    let opt name conv = Option.bind (List.assoc_opt name fields) conv in
    match get "ev" Json.to_string "event name" with
    | "meta" -> `Meta fields
    | name ->
        let time = get "t" Json.to_float "number" in
        let actor =
          match actor_of_name (get "actor" Json.to_string "string") with
          | Some a -> a
          | None -> raise (Json.Error "bad actor")
        in
        let op = match opt "op" Json.to_int with Some o -> o | None -> -1 in
        let phase =
          match opt "phase" Json.to_string with
          | None -> None
          | Some s -> (
              match phase_of_name s with
              | Some p -> Some p
              | None -> raise (Json.Error ("unknown phase " ^ s)))
        in
        let bg () =
          match opt "bg" Json.to_bool with Some b -> b | None -> false
        in
        let kind =
          match name with
          | "span_start" ->
              Span_start
                {
                  op_kind = get "kind" Json.to_string "string";
                  stripe = get "stripe" Json.to_int "int";
                }
          | "span_end" ->
              let outcome =
                match outcome_of_name (get "outcome" Json.to_string "string") with
                | Some o -> o
                | None -> raise (Json.Error "bad outcome")
              in
              Span_end
                {
                  op_kind = get "kind" Json.to_string "string";
                  stripe = get "stripe" Json.to_int "int";
                  outcome;
                }
          | "phase_start" -> Phase_start
          | "phase_end" -> Phase_end
          | "phase_elided" -> Phase_elided
          | "msg_send" ->
              Msg_send
                {
                  dst = get "dst" Json.to_int "int";
                  bytes = get "bytes" Json.to_int "int";
                  label = get "msg" Json.to_string "string";
                  bg = bg ();
                }
          | "msg_recv" ->
              Msg_recv
                {
                  src = get "src" Json.to_int "int";
                  label = get "msg" Json.to_string "string";
                }
          | "msg_drop" ->
              Msg_drop
                {
                  dst = get "dst" Json.to_int "int";
                  bytes = get "bytes" Json.to_int "int";
                  bg = bg ();
                }
          | "io_read" -> Io_read { blocks = get "blocks" Json.to_int "int" }
          | "io_write" -> Io_write { blocks = get "blocks" Json.to_int "int" }
          | "timeout" ->
              Timeout
                {
                  missing = get "missing" Json.to_int "int";
                  attempt = get "attempt" Json.to_int "int";
                }
          | "retarget" -> Retarget { suspect = get "suspect" Json.to_int "int" }
          | "queue_depth" ->
              Queue_depth { depth = get "depth" Json.to_int "int" }
          | "fault" -> Fault { label = get "fault" Json.to_string "string" }
          | other -> raise (Json.Error ("unknown event " ^ other))
        in
        (* Phase events must say which phase. *)
        (match kind with
        | (Phase_start | Phase_end | Phase_elided) when phase = None ->
            raise (Json.Error "phase event without phase field")
        | _ -> ());
        `Event { time; actor; op; phase; kind }
  with Json.Error msg -> `Error msg

(* ------------------------------------------------------------------ *)
(* Sinks and the hub                                                   *)
(* ------------------------------------------------------------------ *)

module Sink = struct
  type t = { emit : event -> unit; close : unit -> unit }

  let make ?(close = fun () -> ()) emit = { emit; close }

  (* Multicore backend: events arrive from many domains at once, and
     most sinks mutate unguarded state (a channel, a ring). Serialize
     per sink, not at the hub — a sim run keeps its zero-lock path
     only if it never wraps. *)
  let serialized s =
    let m = Mutex.create () in
    let guard f x =
      Mutex.lock m;
      Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f x)
    in
    { emit = guard s.emit; close = (fun () -> guard s.close ()) }
end

type t = {
  mutable sinks : Sink.t list;
  mutable is_enabled : bool;
  next_op_id : int Atomic.t;
      (* Atomic so concurrent clients on the multicore backend draw
         unique operation ids; uncontended fetch-and-add is as cheap
         as the old increment on the sim path. *)
  mutable on_enable_hooks : (unit -> unit) list;
}

let create () =
  {
    sinks = [];
    is_enabled = false;
    next_op_id = Atomic.make 0;
    on_enable_hooks = [];
  }

let enabled t = t.is_enabled

let add_sink t sink =
  t.sinks <- t.sinks @ [ sink ];
  if not t.is_enabled then begin
    t.is_enabled <- true;
    let hooks = List.rev t.on_enable_hooks in
    t.on_enable_hooks <- [];
    List.iter (fun f -> f ()) hooks
  end

let on_enable t f =
  if t.is_enabled then f () else t.on_enable_hooks <- f :: t.on_enable_hooks

let emit t ev = List.iter (fun (s : Sink.t) -> s.Sink.emit ev) t.sinks

let next_op t = Atomic.fetch_and_add t.next_op_id 1

let close t = List.iter (fun (s : Sink.t) -> s.Sink.close ()) t.sinks

(* ------------------------------------------------------------------ *)
(* In-memory ring sink                                                 *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  type ring = {
    buf : event array;
    capacity : int;
    mutable len : int;
    mutable next : int;
    mutable dropped : int;
  }

  let dummy = { time = 0.; actor = Sim; op = -1; phase = None; kind = Phase_start }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Obs.Ring.create: capacity <= 0";
    { buf = Array.make capacity dummy; capacity; len = 0; next = 0; dropped = 0 }

  let add r ev =
    r.buf.(r.next) <- ev;
    r.next <- (r.next + 1) mod r.capacity;
    if r.len < r.capacity then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

  (* Serialized: rings collect from all domains on the mc backend. *)
  let sink r = Sink.serialized (Sink.make (add r))

  let contents r =
    List.init r.len (fun i ->
        r.buf.((r.next - r.len + i + r.capacity) mod r.capacity))

  let length r = r.len
  let dropped r = r.dropped
end

(* ------------------------------------------------------------------ *)
(* Run metadata (stamped into trace headers and stats/bench JSON)      *)
(* ------------------------------------------------------------------ *)

module Meta = struct
  type nonrec t = (string * Json.v) list

  let read_first_line path =
    try
      let ic = open_in path in
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line
    with Sys_error _ -> None

  let git_commit () =
    let rec find dir depth =
      if depth > 16 then None
      else
        let head = Filename.concat (Filename.concat dir ".git") "HEAD" in
        if Sys.file_exists head then Some (dir, head)
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else find parent (depth + 1)
    in
    match find (Sys.getcwd ()) 0 with
    | None -> "unknown"
    | Some (root, head) -> (
        match read_first_line head with
        | None -> "unknown"
        | Some line ->
            let line = String.trim line in
            let prefix = "ref: " in
            if String.length line > String.length prefix
               && String.sub line 0 (String.length prefix) = prefix
            then
              let refname =
                String.sub line (String.length prefix)
                  (String.length line - String.length prefix)
              in
              let refpath =
                Filename.concat (Filename.concat root ".git") refname
              in
              match read_first_line refpath with
              | Some hash -> String.trim hash
              | None -> "unknown"
            else line)

  let iso_date () =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

  let standard ?(runtime = "sim") ?(domains = 1) ?gc_minor_words_per_op
      ?(extra = []) () =
    [
      ("git", Json.S (git_commit ()));
      ("date", Json.S (iso_date ()));
      ("runtime", Json.S runtime);
      ("domains", Json.I domains);
      ("ocaml_version", Json.S Sys.ocaml_version);
    ]
    @ (match gc_minor_words_per_op with
      | Some w -> [ ("gc_minor_words_per_op", Json.F w) ]
      | None -> [])
    @ extra

  let line t = Json.obj (("ev", Json.S "meta") :: t)
end

(* ------------------------------------------------------------------ *)
(* File sinks: JSONL and Chrome trace_event                            *)
(* ------------------------------------------------------------------ *)

let jsonl ?meta oc =
  (match meta with
  | Some m ->
      output_string oc (Meta.line m);
      output_char oc '\n'
  | None -> ());
  Sink.serialized
    (Sink.make
       ~close:(fun () -> flush oc)
       (fun ev ->
         output_string oc (to_json ev);
         output_char oc '\n'))

(* Chrome trace_event JSON array. Spans and phases are emitted as async
   "b"/"e" events keyed by op id, so concurrent operations that share a
   coordinator track render as separate (possibly overlapping) slices;
   everything else is an instant or a counter sample. Times are scaled
   so that one delta of sim-time displays as 1 ms. *)
let chrome oc =
  output_string oc "[";
  let first = ref true in
  let named = Hashtbl.create 16 in
  let raw s =
    if !first then begin
      first := false;
      output_string oc "\n"
    end
    else output_string oc ",\n";
    output_string oc s
  in
  let tid = function Brick i -> 100 + i | Coord i -> 1000 + i | Sim -> 1 in
  let label = function
    | Brick i -> Printf.sprintf "brick %d" i
    | Coord i -> Printf.sprintf "coordinator %d" i
    | Sim -> "engine"
  in
  let ensure_thread actor =
    let key = tid actor in
    if not (Hashtbl.mem named key) then begin
      Hashtbl.add named key ();
      raw
        (Printf.sprintf
           "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           key
           (Json.escape (label actor)))
    end
  in
  let ts time = Printf.sprintf "%.3f" (time *. 1000.) in
  let ev_json ev ~ph ~name ?id args =
    Printf.sprintf
      "{\"ph\":\"%s\",\"cat\":\"fab\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":%s%s%s%s}"
      ph (Json.escape name) (tid ev.actor) (ts ev.time)
      (match id with Some i -> Printf.sprintf ",\"id\":%d" i | None -> "")
      (if ph = "i" then ",\"s\":\"t\"" else "")
      (match args with [] -> "" | l -> ",\"args\":" ^ Json.obj l)
  in
  let emit ev =
    ensure_thread ev.actor;
    let instant name args = raw (ev_json ev ~ph:"i" ~name args) in
    match ev.kind with
    | Span_start { op_kind; stripe } ->
        raw
          (ev_json ev ~ph:"b" ~name:op_kind ~id:ev.op
             [ ("stripe", Json.I stripe) ])
    | Span_end { op_kind; outcome; _ } ->
        raw
          (ev_json ev ~ph:"e" ~name:op_kind ~id:ev.op
             [ ("outcome", Json.S (outcome_name outcome)) ])
    | Phase_start ->
        let name =
          match ev.phase with Some p -> phase_name p | None -> "phase"
        in
        raw (ev_json ev ~ph:"b" ~name ~id:ev.op [])
    | Phase_end ->
        let name =
          match ev.phase with Some p -> phase_name p | None -> "phase"
        in
        raw (ev_json ev ~ph:"e" ~name ~id:ev.op [])
    | Phase_elided ->
        let name =
          match ev.phase with Some p -> phase_name p | None -> "phase"
        in
        instant (name ^ " elided") []
    | Msg_send { dst; bytes; label; _ } ->
        instant "msg_send"
          [ ("msg", Json.S label); ("dst", Json.I dst); ("bytes", Json.I bytes) ]
    | Msg_recv { src; label } ->
        instant "msg_recv" [ ("msg", Json.S label); ("src", Json.I src) ]
    | Msg_drop { dst; bytes; _ } ->
        instant "msg_drop" [ ("dst", Json.I dst); ("bytes", Json.I bytes) ]
    | Io_read { blocks } -> instant "io_read" [ ("blocks", Json.I blocks) ]
    | Io_write { blocks } -> instant "io_write" [ ("blocks", Json.I blocks) ]
    | Timeout { missing; attempt } ->
        instant "timeout"
          [ ("missing", Json.I missing); ("attempt", Json.I attempt) ]
    | Retarget { suspect } -> instant "retarget" [ ("suspect", Json.I suspect) ]
    | Fault { label } -> instant "fault" [ ("fault", Json.S label) ]
    | Queue_depth { depth } ->
        let name =
          match ev.actor with
          | Sim -> "engine.pending"
          | Brick i -> Printf.sprintf "queue.b%d" i
          | Coord i -> Printf.sprintf "queue.c%d" i
        in
        raw
          (Printf.sprintf
             "{\"ph\":\"C\",\"cat\":\"fab\",\"name\":\"%s\",\"pid\":1,\"ts\":%s,\"args\":{\"depth\":%d}}"
             name (ts ev.time) depth)
  in
  Sink.make
    ~close:(fun () ->
      output_string oc "\n]\n";
      flush oc)
    emit

(* ------------------------------------------------------------------ *)
(* The one fold over the event stream (itself a sink)                  *)
(* ------------------------------------------------------------------ *)

(* A kind selector matches the exact op kind or any "<kind>-…"
   refinement, so "read" covers read-stripe/read-blocks. *)
let kind_matches sel op_kind =
  sel = op_kind
  || (let pre = sel ^ "-" in
      String.length op_kind > String.length pre
      && String.sub op_kind 0 (String.length pre) = pre)

(* Client operations are reads and writes ("read-stripe",
   "write-blocks", …). A "recover" span is protocol work: a read that
   finds a partial write recovers the stripe inside its own span, a
   retried block write recovers between attempts, and a rebuild or
   resync recovers in the background. A "scrub" is background work
   too. Counting those beside the client operation that caused them
   would count one request several times. *)
let client_kind op_kind =
  kind_matches "read" op_kind || kind_matches "write" op_kind

module Stats = struct
  type op_stat = {
    op : int;
    mutable op_kind : string;
    mutable stripe : int;
    mutable t_start : float;
    mutable t_end : float;
    mutable outcome : outcome option;
    mutable open_phase : (phase * float) option;
    mutable phases : (phase * float) list;  (* accumulated duration *)
    mutable elided : (phase * int) list;  (* elided round count per phase *)
    mutable msgs : int;
    mutable bytes : int;
    mutable drops : int;
    mutable timeouts : int;
    mutable disk_reads : int;
    mutable disk_writes : int;
    mutable retargeted : (int * float) list;
        (* suspected brick routed around, and when *)
  }

  (* How a fault label relates to an overlay interval. The classifier
     is pluggable because the label syntax belongs to lib/chaos, which
     depends on this library: chaos supplies its own classifier and
     the default treats every fault as an instantaneous point. *)
  type overlay = [ `Begin of string | `End of string | `Point of string ]

  (* Two things are kept: bounded per-op records (what [explain]
     lists) and one time series. A span folds into the series the
     moment it completes, in the window of its end, under names keyed
     by kind, phase, queue and outcome:
       lat.<kind>, lat.all           latency histograms
       out.<outcome>.<kind>          completions per kind
       out.<outcome>, ops.all        client completions (see client_kind)
       phase.<phase>                 per-op phase durations (histogram)
       phase.<phase>.<kind>          the same, summed per kind (counter)
       elided.<phase>.<kind>         elided quorum rounds
       retarget.<brick>.<kind>       ops routed around a brick, and
       retarget_time.<brick>.<kind>  their summed time from re-target to end
       queue.<actor>, inflight       sampled depths
     plus per-event counters (msgs, bytes, drops, retransmits,
     retargets, io.read, io.write, faults). Every whole-run view below
     merges its series over the windows, so it stays exact whatever
     the [retain] bound evicts. *)
  type stats = {
    live : (int, op_stat) Hashtbl.t;
    retain : int;  (* completed records kept; 0 = unbounded *)
    order : int Queue.t;  (* completed op ids, oldest first *)
    finished : (int, op_stat) Hashtbl.t;
        (* retained completed records by op id: events arriving after
           the span closed (a background message sent right after
           span_end) update the completed record instead
           of re-opening the op as live. *)
    mutable evicted : int;
    mutable evicted_floor : int;
        (* highest evicted op id: late events for evicted ops are
           routed to a scrap record instead of re-opening them *)
    scrap : op_stat;
    ts : Metrics.Timeseries.t;
    classify : string -> overlay;
    mutable inflight : int;
    mutable active : (string * float) list;  (* open overlays: key, t0 *)
    mutable intervals : (string * float * float) list;  (* closed, rev *)
    mutable last_time : float;
  }

  let fresh_op_stat op =
    {
      op;
      op_kind = "?";
      stripe = -1;
      t_start = nan;
      t_end = nan;
      outcome = None;
      open_phase = None;
      phases = [];
      elided = [];
      msgs = 0;
      bytes = 0;
      drops = 0;
      timeouts = 0;
      disk_reads = 0;
      disk_writes = 0;
      retargeted = [];
    }

  (* Without a [width] the whole run is one window. *)
  let create ?(retain = 0) ?(width = Float.max_float)
      ?(classify = fun l -> `Point l) () =
    if retain < 0 then invalid_arg "Obs.Stats.create: retain < 0";
    {
      live = Hashtbl.create 64;
      retain;
      order = Queue.create ();
      finished = Hashtbl.create 64;
      evicted = 0;
      evicted_floor = -1;
      scrap = fresh_op_stat (-1);
      ts = Metrics.Timeseries.create ~width ();
      classify;
      inflight = 0;
      active = [];
      intervals = [];
      last_time = 0.;
    }

  let series t = t.ts

  let op_stat t op =
    match Hashtbl.find_opt t.live op with
    | Some s -> s
    | None ->
    match Hashtbl.find_opt t.finished op with
    | Some s -> s
    | None ->
        if op <= t.evicted_floor then t.scrap
        else begin
          let s = fresh_op_stat op in
          Hashtbl.add t.live op s;
          s
        end

  let add_phase s p dur =
    let prev = match List.assoc_opt p s.phases with Some d -> d | None -> 0. in
    s.phases <- (p, prev +. dur) :: List.remove_assoc p s.phases

  (* The mc clock is the wall clock, which may step backwards;
     [Hist.add] rejects the negative latencies and phase durations that
     would produce, so they are skipped. *)
  let observe t ~time name v =
    if Float.is_finite v && v >= 0. then
      Metrics.Timeseries.observe t.ts ~time name v

  (* Fold a just-completed span into the series, in its end's window. *)
  let aggregate_completed t (s : op_stat) outcome =
    let time = s.t_end and kind = s.op_kind in
    let incr ?by name = Metrics.Timeseries.incr t.ts ~time ?by name in
    let observe = observe t ~time in
    let lat = s.t_end -. s.t_start in
    let client = client_kind kind in
    if client then begin
      observe "lat.all" lat;
      incr "ops.all";
      incr ("out." ^ outcome_name outcome)
    end;
    observe ("lat." ^ kind) lat;
    incr ("out." ^ outcome_name outcome ^ "." ^ kind);
    List.iter
      (fun (p, dur) ->
        incr ~by:dur ("phase." ^ phase_name p ^ "." ^ kind);
        observe ("phase." ^ phase_name p) dur)
      s.phases;
    List.iter
      (fun (p, c) ->
        incr ~by:(float_of_int c) ("elided." ^ phase_name p ^ "." ^ kind))
      s.elided;
    (* An operation routes around each suspected brick once. *)
    List.iter
      (fun (b, since) ->
        let key = string_of_int b ^ "." ^ kind in
        incr ("retarget." ^ key);
        incr ~by:(s.t_end -. since) ("retarget_time." ^ key))
      s.retargeted

  (* Drop the oldest retained completed records down to [keep]. *)
  let evict_down_to t keep =
    while Queue.length t.order > keep do
      let op = Queue.pop t.order in
      Hashtbl.remove t.finished op;
      if op > t.evicted_floor then t.evicted_floor <- op;
      t.evicted <- t.evicted + 1
    done

  let overlay t time label =
    match t.classify label with
    | `Point key -> t.intervals <- (key, time, time) :: t.intervals
    | `Begin key ->
        if not (List.mem_assoc key t.active) then
          t.active <- (key, time) :: t.active
    | `End key -> (
        match List.assoc_opt key t.active with
        | Some t0 ->
            t.active <- List.remove_assoc key t.active;
            t.intervals <- (key, t0, time) :: t.intervals
        | None -> ())

  let feed t ev =
    let time = ev.time in
    if time > t.last_time then t.last_time <- time;
    let incr ?by name = Metrics.Timeseries.incr t.ts ~time ?by name in
    let observe = observe t ~time in
    (* Per-op records are kept only for events tied to an operation. *)
    let record f = if ev.op >= 0 then f (op_stat t ev.op) in
    match ev.kind with
    | Span_start { op_kind; stripe } ->
        t.inflight <- t.inflight + 1;
        observe "inflight" (float_of_int t.inflight);
        record (fun s ->
            s.op_kind <- op_kind;
            s.stripe <- stripe;
            s.t_start <- time)
    | Span_end { op_kind; stripe; outcome } ->
        if t.inflight > 0 then t.inflight <- t.inflight - 1;
        observe "inflight" (float_of_int t.inflight);
        record (fun s ->
            s.op_kind <- op_kind;
            s.stripe <- stripe;
            s.t_end <- time;
            s.outcome <- Some outcome;
            (match s.open_phase with
            | Some (p, since) ->
                add_phase s p (time -. since);
                s.open_phase <- None
            | None -> ());
            Hashtbl.remove t.live ev.op;
            if not (Hashtbl.mem t.finished ev.op) then begin
              Hashtbl.replace t.finished ev.op s;
              Queue.push ev.op t.order;
              aggregate_completed t s outcome;
              if t.retain > 0 then evict_down_to t t.retain
            end)
    | Phase_start ->
        Option.iter
          (fun p ->
            record (fun s ->
                (match s.open_phase with
                | Some (prev, since) -> add_phase s prev (time -. since)
                | None -> ());
                s.open_phase <- Some (p, time)))
          ev.phase
    | Phase_end ->
        Option.iter
          (fun p ->
            record (fun s ->
                match s.open_phase with
                | Some (open_p, since) when open_p = p ->
                    add_phase s p (time -. since);
                    s.open_phase <- None
                | _ -> ()))
          ev.phase
    | Phase_elided ->
        Option.iter
          (fun p ->
            record (fun s ->
                let prev =
                  match List.assoc_opt p s.elided with Some c -> c | None -> 0
                in
                s.elided <- (p, prev + 1) :: List.remove_assoc p s.elided))
          ev.phase
    | Msg_send { bytes; _ } ->
        incr "msgs";
        incr ~by:(float_of_int bytes) "bytes";
        record (fun s ->
            s.msgs <- s.msgs + 1;
            s.bytes <- s.bytes + bytes)
    | Msg_recv _ -> ()
    | Msg_drop _ ->
        incr "drops";
        record (fun s -> s.drops <- s.drops + 1)
    | Io_read { blocks } ->
        incr ~by:(float_of_int blocks) "io.read";
        record (fun s -> s.disk_reads <- s.disk_reads + blocks)
    | Io_write { blocks } ->
        incr ~by:(float_of_int blocks) "io.write";
        record (fun s -> s.disk_writes <- s.disk_writes + blocks)
    | Timeout _ ->
        incr "retransmits";
        record (fun s -> s.timeouts <- s.timeouts + 1)
    | Retarget { suspect } ->
        incr "retargets";
        record (fun s -> s.retargeted <- (suspect, time) :: s.retargeted)
    | Queue_depth { depth } ->
        observe ("queue." ^ actor_name ev.actor) (float_of_int depth)
    | Fault { label } ->
        incr "faults";
        overlay t time label

  let sink t = Sink.make (feed t)

  (* Retained completed records, oldest first. With a [retain] bound
     this is only the most recent window; the views below still
     describe every op ever completed. *)
  let completed t =
    Queue.fold
      (fun acc op ->
        match Hashtbl.find_opt t.finished op with
        | Some s -> s :: acc
        | None -> acc)
      [] t.order
    |> List.rev

  let unfinished t = Hashtbl.length t.live
  let evicted t = t.evicted
  let latency s = s.t_end -. s.t_start

  (* ---- whole-run views: each merges its series over the windows ---- *)

  (* Suffixes of the sorted names that start with [prefix]. *)
  let suffixes prefix names =
    let n = String.length prefix in
    List.filter_map
      (fun name ->
        if String.starts_with ~prefix name then
          Some (String.sub name n (String.length name - n))
        else None)
      names

  let all_outcomes = [ Ok; Abort; Retry; Unavailable ]
  let total t name = Metrics.Timeseries.total t.ts name
  let count t name = int_of_float (total t name)

  let hist t name =
    match Metrics.Timeseries.merged_hist t.ts name with
    | Some h -> h
    | None -> Metrics.Hist.create ()

  let kinds t =
    let names = Metrics.Timeseries.counter_names t.ts in
    List.concat_map
      (fun o -> suffixes ("out." ^ outcome_name o ^ ".") names)
      all_outcomes
    |> List.sort_uniq String.compare

  (* Per op kind, the summed counter [<prefix>.<phase>.<kind>] of each
     phase that has one. *)
  let per_phase t prefix kind =
    let names = Metrics.Timeseries.counter_names t.ts in
    List.filter_map
      (fun p ->
        let name = prefix ^ "." ^ phase_name p ^ "." ^ kind in
        if List.mem name names then Some (p, total t name) else None)
      all_phases

  let outcome_counts t =
    List.map
      (fun k ->
        let c o = count t ("out." ^ outcome_name o ^ "." ^ k) in
        (k, (c Ok, c Abort, c Retry, c Unavailable)))
      (kinds t)

  (* A kind with no recorded latency (every span's clock stepped
     backwards) still lists, with an empty histogram. *)
  let by_kind t = List.map (fun k -> (k, hist t ("lat." ^ k))) (kinds t)

  (* A phase lists once any op ran it, even if every duration was
     skipped as negative. *)
  let by_phase t =
    let names = Metrics.Timeseries.counter_names t.ts in
    List.filter_map
      (fun p ->
        let name = "phase." ^ phase_name p in
        if suffixes (name ^ ".") names <> [] then Some (p, hist t name)
        else None)
      all_phases

  let phase_breakdown t =
    List.map
      (fun (kind, (ok, aborts, retries, unavail)) ->
        let n = ok + aborts + retries + unavail in
        ( kind,
          n,
          List.map
            (fun (p, sum) -> (p, sum /. float_of_int n))
            (per_phase t "phase" kind) ))
      (outcome_counts t)

  let elided_by_kind t =
    List.filter_map
      (fun kind ->
        match per_phase t "elided" kind with
        | [] -> None
        | l -> Some (kind, List.map (fun (p, c) -> (p, int_of_float c)) l))
      (kinds t)

  let queue_depths t =
    List.map
      (fun actor -> (actor, hist t ("queue." ^ actor)))
      (suffixes "queue." (Metrics.Timeseries.hist_names t.ts))

  let retargets t =
    List.map
      (fun key ->
        let dot = String.index key '.' in
        let b = int_of_string (String.sub key 0 dot) in
        let kind = String.sub key (dot + 1) (String.length key - dot - 1) in
        let ops = count t ("retarget." ^ key) in
        (b, kind, ops, total t ("retarget_time." ^ key) /. float_of_int ops))
      (suffixes "retarget." (Metrics.Timeseries.counter_names t.ts))
    |> List.sort compare

  (* A histogram already registered under a name is merged with, not
     replaced. With a [retain] bound the remaining completed records
     are evicted afterwards ("obs.evictions" records how many went
     overall); the series keep every op. *)
  let materialize t reg =
    (* [hist] returns a fresh histogram, so the registry may keep it. *)
    let put name h =
      Metrics.Registry.put_hist reg name
        (match Metrics.Registry.hist_opt reg name with
        | Some existing -> Metrics.Hist.merge existing h
        | None -> h)
    in
    List.iter
      (fun (kind, (ok, aborts, retries, unavail)) ->
        put ("op." ^ kind ^ ".latency") (hist t ("lat." ^ kind));
        Metrics.Registry.incr
          ~by:(float_of_int (ok + aborts + retries + unavail))
          reg "obs.ops";
        let tally name n =
          if n > 0 then Metrics.Registry.incr ~by:(float_of_int n) reg name
        in
        tally "obs.aborts" aborts;
        tally "obs.retries" retries;
        tally "obs.unavailable" unavail)
      (outcome_counts t);
    List.iter
      (fun (p, h) -> put ("phase." ^ phase_name p ^ ".latency") h)
      (by_phase t);
    List.iter
      (fun (actor, h) -> put ("queue." ^ actor ^ ".depth") h)
      (queue_depths t);
    if t.retain > 0 then begin
      evict_down_to t 0;
      Metrics.Registry.incr ~by:(float_of_int t.evicted) reg "obs.evictions"
    end

  (* Fault overlay intervals, oldest first. Overlays still open at the
     last observed event extend to that time; points have t0 = t1. *)
  let faults t =
    let open_ones =
      List.rev_map (fun (key, t0) -> (key, t0, t.last_time)) t.active
    in
    List.sort
      (fun (_, a, _) (_, b, _) -> Float.compare a b)
      (List.rev_append t.intervals open_ones)

  (* Overlay labels whose interval intersects window [w], sorted. *)
  let faults_in t w =
    let w0 = Metrics.Timeseries.window_start t.ts w in
    let w1 = w0 +. Metrics.Timeseries.width t.ts in
    List.filter_map
      (fun (key, t0, t1) -> if t0 < w1 && t1 >= w0 then Some key else None)
      (faults t)
    |> List.sort_uniq String.compare
end

(* ------------------------------------------------------------------ *)
(* Service-level objectives and error budgets                          *)
(* ------------------------------------------------------------------ *)

module Slo = struct
  (* An objective either bounds a latency percentile for a family of
     op kinds ("read p99 < 6") or floors the success ratio
     ("availability >= 99.9%"). The error budget is the complement:
     for a p99 bound, 1% of requests may exceed the limit; for 99.9%
     availability, 0.1% may fail. Burn is the fraction of that budget
     actually spent. *)
  type objective =
    | Latency of { kind : string option; p : float; limit : float }
    | Availability of { min_pct : float }

  let name = function
    | Latency { kind; p; limit } ->
        Printf.sprintf "%sp%g < %g"
          (match kind with Some k -> k ^ " " | None -> "")
          p limit
    | Availability { min_pct } ->
        Printf.sprintf "availability >= %g%%" min_pct

  (* "read p99 < 6" / "p99.9 <= 12.5" / "availability >= 99.9%" *)
  let parse s =
    let toks =
      String.split_on_char ' ' (String.trim s)
      |> List.filter (fun t -> t <> "")
    in
    let num tok =
      let tok =
        if String.length tok > 0 && tok.[String.length tok - 1] = '%' then
          String.sub tok 0 (String.length tok - 1)
        else tok
      in
      float_of_string_opt tok
    in
    let err = Printf.sprintf "cannot parse SLO %S (want e.g. \"read p99 < 6\" or \"availability >= 99.9%%\")" s in
    let percentile tok =
      if String.length tok > 1 && tok.[0] = 'p' then
        match float_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
        | Some p when p > 0. && p < 100. -> Some p
        | _ -> None
      else None
    in
    match toks with
    | [ "availability"; (">=" | ">"); pct ] -> (
        match num pct with
        | Some m when m > 0. && m <= 100. -> Result.Ok (Availability { min_pct = m })
        | _ -> Result.Error err)
    | [ ptok; ("<" | "<="); lim ] -> (
        match (percentile ptok, num lim) with
        | Some p, Some limit when limit > 0. ->
            Result.Ok (Latency { kind = None; p; limit })
        | _ -> Result.Error err)
    | [ kind; ptok; ("<" | "<="); lim ] -> (
        match (percentile ptok, num lim) with
        | Some p, Some limit when limit > 0. ->
            Result.Ok (Latency { kind = Some kind; p; limit })
        | _ -> Result.Error err)
    | _ -> Result.Error err

  type window_stat = {
    window : int;
    w_total : int;  (* observations governed by the objective *)
    w_bad : int;  (* observations out of objective *)
    w_compliant : bool;  (* vacuously true on an empty window *)
    w_faults : string list;  (* chaos overlays active in the window *)
  }

  type report = {
    objective : objective;
    total : int;
    bad : int;
    budget_frac : float;  (* allowed bad fraction, in (0, 1) *)
    burn : float;  (* bad / (budget_frac * total); > 1 = budget blown *)
    compliant : bool;
    windows : window_stat list;
  }

  let mk_report objective ~budget_frac windows =
    let total = List.fold_left (fun a w -> a + w.w_total) 0 windows in
    let bad = List.fold_left (fun a w -> a + w.w_bad) 0 windows in
    let burn =
      if total = 0 then 0.
      else float_of_int bad /. (budget_frac *. float_of_int total)
    in
    {
      objective;
      total;
      bad;
      budget_frac;
      burn;
      compliant =
        (total = 0 || float_of_int bad <= budget_frac *. float_of_int total);
      windows;
    }

  let evaluate stats objective =
    let ts = Stats.series stats in
    let windows =
      match Metrics.Timeseries.span ts with
      | None -> []
      | Some (w0, w1) -> List.init (w1 - w0 + 1) (fun i -> w0 + i)
    in
    match objective with
    | Latency { kind; p; limit } ->
        let budget_frac = (100. -. p) /. 100. in
        let names =
          match kind with
          | None -> [ "lat.all" ]
          | Some sel ->
              List.filter
                (fun n ->
                  String.length n > 4
                  && String.sub n 0 4 = "lat."
                  && kind_matches sel (String.sub n 4 (String.length n - 4)))
                (Metrics.Timeseries.hist_names ts)
        in
        let stats =
          List.map
            (fun w ->
              let total, bad =
                List.fold_left
                  (fun (t, b) name ->
                    match Metrics.Timeseries.hist ts name w with
                    | None -> (t, b)
                    | Some h ->
                        ( t + Metrics.Hist.count h,
                          b + Metrics.Hist.count_above h limit ))
                  (0, 0) names
              in
              {
                window = w;
                w_total = total;
                w_bad = bad;
                w_compliant =
                  total = 0
                  || float_of_int bad <= budget_frac *. float_of_int total;
                w_faults = Stats.faults_in stats w;
              })
            windows
        in
        mk_report objective ~budget_frac stats
    | Availability { min_pct } ->
        let budget_frac = (100. -. min_pct) /. 100. in
        let stats =
          List.map
            (fun w ->
              let c name =
                int_of_float (Metrics.Timeseries.counter ts name w)
              in
              (* Retries are re-attempted, not failures; aborts and
                 unavailable verdicts burn the budget. *)
              let ok = c "out.ok" in
              let failed = c "out.abort" + c "out.unavailable" in
              let total = ok + failed in
              {
                window = w;
                w_total = total;
                w_bad = failed;
                w_compliant =
                  total = 0
                  || float_of_int failed <= budget_frac *. float_of_int total;
                w_faults = Stats.faults_in stats w;
              })
            windows
        in
        mk_report objective ~budget_frac stats
end

(* ------------------------------------------------------------------ *)
(* Well-formedness checks over a raw event list                        *)
(* ------------------------------------------------------------------ *)

module Check = struct
  (* Returns human-readable violations; empty = well-formed. Checks,
     per op id: exactly one span_start and one span_end, phase
     start/end events strictly alternate with matching phase labels,
     phases fall inside the span, and times are monotone. *)
  let well_formed events =
    let violations = ref [] in
    let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
    let ops = Hashtbl.create 64 in
    let op_ids = ref [] in
    List.iter
      (fun ev ->
        if ev.op >= 0 then begin
          (match Hashtbl.find_opt ops ev.op with
          | Some l -> Hashtbl.replace ops ev.op (ev :: l)
          | None ->
              op_ids := ev.op :: !op_ids;
              Hashtbl.add ops ev.op [ ev ])
        end)
      events;
    List.iter
      (fun op ->
        let evs = List.rev (Hashtbl.find ops op) in
        let starts =
          List.filter (fun e -> match e.kind with Span_start _ -> true | _ -> false) evs
        in
        let ends =
          List.filter (fun e -> match e.kind with Span_end _ -> true | _ -> false) evs
        in
        if List.length starts <> 1 then
          bad "op %d: %d span_start events (want 1)" op (List.length starts);
        if List.length ends <> 1 then
          bad "op %d: %d span_end events (want 1)" op (List.length ends);
        match (starts, ends) with
        | [ s ], [ e ] ->
            if s.time > e.time then
              bad "op %d: span_end at %g before span_start at %g" op e.time
                s.time;
            let open_phase = ref None in
            let last_time = ref s.time in
            List.iter
              (fun evt ->
                (match evt.kind with
                | Phase_start | Phase_end | Phase_elided ->
                    if evt.time < s.time || evt.time > e.time then
                      bad "op %d: phase event at %g outside span [%g, %g]" op
                        evt.time s.time e.time;
                    if evt.time < !last_time then
                      bad "op %d: phase events out of time order" op;
                    last_time := evt.time
                | _ -> ());
                match (evt.kind, evt.phase) with
                | Phase_start, Some p -> (
                    match !open_phase with
                    | Some q ->
                        bad "op %d: phase %s starts while %s is open" op
                          (phase_name p) (phase_name q)
                    | None -> open_phase := Some p)
                | Phase_start, None -> bad "op %d: phase_start without phase" op
                | Phase_end, Some p -> (
                    match !open_phase with
                    | Some q when q = p -> open_phase := None
                    | Some q ->
                        bad "op %d: phase_end %s closes open phase %s" op
                          (phase_name p) (phase_name q)
                    | None -> bad "op %d: phase_end %s with no open phase" op (phase_name p))
                | Phase_end, None -> bad "op %d: phase_end without phase" op
                | Phase_elided, None ->
                    bad "op %d: phase_elided without phase" op
                | Phase_elided, Some p -> (
                    match !open_phase with
                    | Some q ->
                        bad "op %d: phase %s elided while %s is open" op
                          (phase_name p) (phase_name q)
                    | None -> ())
                | _ -> ())
              evs;
            (match !open_phase with
            | Some p -> bad "op %d: phase %s never ends" op (phase_name p)
            | None -> ())
        | _ -> ())
      (List.sort compare !op_ids);
    List.rev !violations
end
