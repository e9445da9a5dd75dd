external init : unit -> int = "fab_crc32c_init" [@@noalloc]
external bytes : Bytes.t -> int = "fab_crc32c" [@@noalloc]
external path : int -> Bytes.t -> int = "fab_crc32c_path" [@@noalloc]

(* Builds the tables and probes the CPU before any caller can hash. *)
let level = init ()

let paths =
  List.filteri (fun l _ -> l <= level) [ "portable"; "sse4.2"; "vpclmulqdq" ]
  |> List.mapi (fun l name -> (name, path l))

let kernel = fst (List.nth paths level)
