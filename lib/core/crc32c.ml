external init : unit -> bool = "fab_crc32c_init" [@@noalloc]
external bytes : Bytes.t -> int = "fab_crc32c" [@@noalloc]
external portable : Bytes.t -> int = "fab_crc32c_portable" [@@noalloc]

(* Builds the tables and probes the CPU before any caller can hash. *)
let kernel = if init () then "sse4.2" else "portable"
