val to_float : int -> float (* planted: dead-stdlib-name *)
(** Nothing calls it; bin calls [Int64.to_float]. planted: dead-stdlib-name *)

val connect : ?retries:int -> string -> unit (* planted: constant-option *)
(** Every program call passes [~retries:3]. planted: constant-option *)

val render : int -> string
(** Called from bin inside a local open. *)

val dump : unit -> string (* planted: unannotated-tests-only *)

val trace : unit -> unit (* planted: missing-test *)
(** Tests only: test_missing needs it. planted: missing-test *)

val limit : ?cap:int -> int -> int
(** Tests only: test_fake passes [?cap]; bin never does. *)

val reset : drop:float -> unit (* planted: constant-label *)
(** Every call, the test's too, passes [~drop:0.]. planted: constant-label *)

val scale : factor:int -> int -> int
(** bin passes [~factor:2] and the test [~factor:3]: not one value. *)
