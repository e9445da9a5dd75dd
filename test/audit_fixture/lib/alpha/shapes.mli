val perimeter : float -> float
(** Called from bin through a module alias. *)

val area : ?scale:float -> float -> float (* planted: unpassed-option *)
(** Called from bin, never with [?scale]. planted: unpassed-option *)

val check : float -> bool
(** Tests only: test_fake needs it. *)

val helper : int -> int
(** Called from the sibling module [Util] only. *)
