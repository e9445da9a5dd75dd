val twice : int -> int
(** Called from bin under [open Alpha]. *)
