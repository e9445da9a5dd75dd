(** Totally ordered timestamps (paper section 2.3).

    A timestamp is either one of the sentinels [LowTS] / [HighTS] or a
    pair of a time value and the issuing process id; the pid breaks
    ties, giving UNIQUENESS across processes. For every timestamp [t]
    returned by a clock, [low < t < high]. *)

type t =
  | Low  (** The paper's LowTS: smaller than every generated timestamp. *)
  | Ts of { time : int; pid : int }
  | High  (** The paper's HighTS: larger than every generated timestamp. *)

val low : t
val high : t

val make : time:int -> pid:int -> t
(** @raise Invalid_argument if [time < 0] or [pid < 0]. *)

val compare : t -> t -> int
(** Total order: [Low] < every [Ts] < [High]; [Ts] pairs are ordered
    lexicographically by time, then pid. *)

val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
(** Tests only: test_timestamp, test_slog and test_register compare
    timestamps with it. *)

val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val max : t -> t -> t
val to_string : t -> string
(** Tests only: test_timestamp, test_slog and test_register print
    timestamps in failure messages with it. *)
