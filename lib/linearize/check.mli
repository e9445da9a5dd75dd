(** Strict-linearizability checker (paper section 3, Appendix B).

    A history is strictly linearizable iff it admits a {e conforming
    total order} (Definition 5): a total order on the observable
    values that contains [nil] first and respects the real-time order
    of the operations that wrote and read them. Proposition 6 shows
    conforming total order implies strict linearizability; under the
    unique-value assumption the converse direction also holds for the
    violations we report, so the checker is both sound and complete
    for register histories produced by the test drivers.

    The checker reduces Definition 5 to digraph acyclicity:

    - nodes are the observable values (values returned by successful
      reads, plus values of writes that returned OK);
    - conditions (2)-(5) each force a strict edge between two distinct
      values (a total order on distinct values cannot have ties);
    - a partial or aborted write whose value was never observed is
      free to be dropped from the order, so it contributes nothing;
    - a read returning [v] that happens before the write of [v] is an
      immediate violation (condition (5) with [v = v']).

    Strictness — the property that distinguishes this from plain
    linearizability — falls out of using {e every} read in the
    constraints: if a partially-written value surfaces in a read after
    a later operation already observed an older value, conditions (3)
    and (4) produce a cycle. *)

type violation =
  | Read_of_unwritten of { op : int; value : string }
      (** A read returned a value nobody ever tried to write. *)
  | Future_read of { read_op : int; write_op : int; value : string }
      (** A read of [value] happened entirely before its write was
          invoked. *)
  | Cycle of { values : string list; ops : (int * int) list }
      (** The precedence constraints on these values form a cycle;
          [ops] are the (earlier, later) operation pairs that induced
          the cycle's edges. *)

val pp_violation : Format.formatter -> violation -> unit

val strict : History.t -> (unit, violation) result
(** [strict h] checks strict linearizability of the recorded history. *)
