(** Recording of operation histories for linearizability checking.

    The test driver wraps every register operation: it records the
    invocation before starting, and the return (value, OK, or abort)
    when the operation completes. An operation that never returns —
    its coordinator crashed — stays {e partial}, which is precisely
    the paper's partial-operation notion.

    Values are opaque strings (the drivers use block contents); the
    paper's unique-value assumption must hold: no two writes may write
    the same value, and no write may write the initial value
    {!nil}. *)

type kind = Read | Write

type status =
  | Pending  (** invoked, no return yet (partial if never completed) *)
  | Returned of string  (** successful read: the value returned *)
  | Ok_written  (** successful write *)
  | Aborted  (** the operation returned bottom *)
  | Crashed
      (** the coordinator crashed mid-operation; the operation is
          partial and its crash event is at [returned_at] *)

type record = {
  id : int;
  client : int;
  kind : kind;
  written : string option;  (** the value a write tries to write *)
  invoked_at : float;
  mutable status : status;
  mutable returned_at : float option;
}

type t

val nil : string
(** The register's initial value (the all-zero marker; drivers must
    map the zero block to this). *)

val create : unit -> t

val invoke :
  t -> client:int -> kind:kind -> ?written:string -> now:float -> unit -> int
(** Record an invocation; returns the operation id.
    @raise Invalid_argument if a write has no [written] value, a read
    has one, or a write reuses a previously written value or {!nil}. *)

val complete_read : t -> int -> value:string -> now:float -> unit
val complete_write : t -> int -> now:float -> unit
val abort : t -> int -> now:float -> unit

val crash : t -> int -> now:float -> unit
(** Mark a pending operation as partial with a crash event at [now];
    the crash event orders the operation before everything invoked
    after [now] (the paper's happens-before includes crash events). *)

val records : t -> record list
(** In invocation order. *)

val size : t -> int
(** Tests only: test_linearize and test_runtime check how many
    operations a history recorded. *)

val abort_count : t -> int
(** Tests only: test_linearize checks aborted operations are recorded. *)

val pending_count : t -> int
(** Tests only: test_linearize and test_runtime check that no operation
    is left open. *)
