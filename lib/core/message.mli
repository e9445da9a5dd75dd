(** Wire messages of the storage-register protocol (Algorithms 1-3).

    Requests carry the stripe id so that one replica process serves
    every stripe hosted on its brick. Replies carry [cur_ts], the
    replica's current notion of the latest timestamp; every
    coordinator's clock folds it in ({!Clock.observe}) so that a retry
    after an abort proposes a large-enough timestamp (liveness aid
    only — safety never depends on it).

    [bytes_on_wire] implements Table 1's bandwidth accounting: only
    block payloads count, in units of the block size B. *)

type target =
  | All  (** Every replica answers with its version information. *)
  | Addr of Simnet.Net.addr  (** Only this replica returns its block. *)
  | Addrs of Simnet.Net.addr list
      (** These replicas return their blocks (multi-block operations,
          the extension of the paper's footnote 2). *)

type t =
  (* Requests *)
  | Read of { stripe : int; targets : Simnet.Net.addr list }
  | Order of { stripe : int; ts : Timestamp.t }
  | Order_read of {
      stripe : int;
      target : target;
      max : Timestamp.t;
      ts : Timestamp.t;
    }
  | Write of { stripe : int; block : Bytes.t; ts : Timestamp.t }
  | Modify of {
      stripe : int;
      j : int;  (** data-block position being written, in [0, m) *)
      bj : Bytes.t;  (** old content of block [j] *)
      b : Bytes.t;  (** new content of block [j] *)
      tsj : Timestamp.t;  (** timestamp of [bj] at p_j *)
      ts : Timestamp.t;
    }
  | Modify_delta of {
      stripe : int;
      j : int;
      payload : Bytes.t option;
          (** New block for p_j, precomputed parity delta for parity
              processes, nothing for the other data processes
              (section 5.2's bandwidth optimization). *)
      tsj : Timestamp.t;
      ts : Timestamp.t;
    }
  | Modify_multi of {
      stripe : int;
      j0 : int;  (** first data position of the contiguous range *)
      olds : Bytes.t array;  (** old contents of blocks j0 .. j0+len-1 *)
      news : Bytes.t array;  (** new contents, same length *)
      tsj : Timestamp.t;  (** common version timestamp of the old blocks *)
      ts : Timestamp.t;
    }  (** Multi-block fast write (footnote 2 extension): updates a
          contiguous range of data blocks and folds all the changes
          into each parity block in one round. *)
  | Gc of { stripe : int; before : Timestamp.t }
  (* Replies *)
  | Read_r of {
      status : bool;
      val_ts : Timestamp.t;
      block : Bytes.t option;
      cur_ts : Timestamp.t;
    }
  | Order_r of { status : bool; cur_ts : Timestamp.t }
  | Order_read_r of {
      status : bool;
      lts : Timestamp.t;
      block : Bytes.t option;
      cur_ts : Timestamp.t;
    }
  | Write_r of { status : bool; cur_ts : Timestamp.t }
  | Modify_r of { status : bool; cur_ts : Timestamp.t }

val bytes_on_wire : t -> int
(** Accounted payload size: the total length of the blocks the message
    carries (zero for timestamp-only messages). *)

val stripe : t -> int option
(** The stripe a request addresses; [None] for replies. *)

val label : t -> string
(** Short constructor name (e.g. ["order&read"]) used as the message
    label in observability traces. *)

val pp : Format.formatter -> t -> unit
(** Compact rendering for traces and test failures. *)
