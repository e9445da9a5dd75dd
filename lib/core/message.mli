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
  | Addrs of Simnet.Net.addr list
      (** Only these replicas return their blocks: the addressed
          members of a block-range write's Order&Read. *)

(** What one member receives in a Modify round (Algorithm 3's Modify,
    extended to a contiguous range of data blocks as in the paper's
    footnote 2). The coordinator picks the payload per destination. *)
type payload =
  | Patch of { olds : Bytes.t array; news : Bytes.t array }
      (** Old and new contents of data blocks [j0 .. j0+len-1], sent
          to every member (the paper's Modify): an in-range data
          member stores its new block, a parity member folds every
          block's change into its newest block, and any other member
          logs a timestamp-only marker. *)
  | Block of Bytes.t
      (** The destination's own new data block (section 5.2's
          optimisation, in-range data members). *)
  | Fold of Bytes.t
      (** The parity change Σ c_{p,i}·δ_i the destination XORs into its
          newest block (section 5.2, parity members). *)
  | Marker
      (** No payload: the destination logs a timestamp-only marker
          (section 5.2, data members outside the range). *)

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
      j0 : int;  (** first data position of the range being written *)
      payload : payload;
      tsj : Timestamp.t;  (** common version timestamp of the old blocks *)
      ts : Timestamp.t;
    }
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

val label : t -> string
(** Short constructor name (e.g. ["order&read"]) used as the message
    label in observability traces. *)
