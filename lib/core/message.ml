type target = All | Addrs of Simnet.Net.addr list

type payload =
  | Patch of { olds : Bytes.t array; news : Bytes.t array }
  | Block of Bytes.t
  | Fold of Bytes.t
  | Marker

type t =
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
      j0 : int;
      payload : payload;
      tsj : Timestamp.t;
      ts : Timestamp.t;
    }
  | Gc of { stripe : int; before : Timestamp.t }
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

let opt_len = function Some b -> Bytes.length b | None -> 0
let sum_len = Array.fold_left (fun acc b -> acc + Bytes.length b) 0

let payload_len = function
  | Patch { olds; news } -> sum_len olds + sum_len news
  | Block b | Fold b -> Bytes.length b
  | Marker -> 0

let bytes_on_wire = function
  | Read _ | Order _ | Order_read _ | Gc _ -> 0
  | Write { block; _ } -> Bytes.length block
  | Modify { payload; _ } -> payload_len payload
  | Read_r { block; _ } | Order_read_r { block; _ } -> opt_len block
  | Order_r _ | Write_r _ | Modify_r _ -> 0

let label = function
  | Read _ -> "read"
  | Order _ -> "order"
  | Order_read _ -> "order&read"
  | Write _ -> "write"
  | Modify _ -> "modify"
  | Gc _ -> "gc"
  | Read_r _ -> "read-r"
  | Order_r _ -> "order-r"
  | Order_read_r _ -> "order&read-r"
  | Write_r _ -> "write-r"
  | Modify_r _ -> "modify-r"
