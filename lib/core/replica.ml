module Ts = Timestamp

type stripe_state = { mutable ord_ts : Ts.t; log : Slog.t }

type t = {
  cfg : Config.t;
  brick : Brick.t;
  states : (int, stripe_state) Hashtbl.t;
  mutable gc_removed : int;
}

let brick t = t.brick

let state t stripe =
  match Hashtbl.find_opt t.states stripe with
  | Some s -> s
  | None ->
      let s =
        { ord_ts = Ts.low; log = Slog.create ~block_size:t.cfg.Config.block_size }
      in
      Hashtbl.add t.states stripe s;
      s

(* The replica's current notion of the most recent timestamp, carried
   on every reply so that coordinators with logical clocks can catch
   up after an abort. Each handler reads its log head [val_ts] once on
   entry and passes it here, advanced to its own [add] if it made one:
   a brick's handlers are serialized (one receive loop per address on
   mc, one thread on sim), so nothing can change the log in between. *)
let cur_ts st val_ts = Ts.max st.ord_ts val_ts

let my_pos t stripe =
  Config.pos_of_addr t.cfg ~stripe (Brick.id t.brick)

let set_ord_ts t st ts =
  st.ord_ts <- ts;
  Brick.count_nvram_write t.brick

(* [Read, targets] — Algorithm 2, lines 38-44. A targeted replica
   reads its version and block in one [Slog.head] descent. *)
let handle_read t ctx stripe targets =
  let st = state t stripe in
  let targeted = List.mem (Brick.id t.brick) targets in
  let val_ts, newest =
    if targeted then
      let v, (_, b) = Slog.head st.log in
      (v, Some b)
    else (Slog.max_ts st.log, None)
  in
  (* The unsafe_skip_order variant drops the write-order barrier: a
     replica with a pending Order promise (ord_ts > val_ts) answers as
     if its value were current, hiding in-flight writes from fast
     reads. Deliberately wrong — exists so the chaos harness has a
     real strict-linearizability violation to detect and shrink. *)
  let status =
    t.cfg.Config.unsafe_skip_order || Ts.( >= ) val_ts st.ord_ts
  in
  let block =
    match newest with
    | Some _ when status ->
        Brick.count_disk_read ~ctx t.brick;
        newest
    | Some _ | None -> None
  in
  Message.Read_r { status; val_ts; block; cur_ts = cur_ts st val_ts }

(* [Order, ts] — lines 45-48. Re-delivery of an Order already in force
   (ord_ts = ts) re-acknowledges. *)
let handle_order t stripe ts =
  let st = state t stripe in
  let val_ts = Slog.max_ts st.log in
  let fresh = Ts.( > ) ts val_ts && Ts.( >= ) ts st.ord_ts in
  let status = fresh || Ts.equal st.ord_ts ts in
  if fresh && not (Ts.equal st.ord_ts ts) then set_ord_ts t st ts;
  Message.Order_r { status; cur_ts = cur_ts st val_ts }

(* [Order&Read, j, max, ts] — lines 49-56.

   The unsafe_skip_order variant degrades this round to a plain read:
   no freshness check and, crucially, no promise recorded. The
   atomicity of sample-and-promise is what lets a recovery invalidate
   the in-flight stores of the operation it read past; without the
   promise (and with the store-side barrier also skipped, below) a
   recovery whose sample predates a concurrently-completing write can
   roll the stripe back over it at a higher timestamp — erasing a
   completed write, the strict-linearizability violation the chaos
   harness exists to catch. *)
let handle_order_read t ctx stripe target max ts =
  let st = state t stripe in
  let val_ts = Slog.max_ts st.log in
  let skip = t.cfg.Config.unsafe_skip_order in
  let status = skip || (Ts.( > ) ts val_ts && Ts.( >= ) ts st.ord_ts) in
  let lts = ref Ts.low and block = ref None in
  if status then begin
    if (not skip) && not (Ts.equal st.ord_ts ts) then set_ord_ts t st ts;
    let wanted =
      match target with
      | Message.All -> true
      | Message.Addr a -> a = Brick.id t.brick
      | Message.Addrs l -> List.mem (Brick.id t.brick) l
    in
    if wanted then
      match Slog.max_below st.log max with
      | Some (l, b) ->
          lts := l;
          block := b;
          if b <> None then Brick.count_disk_read ~ctx t.brick
      | None -> ()
  end;
  Message.Order_read_r
    { status; lts = !lts; block = !block; cur_ts = cur_ts st val_ts }

(* The unsafe_skip_order variant also drops the order barrier on the
   store side: a replica accepts a Write/Modify above its log head even
   when a newer Order promise stands ([ts < ord_ts]). The promise is
   what lets a recovery invalidate the in-flight stores of the
   operation it is superseding; without it, a write whose store round
   was overtaken by a read-triggered recovery can still gather a
   quorum of acks and report success to its client while the recovery
   (whose Order&Read sample predates those stores) rolls the stripe
   back at a higher timestamp — erasing a completed write. A later
   read then returns the older value: a strict-linearizability
   violation the chaos harness must detect and shrink. *)
let ord_barrier t st ts =
  t.cfg.Config.unsafe_skip_order || Ts.( >= ) ts st.ord_ts

(* [Write, b, ts] — lines 57-60. A re-delivered Write whose entry is
   already logged with the same content re-acknowledges; an entry at
   [ts] with different content (a Modify got there first, e.g. via a
   slow write-block reusing its fast phase's timestamp) refuses, as
   the paper's status check does — acknowledging would let two
   replicas disagree on the content of version [ts]. *)
let handle_write t ctx stripe block ts =
  let st = state t stripe in
  let val_ts = Slog.max_ts st.log in
  let logged = Slog.find st.log ts in
  let already =
    match logged with
    | Some (Some existing) -> Bytes.equal existing block
    | Some None | None -> false
  in
  let status =
    already
    || (Option.is_none logged && Ts.( > ) ts val_ts && ord_barrier t st ts)
  in
  let stored = status && not already in
  if stored then begin
    Slog.add st.log ts (Some block);
    Brick.count_disk_write ~ctx t.brick;
    Brick.count_nvram_write t.brick
  end;
  Message.Write_r
    { status; cur_ts = cur_ts st (if stored then ts else val_ts) }

(* The three Modify handlers: Algorithm 3, lines 88-98. [entry ~pos
   parity] builds this replica's new log entry at stripe position
   [pos]; [parity] is [Some (parity_idx, newest)] exactly at a parity
   position, whose update folds a change into its newest real block
   [newest]. Such a position reads its version and that block in one
   [Slog.head] descent; the others need only [max-ts]. *)
let modify t ctx stripe tsj ts entry =
  let st = state t stripe in
  let already = Slog.mem st.log ts in
  let pos = my_pos t stripe in
  let m = Config.m t.cfg ~stripe in
  let val_ts, parity =
    match pos with
    | Some p when p >= m ->
        let v, (_, b) = Slog.head st.log in
        (v, Some (p - m, b))
    | Some _ | None -> (Slog.max_ts st.log, None)
  in
  let status = already || (Ts.equal tsj val_ts && ord_barrier t st ts) in
  let val_ts =
    match pos with
    | Some p when status && not already ->
        let e = entry ~pos:p parity in
        Slog.add st.log ts e;
        if e <> None then Brick.count_disk_write ~ctx t.brick;
        Brick.count_nvram_write t.brick;
        Ts.max val_ts ts
    | Some _ | None -> val_ts
  in
  Message.Modify_r { status; cur_ts = cur_ts st val_ts }

(* [Modify, j, bj, b, tsj, ts]: the new block at p_j, a re-encoded
   parity block at parity processes, a timestamp-only marker
   elsewhere. The parity case allocates exactly one block (the log
   retains it); the delta is computed on a pooled scratch buffer. *)
let handle_modify t ctx stripe j bj b tsj ts =
  modify t ctx stripe tsj ts (fun ~pos parity ->
      match parity with
      | Some (parity_idx, newest) ->
          Brick.count_disk_read ~ctx t.brick;
          let out = Bytes.copy newest in
          let d = Brick.scratch_take t.brick ~len:(Bytes.length b) in
          Erasure.Codec.delta_into ~old_data:bj ~new_data:b ~into:d;
          Erasure.Codec.apply_delta_into
            (Config.codec t.cfg ~stripe)
            ~data_idx:j ~parity_idx ~delta:d ~parity:out;
          Brick.scratch_release t.brick d;
          Some out
      | None -> if pos = j then Some b else None)

(* Bandwidth-optimized Modify (section 5.2): p_j receives the new
   block, parity processes receive the precomputed delta to fold into
   their current block, other data processes receive no payload. *)
let handle_modify_delta t ctx stripe j payload tsj ts =
  modify t ctx stripe tsj ts (fun ~pos parity ->
      match (payload, parity) with
      | Some payload, None when pos = j -> Some payload
      | Some delta, Some (parity_idx, old_parity) ->
          Brick.count_disk_read ~ctx t.brick;
          Some
            (Erasure.Codec.apply_delta
               (Config.codec t.cfg ~stripe)
               ~data_idx:j ~parity_idx ~delta ~old_parity)
      | Some _, None | None, _ -> None)

(* [Modify_multi, j0, olds, news, tsj, ts] — the footnote-2 extension
   of the Modify handler to a contiguous range of data blocks. A data
   process inside the range stores its new block, a parity process
   folds every block's change into its current parity block, and data
   processes outside the range log a timestamp-only marker. *)
let handle_modify_multi t ctx stripe j0 olds news tsj ts =
  let len = Array.length olds in
  modify t ctx stripe tsj ts (fun ~pos parity ->
      match parity with
      | Some (parity_idx, newest) ->
          Brick.count_disk_read ~ctx t.brick;
          (* Fold every block's change into one fresh parity buffer
             (the log retains it). The per-block deltas land in pooled
             scratch buffers and are applied in one batched pass, so
             the parity block is read and written once however many
             blocks the write covers. *)
          let out = Bytes.copy newest in
          let blen = Bytes.length out in
          let ds =
            Array.init len (fun _ -> Brick.scratch_take t.brick ~len:blen)
          in
          let deltas =
            Array.mapi
              (fun i d ->
                Erasure.Codec.delta_into ~old_data:olds.(i)
                  ~new_data:news.(i) ~into:d;
                (j0 + i, d))
              ds
          in
          Erasure.Codec.apply_deltas_into
            (Config.codec t.cfg ~stripe)
            ~parity_idx ~deltas ~parity:out;
          Array.iter (Brick.scratch_release t.brick) ds;
          Some out
      | None ->
          if pos >= j0 && pos < j0 + len then Some news.(pos - j0) else None)

(* [Gc, before] — section 5.1. One-way; no reply. *)
let handle_gc t stripe before =
  match Hashtbl.find_opt t.states stripe with
  | None -> ()
  | Some st -> t.gc_removed <- t.gc_removed + Slog.gc st.log ~before

let dispatch t ctx msg =
  match msg with
    | Message.Read { stripe; targets } ->
        Some (handle_read t ctx stripe targets)
    | Message.Order { stripe; ts } -> Some (handle_order t stripe ts)
    | Message.Order_read { stripe; target; max; ts } ->
        Some (handle_order_read t ctx stripe target max ts)
    | Message.Write { stripe; block; ts } ->
        Some (handle_write t ctx stripe block ts)
    | Message.Modify { stripe; j; bj; b; tsj; ts } ->
        Some (handle_modify t ctx stripe j bj b tsj ts)
    | Message.Modify_delta { stripe; j; payload; tsj; ts } ->
        Some (handle_modify_delta t ctx stripe j payload tsj ts)
    | Message.Modify_multi { stripe; j0; olds; news; tsj; ts } ->
        Some (handle_modify_multi t ctx stripe j0 olds news tsj ts)
    | Message.Gc { stripe; before } ->
        handle_gc t stripe before;
        None
    | Message.Read_r _ | Message.Order_r _ | Message.Order_read_r _
    | Message.Write_r _ | Message.Modify_r _ ->
        None

let handle t ~src ~ctx (msg : Message.t) : Message.t option =
  ignore src;
  if not (Brick.is_alive t.brick) then begin
    (* Delivered to a crashed process: dropped on the floor, but the
       wire carried it — account it under net.drops.dead. *)
    Quorum.Rpc.count_dead_drop t.cfg.Config.rpc;
    None
  end
  else dispatch t ctx msg

let create cfg ~brick =
  let t = { cfg; brick; states = Hashtbl.create 64; gc_removed = 0 } in
  Quorum.Rpc.serve cfg.Config.rpc ~addr:(Brick.id brick)
    (fun ~src ~ctx msg -> handle t ~src ~ctx msg);
  t

let ord_ts t ~stripe =
  match Hashtbl.find_opt t.states stripe with
  | Some st -> st.ord_ts
  | None -> Ts.low

let log t ~stripe =
  Option.map (fun st -> st.log) (Hashtbl.find_opt t.states stripe)

let stripes t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.states [] |> List.sort compare

let gc_removed t = t.gc_removed
