module Ts = Timestamp
module Addrs = Set.Make (Int)
module Stripes = Map.Make (Int)

type t = {
  cfg : Config.t;
  brick : Brick.t;
  clock : Clock.t;
  mutable retry_hint : bool;
  cache : Ts.t Stripes.t Atomic.t;
      (* The timestamp cache (DESIGN 4d): stripe -> the newest
         timestamp this coordinator stored to it with a full quorum and
         no foreign timestamp in sight. Immutable behind one atomic,
         like [suspects]. *)
  suspects : Addrs.t Atomic.t;
      (* Members that missed a call they were targeted by and have not
         replied to this coordinator since. An immutable set behind one
         atomic: the common empty case costs a single load, and
         coordinator tasks on several domains update it by CAS. *)
  retargets : Metrics.Counter.t;  (* "coord.retargets" *)
  suspicions : Metrics.Counter.t;  (* "coord.suspects" *)
}

type 'a outcome = ('a, [ `Aborted | `Unavailable ]) result

(* Bound the cache so a coordinator sweeping a huge volume cannot
   retain an entry per stripe; flushing everything on overflow is
   crude but keeps the common sequential-locality case warm. *)
let cache_capacity = 1024

let create cfg ~brick ~clock =
  let counter = Metrics.Registry.counter cfg.Config.metrics in
  let t =
    {
      cfg;
      brick;
      clock;
      retry_hint = false;
      cache = Atomic.make Stripes.empty;
      suspects = Atomic.make Addrs.empty;
      retargets = counter "coord.retargets";
      suspicions = counter "coord.suspects";
    }
  in
  (* A crashed coordinator loses its cache and its suspicions: after
     recovery it must not elide order rounds based on pre-crash
     commits, nor route around bricks it last saw before the crash.
     Brick.crash clears the hook table before running hooks, so the
     hook re-registers itself to stay armed across repeated
     crash/recover cycles. *)
  let rec hook () =
    Atomic.set t.cache Stripes.empty;
    Atomic.set t.suspects Addrs.empty;
    ignore (Brick.add_crash_hook brick hook)
  in
  ignore (Brick.add_crash_hook brick hook);
  t

(* The order round may only be elided on stripes where a partial
   unordered write is guaranteed visible to every later quorum that
   could roll it back or miss it: with m > f, any m blocks of a
   version reach every quorum's intersection, so the write is either
   rolled forward or permanently shadowed — never resurrected after a
   read returned the old value (the strict-linearizability trap of
   Figure 5). Geometries with m <= f (e.g. 1-of-3 replication) keep
   the 2-round path unconditionally. *)
let elision_on t ~stripe =
  Config.m t.cfg ~stripe > Config.fault_bound t.cfg ~stripe

let cache_find t ~stripe =
  if elision_on t ~stripe then Stripes.find_opt stripe (Atomic.get t.cache)
  else None

(* Apply [f] to the cache by CAS; [f] returns its argument unchanged
   when there is nothing to do, which skips the write. *)
let rec cache_update t f =
  let c = Atomic.get t.cache in
  let c' = f c in
  if c' != c && not (Atomic.compare_and_set t.cache c c') then
    cache_update t f

let cache_invalidate t ~stripe = cache_update t (Stripes.remove stripe)

let cache_put t ~stripe ts =
  if elision_on t ~stripe then
    cache_update t (fun c ->
        let full =
          (not (Stripes.mem stripe c)) && Stripes.cardinal c >= cache_capacity
        in
        Stripes.add stripe ts (if full then Stripes.empty else c))

(* Any reply showing a timestamp above the cached one — other than the
   round's own proposal, which timestamp uniqueness (time, pid) makes
   unmistakable — is foreign activity on the stripe (another
   coordinator ordered or wrote): the entry no longer describes the
   newest version, so the next write must pay the order round again. *)
let reply_cur_ts = function
  | Message.Read_r { cur_ts; _ }
  | Message.Order_r { cur_ts; _ }
  | Message.Order_read_r { cur_ts; _ }
  | Message.Write_r { cur_ts; _ }
  | Message.Modify_r { cur_ts; _ } ->
      Some cur_ts
  | _ -> None

let cache_observe t ~stripe ~proposed replies =
  match Stripes.find_opt stripe (Atomic.get t.cache) with
  | None -> ()
  | Some cts ->
      if
        List.exists
          (fun (_, r) ->
            match reply_cur_ts r with
            | Some cur -> Ts.( > ) cur cts && not (Ts.equal cur proposed)
            | None -> false)
          replies
      then cache_invalidate t ~stripe

(* True when some reply saw a timestamp above our own proposal [ts]:
   a concurrent coordinator is past us already, so a commit at [ts]
   must not warm the cache. *)
let foreign_above replies ts =
  List.exists
    (fun (_, r) ->
      match reply_cur_ts r with
      | Some cur -> Ts.( > ) cur ts
      | None -> false)
    replies

let hint_retry t = t.retry_hint <- true

let emit_span t ~op kind =
  Obs.emit t.cfg.Config.obs
    {
      Obs.time = Runtime.now t.cfg.Config.runtime;
      actor = Obs.Coord (Brick.id t.brick);
      op;
      phase = None;
      kind;
    }

(* Wrap an operation with an observability span. The op id is threaded
   into every quorum round so replica- and network-side events are
   attributed to it. The retry hint is consumed here, synchronously at
   entry (no suspension point in between), so an abort whose caller
   will retry it is reported as [Retry] rather than [Abort].

   The operation's absolute deadline is computed here — config.deadline
   sim-time units from the span opening — and threaded through every
   quorum round; a round that overruns it raises
   [Quorum.Rpc.Unavailable], which surfaces as the [`Unavailable]
   outcome. The timestamp cache is invalidated on the way out: a
   deadline expiry leaves the rounds' effects unknown, so the next
   write must pay the order round. *)
let traced t ~stripe name f =
  let obs = t.cfg.Config.obs in
  let op = Obs.next_op obs in
  let dl =
    match t.cfg.Config.deadline with
    | None -> None
    | Some d -> Some (Runtime.now t.cfg.Config.runtime +. d)
  in
  let will_retry = t.retry_hint in
  t.retry_hint <- false;
  let run () =
    try f op dl
    with Quorum.Rpc.Unavailable ->
      cache_invalidate t ~stripe;
      Error `Unavailable
  in
  if not (Obs.enabled obs) then run ()
  else begin
    emit_span t ~op (Obs.Span_start { op_kind = name; stripe });
    let result = run () in
    let outcome =
      match result with
      | Ok _ -> Obs.Ok
      | Error `Unavailable -> Obs.Unavailable
      | Error `Aborted -> if will_retry then Obs.Retry else Obs.Abort
    in
    emit_span t ~op (Obs.Span_end { op_kind = name; stripe; outcome });
    result
  end

let brick t = t.brick
let clock t = t.clock

(* Fold every reply's cur_ts into the coordinator's clock so that a
   retry after an abort proposes a fresh-enough timestamp. *)
let observe_replies t replies =
  List.iter
    (fun (_, reply) ->
      match reply with
      | Message.Read_r { cur_ts; _ }
      | Message.Order_r { cur_ts; _ }
      | Message.Order_read_r { cur_ts; _ }
      | Message.Write_r { cur_ts; _ }
      | Message.Modify_r { cur_ts; _ } ->
          Clock.observe t.clock cur_ts
      | _ -> ())
    replies

let emit_phase t ~op ~phase kind =
  Obs.emit t.cfg.Config.obs
    {
      Obs.time = Runtime.now t.cfg.Config.runtime;
      actor = Obs.Coord (Brick.id t.brick);
      op;
      phase = Some phase;
      kind;
    }

(* ------------------------------------------------------------------ *)
(* Suspicion: members that just missed a call they were targeted by    *)
(* ------------------------------------------------------------------ *)

let suspected t a = Addrs.mem a (Atomic.get t.suspects)

let suspects t = Addrs.elements (Atomic.get t.suspects)

let rec suspect t a =
  let s = Atomic.get t.suspects in
  if not (Addrs.mem a s) then
    if Atomic.compare_and_set t.suspects s (Addrs.add a s) then
      Metrics.Counter.incr t.suspicions
    else suspect t a

(* A member leaves the set as soon as it appears in any reply. Reads
   are broadcast to every member, so a revived brick clears itself. *)
let rec absolve t replies =
  let s = Atomic.get t.suspects in
  if not (Addrs.is_empty s) then begin
    let s' = List.fold_left (fun acc (a, _) -> Addrs.remove a acc) s replies in
    if s' != s && not (Atomic.compare_and_set t.suspects s s') then
      absolve t replies
  end

(* One quorum round = one protocol phase of the operation's span.
   [proposed] is the round's own timestamp when it carries one, so the
   timestamp cache does not mistake it for foreign activity. *)
let quorum_call ?until ?(proposed = Ts.low) t ~stripe ~op ~dl ~phase make_req =
  let members = Config.members t.cfg ~stripe in
  let observing = Obs.enabled t.cfg.Config.obs in
  if observing then emit_phase t ~op ~phase Obs.Phase_start;
  let replies =
    try
      Quorum.Rpc.call t.cfg.Config.rpc ~coord:t.brick ~members
        ~quorum:(Config.quorum_size t.cfg ~stripe) ?until
        ~ctx:(Obs.ctx ~phase op) ?deadline:dl make_req
    with Quorum.Rpc.Unavailable as e ->
      (* Close the phase span before the deadline expiry unwinds the
         operation, so traces stay well-formed. *)
      if observing then emit_phase t ~op ~phase Obs.Phase_end;
      raise e
  in
  if observing then emit_phase t ~op ~phase Obs.Phase_end;
  observe_replies t replies;
  cache_observe t ~stripe ~proposed replies;
  absolve t replies;
  replies

(* A round addressed at [targets]: it waits for every target (up to
   the RPC grace period past a bare quorum), and suspects each target
   that did not answer. *)
let targeted_call ?proposed t ~stripe ~op ~dl ~phase ~targets make_req =
  let until replies =
    List.for_all (fun a -> List.mem_assoc a replies) targets
  in
  let replies =
    quorum_call ~until ?proposed t ~stripe ~op ~dl ~phase make_req
  in
  List.iter
    (fun a -> if not (List.mem_assoc a replies) then suspect t a)
    targets;
  replies

(* Record that the operation routes around suspected member [a]: a
   read re-targeted at other members, or a block write sent straight
   to the slow path. *)
let emit_retarget t ~op a =
  if Obs.enabled t.cfg.Config.obs then
    Obs.emit t.cfg.Config.obs
      {
        Obs.time = Runtime.now t.cfg.Config.runtime;
        actor = Obs.Coord (Brick.id t.brick);
        op;
        phase = None;
        kind = Obs.Retarget { suspect = a };
      }

(* Mark a protocol phase the operation proved it could skip (an
   elided write-stripe below); `fab_sim explain` counts these per op
   kind. *)
let emit_elided t ~op phase =
  if Obs.enabled t.cfg.Config.obs then emit_phase t ~op ~phase Obs.Phase_elided

let notify_gc t ~stripe ~op ts =
  if t.cfg.Config.gc_enabled then
    Quorum.Rpc.notify t.cfg.Config.rpc ~coord:t.brick
      ~members:(Config.members t.cfg ~stripe)
      ~ctx:(Obs.ctx ~phase:Obs.Gc op)
      (Message.Gc { stripe; before = ts })

(* Pick m distinct random members as read targets, none of them
   suspected; [None] when fewer than m members are not. With nothing
   suspected, this is the paper's draw. *)
let pick_targets t ~stripe =
  let all = Config.members_array t.cfg ~stripe in
  let members =
    if Addrs.is_empty (Atomic.get t.suspects) then Array.copy all
    else Array.of_list (List.filter (fun a -> not (suspected t a)) (Array.to_list all))
  in
  let m = Config.m t.cfg ~stripe in
  let n = Array.length members in
  if n < m then None
  else begin
    let rng = Runtime.rng t.cfg.Config.runtime in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = members.(i) in
      members.(i) <- members.(j);
      members.(j) <- tmp
    done;
    Some (Array.to_list (Array.sub members 0 m))
  end

let pos_of t ~stripe addr =
  match Config.pos_of_addr t.cfg ~stripe addr with
  | Some pos -> pos
  | None -> invalid_arg "Core.Coordinator: reply from non-member"

(* Check the fast-read success conditions shared by read-stripe and
   read-blocks: all statuses true and a single version visible. *)
let unanimous_version replies =
  let statuses_ok =
    List.for_all
      (fun (_, r) ->
        match r with Message.Read_r { status; _ } -> status | _ -> false)
      replies
  in
  if not statuses_ok then None
  else
    match replies with
    | (_, Message.Read_r { val_ts; _ }) :: _
      when List.for_all
             (fun (_, r) ->
               match r with
               | Message.Read_r { val_ts = ts'; _ } -> Ts.equal ts' val_ts
               | _ -> false)
             replies ->
        Some val_ts
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Algorithm 1: stripe access                                          *)
(* ------------------------------------------------------------------ *)

let all_status_true replies =
  List.for_all
    (fun (_, r) ->
      match r with
      | Message.Order_r { status; _ }
      | Message.Order_read_r { status; _ }
      | Message.Write_r { status; _ }
      | Message.Modify_r { status; _ } ->
          status
      | _ -> false)
    replies

(* store-stripe (lines 34-37): each member receives only its own
   encoded block. Data blocks are shipped by reference (the same
   convention the fast write path uses for the caller's block): callers
   hand ownership of [data] to the store. Parity blocks are freshly
   allocated per operation because replica logs retain what they are
   sent; only the m data-block copies of the old encode are saved. *)
let store_stripe t ~stripe ~op ~dl data ts =
  let codec = Config.codec t.cfg ~stripe in
  let cm = Erasure.Codec.m codec and cn = Erasure.Codec.n codec in
  let len = Bytes.length data.(0) in
  let enc =
    Array.init cn (fun i -> if i < cm then data.(i) else Bytes.create len)
  in
  Erasure.Codec.encode_into codec data ~into:enc;
  let replies =
    quorum_call ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Write (fun dst ->
        Message.Write { stripe; block = enc.(pos_of t ~stripe dst); ts })
  in
  if all_status_true replies then begin
    notify_gc t ~stripe ~op ts;
    (* A full-quorum stripe store warms the cache — unless some member
       already saw a higher (foreign) timestamp, in which case the
       entry would be born stale. *)
    if foreign_above replies ts then cache_invalidate t ~stripe
    else cache_put t ~stripe ts;
    Ok ()
  end
  else begin
    cache_invalidate t ~stripe;
    Error `Aborted
  end

(* read-prev-stripe (lines 24-33): walk versions newest-first until one
   has at least m surviving blocks. *)
let read_prev_stripe t ~stripe ~op ~dl ts =
  let rec loop max =
    let replies =
      quorum_call ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Recover (fun _ ->
          Message.Order_read { stripe; target = Message.All; max; ts })
    in
    if not (all_status_true replies) then Error `Aborted
    else begin
      let infos =
        List.filter_map
          (fun (src, r) ->
            match r with
            | Message.Order_read_r { lts; block; _ } ->
                Some (src, lts, block)
            | _ -> None)
          replies
      in
      let max' =
        List.fold_left (fun acc (_, lts, _) -> Ts.max acc lts) Ts.low infos
      in
      let blocks =
        List.filter_map
          (fun (src, lts, block) ->
            match block with
            | Some b when Ts.equal lts max' -> Some (pos_of t ~stripe src, b)
            | _ -> None)
          infos
      in
      if List.length blocks >= Config.m t.cfg ~stripe then
        Ok
          ( max',
            Erasure.Codec.decode
              (Config.codec t.cfg ~stripe)
              (List.filteri (fun i _ -> i < Config.m t.cfg ~stripe) blocks) )
      else if Ts.equal max' Ts.low then
        (* Nothing older remains anywhere in this quorum, yet no
           version had m blocks. Unreachable in well-formed histories
           (every quorum sees at least the initial nil version, and a
           complete write is visible in every quorum); abort
           defensively rather than loop forever. *)
        Error `Aborted
      else loop max'
    end
  in
  loop Ts.high

(* recover (lines 17-23). *)
let recover_with t ~stripe ~op ~dl ~patch =
  let ts = Clock.new_ts t.clock in
  match read_prev_stripe t ~stripe ~op ~dl ts with
  | Error `Aborted -> Error `Aborted
  | Ok (_, data) -> (
      patch data;
      match store_stripe t ~stripe ~op ~dl data ts with
      | Ok () -> Ok data
      | Error `Aborted -> Error `Aborted)

let recover t ~stripe =
  traced t ~stripe "recover" (fun op dl ->
      recover_with t ~stripe ~op ~dl ~patch:ignore)

(* The outcome of one Read round asking [targets] for their blocks. *)
type read_round =
  | Blocks of (int * Bytes.t) list
      (* Every reply status-true at one version — the fast-read
         condition — and every target's block, as (position, block) in
         target order. *)
  | Silent of (int * Message.t) list
      (* The replies agree as above, but some target did not answer. *)
  | Mixed  (* A refused status or two versions: a partial write. *)

let read_round t ~stripe ~op ~dl targets =
  let replies =
    targeted_call t ~stripe ~op ~dl ~phase:Obs.Fast_read ~targets (fun _ ->
        Message.Read { stripe; targets })
  in
  match unanimous_version replies with
  | None -> Mixed
  | Some _ ->
      if not (List.for_all (fun a -> List.mem_assoc a replies) targets) then
        Silent replies
      else
        let blocks =
          List.filter_map
            (fun a ->
              match List.assoc a replies with
              | Message.Read_r { block = Some b; _ } -> Some (pos_of t ~stripe a, b)
              | _ -> None)
            targets
        in
        if List.length blocks = List.length targets then Blocks blocks
        else Mixed

(* The degraded read (DESIGN 2, deviation 4): re-issue the Read at the first m
   members, in position order, that satisfy [ok] and are not
   suspected, and decode the stripe from their blocks. Safe by the
   fast-read-stripe argument — its own round must again show every
   status true at one version, and any m blocks of that version decode
   to it — so nothing is written. Position order prefers data members,
   whose blocks the decode copies, and keeps one decode plan per
   suspect set. [None] when fewer than m such members exist or the
   round fails that check. [avoid] names the members the read routes
   around, for the trace. *)
let degraded_read t ~stripe ~op ~dl ~avoid ~ok =
  let m = Config.m t.cfg ~stripe in
  let live =
    List.filter (fun a -> ok a && not (suspected t a)) (Config.members t.cfg ~stripe)
  in
  if List.length live < m then None
  else begin
    Metrics.Counter.incr t.retargets;
    List.iter (emit_retarget t ~op) avoid;
    match read_round t ~stripe ~op ~dl (List.filteri (fun i _ -> i < m) live) with
    | Blocks blocks ->
        Some (Erasure.Codec.decode (Config.codec t.cfg ~stripe) blocks)
    | Silent _ | Mixed -> None
  end

(* True when one of [addrs] is suspected; one load while none is. *)
let routes_around t addrs =
  let s = Atomic.get t.suspects in
  (not (Addrs.is_empty s)) && List.exists (fun a -> Addrs.mem a s) addrs

(* read-stripe (lines 1-11). Its m targets are random and never
   suspected; a target that misses the round becomes suspected, and
   this read still recovers, as the paper's does. *)
let read_stripe t ~stripe =
  traced t ~stripe "read-stripe" (fun op dl ->
      match pick_targets t ~stripe with
      | None -> recover t ~stripe
      | Some targets -> (
          match read_round t ~stripe ~op ~dl targets with
          | Blocks blocks ->
              Ok (Erasure.Codec.decode (Config.codec t.cfg ~stripe) blocks)
          | Silent _ | Mixed -> recover t ~stripe))

let check_stripe_shape t ~stripe data =
  if Array.length data <> Config.m t.cfg ~stripe then
    invalid_arg "Core.Coordinator.write_stripe: wrong block count";
  Array.iter
    (fun b ->
      if Bytes.length b <> t.cfg.Config.block_size then
        invalid_arg "Core.Coordinator.write_stripe: wrong block size")
    data

(* write-stripe (lines 12-16), with the order round elided when the
   coordinator's last full-quorum stripe store is cached and no foreign
   activity has been observed since (DESIGN 4d). The elided
   write is safe regardless of cache staleness: replicas accept an
   unordered write only at a timestamp above everything they logged or
   promised, so it either commits like an ordered one or is refused —
   and a refusal falls back to the full 2-round path below. *)
let write_stripe t ~stripe data =
  check_stripe_shape t ~stripe data;
  traced t ~stripe "write-stripe" (fun op dl ->
      let cold ts =
        let replies =
          quorum_call ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Order (fun _ ->
              Message.Order { stripe; ts })
        in
        if not (all_status_true replies) then begin
          cache_invalidate t ~stripe;
          Error `Aborted
        end
        else store_stripe t ~stripe ~op ~dl data ts
      in
      let ts = Clock.new_ts t.clock in
      match cache_find t ~stripe with
      | Some cts when Ts.( > ) ts cts -> (
          emit_elided t ~op Obs.Order;
          match store_stripe t ~stripe ~op ~dl data ts with
          | Ok () -> Ok ()
          | Error `Aborted ->
              (* The elided write lost a race; the entry is already
                 invalidated, pay the two rounds once — at the same
                 timestamp. Members may already log the refused
                 store, and a recovery may have rolled it forward and
                 a newer write superseded it since: a fresh, higher
                 timestamp would resurrect it over that write. *)
              cold ts)
      | Some _ | None -> cold ts)

(* ------------------------------------------------------------------ *)
(* Algorithm 3: block access, over a contiguous range of data blocks   *)
(* (footnote 2); a single block is a range of length 1                 *)
(* ------------------------------------------------------------------ *)

let check_range t ~stripe j0 len =
  if len < 1 || j0 < 0 || j0 + len > Config.m t.cfg ~stripe then
    invalid_arg
      (if len = 1 then "Core.Coordinator: block index out of range"
       else "Core.Coordinator: block range out of bounds")

let range_addrs t ~stripe j0 len =
  let layout = Config.members_array t.cfg ~stripe in
  List.init len (fun i -> layout.(j0 + i))

(* read-block (lines 61-69): the fast path asks the range's members
   for their blocks. A read whose target is suspected, or stays silent
   while the other replies agree, takes the degraded read instead and
   projects the decoded stripe. Section 4 recovery, which writes the
   stripe back, runs only when a round shows a refused status or two
   versions. *)
let read_blocks t ~stripe j0 ~len =
  check_range t ~stripe j0 len;
  if len = Config.m t.cfg ~stripe then read_stripe t ~stripe
  else
    traced t ~stripe "read-blocks" @@ fun op dl ->
    let targets = range_addrs t ~stripe j0 len in
    let of_stripe data = Array.sub data j0 len in
    let recovered () = Result.map of_stripe (recover t ~stripe) in
    let degraded ~avoid ~ok =
      match degraded_read t ~stripe ~op ~dl ~avoid ~ok with
      | Some data -> Ok (of_stripe data)
      | None -> recovered ()
    in
    if routes_around t targets then
      degraded ~avoid:(List.filter (suspected t) targets) ~ok:(fun _ -> true)
    else
      match read_round t ~stripe ~op ~dl targets with
      | Blocks blocks -> Ok (Array.of_list (List.map snd blocks))
      | Silent replies ->
          degraded
            ~avoid:
              (List.filter (fun a -> not (List.mem_assoc a replies)) targets)
            ~ok:(fun a -> List.mem_assoc a replies)
      | Mixed -> recovered ()

(* Build the per-destination request of a Modify round writing the
   range from [j0] := [news] against old contents [olds] at basis
   version [tsj]. Every member gets the same [Patch] (the paper's
   Modify), unless [optimized_modify] (section 5.2): then an in-range
   data member gets its new block, a parity member the folded change
   Σ c_{p,i}·(old_i ⊕ new_i) of its own row, and any other member no
   payload. The folds are built once per operation, straight from the
   old and new blocks, and shared by retransmissions: replicas fold
   them without mutating them. *)
let modify_req t ~stripe j0 ~olds news ~tsj ts =
  let payload_of =
    if not t.cfg.Config.optimized_modify then
      let patch = Message.Patch { olds; news } in
      fun _ -> patch
    else begin
      let m = Config.m t.cfg ~stripe and len = Array.length news in
      let codec = Config.codec t.cfg ~stripe in
      let blen = t.cfg.Config.block_size in
      let folds =
        Array.init (Erasure.Codec.n codec - m) (fun parity_idx ->
            let fold = Bytes.make blen '\000' in
            Erasure.Codec.fold_into codec ~parity_idx ~j0 ~olds ~news
              ~parity:fold;
            Message.Fold fold)
      in
      fun dst ->
        let pos = pos_of t ~stripe dst in
        if pos >= m then folds.(pos - m)
        else if pos >= j0 && pos < j0 + len then Message.Block news.(pos - j0)
        else Message.Marker
    end
  in
  fun dst -> Message.Modify { stripe; j0; payload = payload_of dst; tsj; ts }

(* Commit bookkeeping of a modify round. A commit leaves the cache as
   it is: only full-stripe stores add entries. *)
let finish_modify t ~stripe ~op ts replies =
  if all_status_true replies then begin
    notify_gc t ~stripe ~op ts;
    Ok ()
  end
  else begin
    cache_invalidate t ~stripe;
    Error `Aborted
  end

(* fast-write-block (lines 74-82): one Order&Read round fetching the
   range's current blocks, then one Modify round that updates the
   range and folds every change into each parity block. The range's
   blocks must all be at the same version timestamp; mixed versions
   (e.g. after an interleaved write of part of the range) take the
   slow path. A range whose addressed members include a suspected one
   skips the fast path: its Order&Read could not complete before the
   grace wait, and the caller's slow path at the same timestamp (basis
   [None]: no Modify ran) needs no reply from them. *)
let fast_write_blocks t ~stripe ~op ~dl j0 news ts =
  let len = Array.length news in
  let targets = range_addrs t ~stripe j0 len in
  if routes_around t targets then begin
    List.iter (fun a -> if suspected t a then emit_retarget t ~op a) targets;
    None
  end
  else
  let replies =
    targeted_call ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Order ~targets
      (fun _ ->
        Message.Order_read
          { stripe; target = Message.Addrs targets; max = Ts.high; ts })
  in
  if not (all_status_true replies) then None
  else begin
    let infos =
      List.map
        (fun a ->
          match List.assoc_opt a replies with
          | Some (Message.Order_read_r { lts; block = Some b; _ }) ->
              Some (lts, b)
          | _ -> None)
        targets
    in
    if not (List.for_all Option.is_some infos) then None
    else
      let infos = List.map Option.get infos in
      let tsj = fst (List.hd infos) in
      if not (List.for_all (fun (l, _) -> Ts.equal l tsj) infos) then None
      else begin
        let olds = Array.of_list (List.map snd infos) in
        let replies =
          quorum_call ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Modify
            (modify_req t ~stripe j0 ~olds news ~tsj ts)
        in
        Some (finish_modify t ~stripe ~op ts replies, tsj)
      end
  end

(* Reconstruct the newest stripe version below [ts] for a slow write
   at [ts]. After a failed Modify round at the same [ts] ([basis] is
   [Some] of that round's basis version), some members may already log
   the Modify's entry at [ts], and a slow store whose acks miss them
   completes beside it. So the slow path may only store at [ts] what
   the Modify stored — a patch of the same basis — or one timestamp
   would name two stripe contents and a read could decode a mix of
   them. Any other version aborts instead; the Modify then stays a
   partial write. *)
let read_basis t ~stripe ~op ~dl ~basis ts =
  match (read_prev_stripe t ~stripe ~op ~dl ts, basis) with
  | Ok (version, _), Some b when not (Ts.equal b version) ->
      cache_invalidate t ~stripe;
      Error `Aborted
  | Ok (_, data), _ -> Ok data
  | (Error `Aborted as e), _ -> e

(* slow-write-block (lines 83-87): reconstruct, patch the range, store. *)
let slow_write_blocks t ~stripe ~op ~dl ~basis j0 news ts =
  match read_basis t ~stripe ~op ~dl ~basis ts with
  | Error `Aborted -> Error `Aborted
  | Ok data ->
      Array.iteri (fun i b -> data.(j0 + i) <- b) news;
      store_stripe t ~stripe ~op ~dl data ts

(* write-block (lines 70-73). Per the paper, any fast-path failure
   falls back to the slow path with the same timestamp. If the fast
   path's Modify partially applied, replicas that logged it refuse the
   slow path's messages — and if the slow store completes without
   them, it stored what they did ([read_basis]); the partial write is
   otherwise rolled forward or back by the next read. *)
let write_blocks t ~stripe j0 news =
  let len = Array.length news in
  check_range t ~stripe j0 len;
  Array.iter
    (fun b ->
      if Bytes.length b <> t.cfg.Config.block_size then
        invalid_arg "Core.Coordinator: wrong block size")
    news;
  if len = Config.m t.cfg ~stripe then write_stripe t ~stripe news
  else
    traced t ~stripe "write-blocks" @@ fun op dl ->
    let ts = Clock.new_ts t.clock in
    let slow basis = slow_write_blocks t ~stripe ~op ~dl ~basis j0 news ts in
    match fast_write_blocks t ~stripe ~op ~dl j0 news ts with
    | Some (Ok (), _) -> Ok ()
    | Some (Error `Aborted, tsj) -> slow (Some tsj)
    | None -> slow None

(* ------------------------------------------------------------------ *)
(* Scrubbing: detect and repair silent block corruption               *)
(* ------------------------------------------------------------------ *)

(* All m-subsets of positions [0, k). *)
let rec subsets k lo n =
  if k = 0 then [ [] ]
  else if lo >= n then []
  else
    List.map (fun s -> lo :: s) (subsets (k - 1) (lo + 1) n)
    @ subsets k (lo + 1) n

let scrub t ~stripe =
  traced t ~stripe "scrub" @@ fun op dl ->
  let m = Config.m t.cfg ~stripe in
  let members = Config.members t.cfg ~stripe in
  let ts = Clock.new_ts t.clock in
  let until replies = List.length replies = List.length members in
  let replies =
    quorum_call ~until ~proposed:ts t ~stripe ~op ~dl ~phase:Obs.Recover
      (fun _ ->
        Message.Order_read { stripe; target = Message.All; max = Ts.high; ts })
  in
  if not (all_status_true replies) then Error `Aborted
  else begin
    let infos =
      List.filter_map
        (fun (src, r) ->
          match r with
          | Message.Order_read_r { lts; block = Some b; _ } ->
              Some (pos_of t ~stripe src, lts, b)
          | _ -> None)
        replies
    in
    let version =
      List.fold_left (fun acc (_, lts, _) -> Ts.max acc lts) Ts.low infos
    in
    let current =
      List.filter_map
        (fun (pos, lts, b) -> if Ts.equal lts version then Some (pos, b) else None)
        infos
    in
    if List.length current < m then Error `Aborted
    else begin
      let codec = Config.codec t.cfg ~stripe in
      (* Find the decoding subset whose codeword disagrees with the
         fewest collected blocks; the disagreeing blocks are the
         corrupted ones. Sound for up to (n - m) / 2 corruptions (the
         Reed-Solomon error-correction bound): the clean codeword then
         has strictly fewer mismatches than any other. Candidate
         decode/encode runs on buffers allocated once per call and
         reused across all C(k, m) subsets; only the winning codeword
         is decoded into fresh blocks for the write-back. *)
      let arr = Array.of_list current in
      let len = Bytes.length (snd (List.hd current)) in
      let cand_data = Array.init m (fun _ -> Bytes.create len) in
      let cand_enc =
        Array.init (Erasure.Codec.n codec) (fun i ->
            if i < m then cand_data.(i) else Bytes.create len)
      in
      let best = ref None in
      List.iter
        (fun subset ->
          let blocks = List.map (fun i -> arr.(i)) subset in
          Erasure.Codec.decode_into codec blocks ~into:cand_data;
          Erasure.Codec.encode_into codec cand_data ~into:cand_enc;
          let mismatches =
            List.filter_map
              (fun (pos, b) ->
                if Bytes.equal b cand_enc.(pos) then None else Some pos)
              current
          in
          match !best with
          | Some (_, prev) when List.length prev <= List.length mismatches -> ()
          | _ -> best := Some (blocks, mismatches))
        (subsets m 0 (Array.length arr));
      match !best with
      | None -> Error `Aborted
      | Some (blocks, corrupted) ->
          (* Rewrite the whole stripe from the consistent codeword (a
             cheap no-op write-back when nothing was corrupted: it
             releases the ordering we took so future operations see a
             consistent ord-ts/log pair). *)
          let data = Erasure.Codec.decode codec blocks in
          Result.map
            (fun () -> List.sort compare corrupted)
            (store_stripe t ~stripe ~op ~dl data ts)
    end
  end

let with_retries ?(attempts = 3) t f =
  if attempts < 1 then invalid_arg "Core.Coordinator.with_retries: attempts < 1";
  let rec go left =
    (* Flag the attempt as retryable before running it, so the span it
       opens can report [Retry] instead of [Abort] if it fails. *)
    if left > 1 then hint_retry t;
    match f () with
    | Ok v -> Ok v
    | Error `Aborted when left > 1 -> go (left - 1)
    | Error `Aborted -> Error `Aborted
    (* A deadline expiry means the quorum is presumed unreachable;
       retrying immediately would just burn the next deadline too. *)
    | Error `Unavailable -> Error `Unavailable
  in
  go attempts
