type t = {
  cluster : Core.Cluster.t;
  m : int;
  stripes : int;
  block_size : int;
  op_retries : int;
  pipeline_window : int;
      (* Bound on concurrently in-flight per-stripe operations of one
         read/write call; 1 recovers strictly serial extent order. *)
  stripe_offset : int;
      (* First global stripe id of this volume; volumes created through
         a Pool share one cluster and own disjoint stripe ranges. *)
}

type 'a outcome = ('a, [ `Aborted | `Unavailable ]) result

let create ?backend ?seed ?net_config ?bricks ?layout ?(block_size = 1024)
    ?optimized_modify ?deadline ?(pipeline_window = 8) ~m ~n ~stripes () =
  if stripes <= 0 then invalid_arg "Fab.Volume.create: stripes <= 0";
  if pipeline_window < 1 then
    invalid_arg "Fab.Volume.create: pipeline_window < 1";
  let cluster =
    Core.Cluster.create ?backend ?seed ?net_config
      ~bricks:(Option.value bricks ~default:n) ~block_size ?optimized_modify
      ?deadline ()
  in
  match Core.Config.add_range cluster.cfg ?layout ~m ~n ~stripes () with
  | stripe_offset ->
      { cluster; m; stripes; block_size; op_retries = 3; pipeline_window;
        stripe_offset }
  | exception e ->
      Core.Cluster.shutdown cluster;
      raise e

(* Used by Fab.Pool: a volume that is a view onto a shared cluster.
   The view's geometry must be the cluster's: a wrong [m] maps LBAs to
   the wrong blocks, a wrong [block_size] fails the first write. *)
let of_cluster ~cluster ~m ~stripes ~block_size ~op_retries
    ?(pipeline_window = 8) ~stripe_offset () =
  if pipeline_window < 1 then
    invalid_arg "Fab.Volume.of_cluster: pipeline_window < 1";
  if stripes <= 0 then invalid_arg "Fab.Volume.of_cluster: stripes <= 0";
  let cfg = cluster.Core.Cluster.cfg in
  let last = stripe_offset + stripes - 1 in
  if
    m <> Core.Config.m cfg ~stripe:stripe_offset
    || m <> Core.Config.m cfg ~stripe:last
  then invalid_arg "Fab.Volume.of_cluster: m differs from the cluster's";
  if block_size <> cfg.Core.Config.block_size then
    invalid_arg "Fab.Volume.of_cluster: block_size differs from the cluster's";
  { cluster; m; stripes; block_size; op_retries; pipeline_window;
    stripe_offset }

let cluster t = t.cluster

let codec t =
  Core.Config.codec t.cluster.Core.Cluster.cfg ~stripe:t.stripe_offset

let capacity_blocks t = t.stripes * t.m
let block_size t = t.block_size
let stripe_offset t = t.stripe_offset

let stripe_of_lba t lba =
  if lba < 0 || lba >= capacity_blocks t then
    invalid_arg "Fab.Volume: logical block address out of range";
  (t.stripe_offset + (lba / t.m), lba mod t.m)

(* Split [lba, lba+count) into per-stripe extents. *)
let extents t ~lba ~count =
  let rec loop acc lba remaining =
    if remaining = 0 then List.rev acc
    else
      let stripe, j = stripe_of_lba t lba in
      let in_stripe = min remaining (t.m - j) in
      loop ((stripe, j, in_stripe) :: acc) (lba + in_stripe)
        (remaining - in_stripe)
  in
  loop [] lba count

let coordinator t coord = t.cluster.Core.Cluster.coordinators.(coord)

(* Every constituent register operation is retried on abort: an
   aborted attempt taught the coordinator's clock the replicas' newest
   timestamps, so a retry lost only to a stale clock succeeds (the
   usual client retry loop of a disk driver).

   Retries are at-least-once, not strictly linearizable: each attempt
   is a fresh protocol write at a new timestamp, and an earlier
   attempt may already have been rolled forward by a concurrent
   reader's recovery. Under write/write contention the retried value
   can therefore become visible, be superseded, and resurface when a
   later attempt commits — exactly the semantics of a SCSI driver
   re-issuing a timed-out write. Callers that need the paper's
   single-operation guarantee (e.g. linearizability harnesses) must
   run with op_retries = 1. *)
let retrying t c f = Core.Coordinator.with_retries ~attempts:t.op_retries c f

(* Block writes need one extra remedy: if a fast-path Modify applied
   at p_j but was refused elsewhere, the paper's same-timestamp slow
   path keeps aborting until some read repairs the stripe (reads roll
   the partial forward or back). Run the recovery procedure between
   attempts so a retried block write always makes progress. *)
let retrying_block_write t c ~stripe f =
  let rec go left =
    if left > 1 then Core.Coordinator.hint_retry c;
    match f () with
    | Ok () -> Ok ()
    | Error `Aborted when left > 1 ->
        ignore (Core.Coordinator.recover c ~stripe);
        go (left - 1)
    | Error `Aborted -> Error `Aborted
    | Error `Unavailable -> Error `Unavailable
  in
  go t.op_retries

(* Dispatch one thunk per extent through the scatter-gather join: each
   extent is an independent register instance, so up to
   [pipeline_window] of them proceed concurrently, each with its own
   retry loop. Every thunk runs to completion (no early abort of
   siblings): an aborted extent must not leave a sibling half-retried,
   and the common case has no aborts at all. Unavailability dominates
   the joined verdict — it tells the caller the deployment, not just
   this request, is in trouble. *)
let scatter t thunks =
  let outcomes =
    Runtime.all t.cluster.Core.Cluster.runtime ~window:t.pipeline_window
      thunks
  in
  if List.exists (fun o -> o = Error `Unavailable) outcomes then
    Error `Unavailable
  else if List.exists Result.is_error outcomes then Error `Aborted
  else Ok ()

let read t ~coord ~lba ~count =
  if count <= 0 then invalid_arg "Fab.Volume.read: count <= 0";
  if lba < 0 || lba + count > capacity_blocks t then
    invalid_arg "Fab.Volume.read: range out of bounds";
  let c = coordinator t coord in
  let out = Bytes.create (count * t.block_size) in
  let offset = ref 0 in
  let thunks =
    List.map
      (fun (stripe, j, len) ->
        let off = !offset in
        offset := off + (len * t.block_size);
        fun () ->
          (* One protocol operation per extent; a full stripe is a
             stripe read. *)
          match
            retrying t c (fun () -> Core.Coordinator.read_blocks c ~stripe j ~len)
          with
          | Ok blocks ->
              Array.iteri
                (fun i b ->
                  Bytes.blit b 0 out (off + (i * t.block_size)) t.block_size)
                blocks;
              Ok ()
          | Error e -> Error e)
      (extents t ~lba ~count)
  in
  Result.map (fun () -> out) (scatter t thunks)

let write t ~coord ~lba data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Fab.Volume.write: length not a positive block multiple";
  let count = len / t.block_size in
  if lba < 0 || lba + count > capacity_blocks t then
    invalid_arg "Fab.Volume.write: range out of bounds";
  let c = coordinator t coord in
  let offset = ref 0 in
  let take_block () =
    let b = Bytes.sub data !offset t.block_size in
    offset := !offset + t.block_size;
    b
  in
  let thunks =
    List.map
      (fun (stripe, j, elen) ->
        (* Slice the payload eagerly, in address order; only the
           protocol rounds run concurrently. One protocol operation per
           extent; a full stripe is a stripe write, which needs no
           recovery between attempts. *)
        let news = Array.init elen (fun _ -> take_block ()) in
        let write () = Core.Coordinator.write_blocks c ~stripe j news in
        if elen = t.m then fun () -> retrying t c write
        else fun () -> retrying_block_write t c ~stripe write)
      (extents t ~lba ~count)
  in
  scatter t thunks

let run ?horizon t = Core.Cluster.run ?horizon t.cluster

let run_op t f =
  let result = ref None in
  Runtime.spawn t.cluster.Core.Cluster.runtime (fun () -> result := Some (f ()));
  run t;
  !result

let scrub t ~coord =
  let c = coordinator t coord in
  let repaired = ref [] in
  let failed = ref None in
  for s = 0 to t.stripes - 1 do
    if !failed = None then begin
      let stripe = t.stripe_offset + s in
      match retrying t c (fun () -> Core.Coordinator.scrub c ~stripe) with
      | Ok [] -> ()
      | Ok positions -> repaired := (s, positions) :: !repaired
      | Error e -> failed := Some e
    end
  done;
  match !failed with
  | Some e -> Error e
  | None -> Ok (List.rev !repaired)

let rebuild_brick t ~brick ~coord =
  let c = coordinator t coord in
  let touched = ref 0 in
  let failed = ref None in
  for s = 0 to t.stripes - 1 do
    let stripe = t.stripe_offset + s in
    if !failed = None then begin
      let members =
        Core.Config.members_array t.cluster.Core.Cluster.cfg ~stripe
      in
      if Array.exists (fun a -> a = brick) members then begin
        incr touched;
        match retrying t c (fun () -> Core.Coordinator.recover c ~stripe) with
        | Ok _ -> ()
        | Error e -> failed := Some e
      end
    end
  done;
  match !failed with Some e -> Error e | None -> Ok !touched
