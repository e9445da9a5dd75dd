type stats = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable aborts : int;
  mutable unavailable : int;
  mutable blocks_moved : int;
  latency : Metrics.Hist.t;
}

let fresh_stats () =
  {
    ops = 0;
    reads = 0;
    writes = 0;
    aborts = 0;
    unavailable = 0;
    blocks_moved = 0;
    latency = Metrics.Hist.create ();
  }

let spawn volume ~coord ~gen ~ops ?(think_time = 0.) ?(payload_tag = 'w')
    stats =
  let rt = (Fab.Volume.cluster volume).Core.Cluster.runtime in
  let block_size = Fab.Volume.block_size volume in
  let seq = ref 0 in
  let payload count =
    incr seq;
    let b = Bytes.make (count * block_size) payload_tag in
    (* Stamp each block so distinct writes carry distinct values. *)
    let stamp = Printf.sprintf "%d:%d:%d" coord !seq count in
    Bytes.blit_string stamp 0 b 0 (min (String.length stamp) (Bytes.length b));
    b
  in
  Runtime.spawn rt (fun () ->
      for _ = 1 to ops do
        let op = Gen.next gen in
        let started = Runtime.now rt in
        let outcome =
          match op.Gen.kind with
          | `Read ->
              stats.reads <- stats.reads + 1;
              (match
                 Fab.Volume.read volume ~coord ~lba:op.Gen.lba
                   ~count:op.Gen.count
               with
              | Ok _ -> `Ok
              | Error `Aborted -> `Aborted
              | Error `Unavailable -> `Unavailable)
          | `Write ->
              stats.writes <- stats.writes + 1;
              (match
                 Fab.Volume.write volume ~coord ~lba:op.Gen.lba
                   (payload op.Gen.count)
               with
              | Ok () -> `Ok
              | Error `Aborted -> `Aborted
              | Error `Unavailable -> `Unavailable)
        in
        stats.ops <- stats.ops + 1;
        (match outcome with
        | `Ok -> stats.blocks_moved <- stats.blocks_moved + op.Gen.count
        | `Aborted -> stats.aborts <- stats.aborts + 1
        | `Unavailable -> stats.unavailable <- stats.unavailable + 1);
        let elapsed = Runtime.now rt -. started in
        if elapsed >= 0. then Metrics.Hist.add stats.latency elapsed;
        if think_time > 0. then Runtime.sleep rt think_time
      done)

let throughput stats ~elapsed =
  if elapsed <= 0. then 0. else float_of_int stats.ops /. elapsed

let abort_rate stats =
  if stats.ops = 0 then 0. else float_of_int stats.aborts /. float_of_int stats.ops
