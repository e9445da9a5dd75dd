type stats = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable aborts : int;
  mutable unavailable : int;
  latency : Metrics.Hist.t;
}

let fresh_stats () =
  {
    ops = 0;
    reads = 0;
    writes = 0;
    aborts = 0;
    unavailable = 0;
    latency = Metrics.Hist.create ();
  }

let spawn volume ~coord ~gen ~ops ?(payload_tag = 'w') stats =
  let rt = (Fab.Volume.cluster volume).Core.Cluster.runtime in
  let block_size = Fab.Volume.block_size volume in
  let seq = ref 0 in
  let payload count =
    incr seq;
    let b = Bytes.make (count * block_size) payload_tag in
    (* Stamp each block so distinct writes carry distinct values. *)
    for i = 0 to count - 1 do
      let stamp = Printf.sprintf "%d:%d:%d:%d" coord !seq count i in
      Bytes.blit_string stamp 0 b (i * block_size)
        (min (String.length stamp) block_size)
    done;
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
              Result.map ignore
                (Fab.Volume.read volume ~coord ~lba:op.Gen.lba
                   ~count:op.Gen.count)
          | `Write ->
              stats.writes <- stats.writes + 1;
              Fab.Volume.write volume ~coord ~lba:op.Gen.lba
                (payload op.Gen.count)
        in
        stats.ops <- stats.ops + 1;
        (match outcome with
        | Ok () -> ()
        | Error `Aborted -> stats.aborts <- stats.aborts + 1
        | Error `Unavailable -> stats.unavailable <- stats.unavailable + 1);
        let elapsed = Runtime.now rt -. started in
        if elapsed >= 0. then Metrics.Hist.add stats.latency elapsed
      done)

let sum stats =
  let t = fresh_stats () in
  Array.iter
    (fun s ->
      t.ops <- t.ops + s.ops;
      t.reads <- t.reads + s.reads;
      t.writes <- t.writes + s.writes;
      t.aborts <- t.aborts + s.aborts;
      t.unavailable <- t.unavailable + s.unavailable;
      Metrics.Hist.merge_into ~dst:t.latency s.latency)
    stats;
  t
