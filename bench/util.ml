(* Shared helpers for the experiment harness: cost measurement around
   a single operation, and table rendering. *)

module Cluster = Core.Cluster

type costs = {
  latency : float;  (* in units of delta *)
  msgs : float;
  disk_reads : float;
  disk_writes : float;
  bytes : float;  (* in units of B (one block) *)
}

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '-')

(* Measure one register operation end to end. *)
let measure_op ?(coord = 0) (cl : Cluster.t) f =
  let before = Cluster.snapshot cl in
  let latency = ref nan in
  let outcome = ref `Incomplete in
  Cluster.spawn ~coord cl (fun c ->
      let t0 = Runtime.now cl.Cluster.runtime in
      (match f c with
      | Ok _ -> outcome := `Ok
      | Error (`Aborted | `Unavailable) -> outcome := `Aborted);
      latency := Runtime.now cl.Cluster.runtime -. t0);
  Cluster.run cl;
  let after = Cluster.snapshot cl in
  let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
  let block_size = float_of_int cl.Cluster.cfg.Core.Config.block_size in
  ( !outcome,
    {
      latency = !latency;
      msgs = d "net.msgs";
      disk_reads = d "disk.reads";
      disk_writes = d "disk.writes";
      bytes = d "net.bytes" /. block_size;
    } )

(* Attach a fresh per-op aggregator to the cluster's observability hub.
   The first attachment enables tracing for the cluster; each aggregator
   only sees events emitted after its own attachment, so calling this
   right before a measured op scopes the aggregator to that op and
   everything after it on the same cluster — filter by op kind when
   printing. Tracing does not perturb measurements: sim-time latencies
   and metrics counters are unchanged by sinks. *)
let observe (cl : Cluster.t) =
  let stats = Obs.Stats.create () in
  Obs.add_sink cl.Cluster.obs (Obs.Stats.sink stats);
  stats

(* Per-phase latency accounting under a table row, one line per op kind
   in [kinds]: "^ write-stripe phases: order 2 + write 2 (= 4 delta)". *)
let phase_line ?(indent = "    ") stats kinds =
  List.iter
    (fun (kind, count, phases) ->
      if List.mem kind kinds && phases <> [] then begin
        let parts =
          List.map
            (fun (p, mean) -> Printf.sprintf "%s %g" (Obs.phase_name p) mean)
            phases
        in
        let total = List.fold_left (fun a (_, mean) -> a +. mean) 0. phases in
        Printf.printf "%s^ %s phases: %s (= %g delta%s)\n" indent kind
          (String.concat " + " parts)
          total
          (if count = 1 then "" else Printf.sprintf " mean over %d ops" count)
      end)
    (Obs.Stats.phase_breakdown stats)

let row_header () =
  Printf.printf "  %-24s | %18s | %18s | %14s | %14s | %18s\n" "operation"
    "latency (delta)" "messages" "disk reads" "disk writes" "net b/w (B)";
  Printf.printf "  %s\n" (String.make 122 '-')

(* Print one row: "paper formula value / measured value" per column. *)
let row name ~paper ~measured =
  let cell p m =
    if Float.is_nan m then Printf.sprintf "%8s /     (na)" p
    else Printf.sprintf "%8s / %8.5g" p m
  in
  let pl, pm, pr, pw, pb = paper in
  Printf.printf "  %-24s | %s | %s | %s | %s | %s\n" name
    (cell pl measured.latency) (cell pm measured.msgs)
    (cell pr measured.disk_reads) (cell pw measured.disk_writes)
    (cell pb measured.bytes)

let stripe_data tag m block_size =
  Array.init m (fun i ->
      Bytes.make block_size (Char.chr ((Char.code tag + i) land 0xff)))
