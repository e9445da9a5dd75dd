(* Experiment T1 — Table 1: per-operation costs of the erasure-coded
   storage register versus the LS97 replicated-register baseline.

   For each operation class the harness constructs the scenario the
   paper's accounting assumes (fast paths on a healthy system, slow
   paths after a replica missed a write or the target brick crashed),
   runs exactly one operation, and prints the paper's formula value
   next to the measured value. *)

module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
open Util

let block_size = 1024

let fresh_cluster ~m ~n = Cluster.create ~m ~n ~block_size ()

let fmt_int i = string_of_int i
let fmt f = Printf.sprintf "%g" f

let run_for ~m ~n =
  let k = n - m in
  subsection
    (Printf.sprintf "m = %d, n = %d (k = %d parity), B = %d bytes" m n k
       block_size);
  row_header ();

  (* --- our algorithm: stripe access --- *)
  let cl = fresh_cluster ~m ~n in
  let data = stripe_data 'A' m block_size in
  let st_w = observe cl in
  let _, w =
    measure_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 data)
  in
  let st_r = observe cl in
  let _, r = measure_op cl (fun c -> Coordinator.read_stripe c ~stripe:0) in
  row "stripe read/F"
    ~paper:("2", fmt_int (2 * n), fmt_int m, "0", fmt_int m)
    ~measured:r;
  phase_line st_r [ "read-stripe" ];
  row "stripe write"
    ~paper:("4", fmt_int (4 * n), "0", fmt_int n, fmt_int n)
    ~measured:w;
  phase_line st_w [ "write-stripe" ];

  (* stripe read/S: one replica missed the last write and rejoined. *)
  let cl = fresh_cluster ~m ~n in
  Cluster.crash cl 0;
  let _ =
    measure_op ~coord:1 cl (fun c ->
        Coordinator.write_stripe c ~stripe:0 (stripe_data 'B' m block_size))
  in
  Cluster.recover cl 0;
  let st_rs = observe cl in
  let _, rs =
    measure_op ~coord:1 cl (fun c -> Coordinator.read_stripe c ~stripe:0)
  in
  row "stripe read/S"
    ~paper:("6", fmt_int (6 * n), fmt_int (n + m), fmt_int n, fmt_int ((2 * n) + m))
    ~measured:rs;
  phase_line st_rs [ "read-stripe"; "recover" ];

  (* --- our algorithm: block access --- *)
  let cl = fresh_cluster ~m ~n in
  let _ =
    measure_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 data)
  in
  let st_rb = observe cl in
  let _, rb =
    measure_op cl (fun c -> Coordinator.read_blocks c ~stripe:0 0 ~len:1)
  in
  row "block read/F" ~paper:("2", fmt_int (2 * n), "1", "0", "1") ~measured:rb;
  phase_line st_rb [ "read-blocks" ];
  let nb = Bytes.make block_size 'z' in
  let st_wb = observe cl in
  let _, wb =
    measure_op cl (fun c -> Coordinator.write_blocks c ~stripe:0 0 [| nb |])
  in
  row "block write/F"
    ~paper:("4", fmt_int (4 * n), fmt_int (k + 1), fmt_int (k + 1),
            fmt_int ((2 * n) + 1))
    ~measured:wb;
  phase_line st_wb [ "write-blocks" ];

  (* block read/S: like stripe read/S but through a one-block read. *)
  let cl = fresh_cluster ~m ~n in
  Cluster.crash cl 0;
  let _ =
    measure_op ~coord:1 cl (fun c ->
        Coordinator.write_stripe c ~stripe:0 (stripe_data 'C' m block_size))
  in
  Cluster.recover cl 0;
  let st_rbs = observe cl in
  let _, rbs =
    measure_op ~coord:1 cl (fun c ->
        Coordinator.read_blocks c ~stripe:0 1 ~len:1)
  in
  row "block read/S"
    ~paper:("6", fmt_int (6 * n), fmt_int (n + 1), fmt_int n, fmt_int ((2 * n) + 1))
    ~measured:rbs;
  phase_line st_rbs [ "read-blocks"; "recover" ];

  (* block write/S: p_j is crashed, so the fast phase cannot obtain its
     current block and the write reconstructs the stripe instead. The
     paper's 8-delta accounting also bills a failed Modify round; with
     a crashed p_j no Modify is ever sent, so the measured slow write
     costs one round less (see EXPERIMENTS.md). *)
  let cl = fresh_cluster ~m ~n in
  let _ =
    measure_op cl (fun c -> Coordinator.write_stripe c ~stripe:0 data)
  in
  Cluster.crash cl 0;
  let st_wbs = observe cl in
  let _, wbs =
    measure_op ~coord:1 cl (fun c ->
        Coordinator.write_blocks c ~stripe:0 0 [| nb |])
  in
  row "block write/S"
    ~paper:("8", fmt_int (8 * n), fmt_int (k + n + 1), fmt_int (k + n + 1),
            fmt_int ((4 * n) + 1))
    ~measured:wbs;
  phase_line st_wbs [ "write-blocks"; "recover" ];

  (* --- LS97 baseline --- *)
  let module L = Baseline.Ls97 in
  let t = L.create ~n ~block_size () in
  let measure_ls f =
    let before = L.snapshot t in
    let latency = ref nan in
    ignore
      (L.run_op t (fun () ->
           let t0 = Runtime.now (L.runtime t) in
           ignore (f ());
           latency := Runtime.now (L.runtime t) -. t0));
    let after = L.snapshot t in
    let d name = Metrics.Snapshot.get after name -. Metrics.Snapshot.get before name in
    {
      latency = !latency;
      msgs = d "net.msgs";
      disk_reads = d "disk.reads";
      disk_writes = d "disk.writes";
      bytes = d "net.bytes" /. float_of_int block_size;
    }
  in
  let lw = measure_ls (fun () -> L.write t ~coord:0 ~reg:0 (Bytes.make block_size 'a')) in
  let lr = measure_ls (fun () -> L.read t ~coord:1 ~reg:0) in
  row "LS97 read"
    ~paper:("4", fmt_int (4 * n), fmt_int n, fmt_int n, fmt (2. *. float_of_int n))
    ~measured:lr;
  row "LS97 write"
    ~paper:("4", fmt_int (4 * n), "0", fmt_int n, fmt_int n)
    ~measured:lw;
  Printf.printf
    "\n  (storage: ours keeps n/m = %.2fx the logical bytes; LS97 keeps n = %dx)\n"
    (float_of_int n /. float_of_int m)
    n

let run () =
  section "T1 | Table 1: operation costs (paper / measured)";
  Printf.printf
    "Latency in units of the one-way delay delta; bandwidth in units of the\n\
     block size B. Slow paths (read/S, write/S) are exercised by a replica\n\
     that missed a write (crash + rejoin) or a crashed target brick.\n";
  run_for ~m:5 ~n:8;
  run_for ~m:3 ~n:5
