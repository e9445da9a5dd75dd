module Cluster = Core.Cluster
module Coordinator = Core.Coordinator
module H = Linearize.History
module Check = Linearize.Check

type backend = Sim | Mc of { domains : int; time_scale : float }

type result = {
  ok : int;
  aborted : int;
  unavailable : int;
  stuck : int;
  corrupt_reads : int;
  violations : (int * Check.violation) list;
  hook_leaks : int;
  trace : string option;
}

let failed r = r.violations <> [] || r.stuck > 0 || r.hook_leaks > 0

let pp_result fmt r =
  Format.fprintf fmt
    "ok=%d aborted=%d unavailable=%d stuck=%d corrupt_reads=%d \
     hook_leaks=%d violations=%d"
    r.ok r.aborted r.unavailable r.stuck r.corrupt_reads r.hook_leaks
    (List.length r.violations);
  List.iter
    (fun (idx, v) ->
      Format.fprintf fmt "@.  block %d: %a" idx Check.pp_violation v)
    r.violations

let block_size = 64

let value_block s =
  let b = Bytes.make block_size '\000' in
  Bytes.blit_string s 0 b 0 (min (String.length s) block_size);
  b

let block_value b =
  match Bytes.index_opt b '\000' with
  | Some 0 -> H.nil
  | Some i -> Bytes.sub_string b 0 i
  | None -> Bytes.to_string b

(* Bound on each coordinator's clock skew, in plan units (δ on sim):
   clocks agree to within about a hundred message delays. *)
let clock_skew = 100.

type op_record = {
  ids : (int * int) list;  (* (block index within stripe, history op id) *)
  stripe : int;
  coord : int;
  invoked_at : float;
  mutable done_ : bool;
}

(* One pre-drawn client operation. The workload shape is drawn from the
   harness rng {e before} any client starts, sequentially per client:
   on the mc backend clients run on different threads, and sharing a
   [Random.State.t] across them would make the workload depend on the
   race rather than on [seed]. *)
type op_desc = {
  gap : float;  (* sleep before the op, in plan time units *)
  op_stripe : int;
  shape :
    [ `Write_stripe of string list
    | `Read_stripe
    | `Write_blocks of int * string list
    | `Read_blocks of int * int ];
}

let run ?(backend = Sim) ?(m = 2) ?(n = 5) ?(stripes = 4) ?(clients = 3)
    ?(ops_per_client = 12) ?(deadline = 200.) ?(unsafe_skip_order = false)
    ?(capture_trace = false) ~seed (plan : Plan.t) =
  (* Harness-local randomness: the backend's rng drives the simulated
     system, this one drives the workload shape. Both derive from
     [seed] so a sim run is a pure function of (plan, seed, knobs). *)
  let rng = Random.State.make [| seed; 0xc4a05 |] in
  let ts = match backend with Sim -> 1. | Mc { time_scale; _ } -> time_scale in
  (match backend with
  | Sim -> ()
  | Mc { domains; time_scale } ->
      if domains < 1 then invalid_arg "Chaos.Harness.run: domains < 1";
      if not (time_scale > 0.) then
        invalid_arg "Chaos.Harness.run: time_scale must be > 0";
      if clients > n then
        (* Each mc client needs its own coordinator: the coordinator's
           timestamp cache and retry hint are plain mutable state, not
           safe to share between domains. *)
        invalid_arg "Chaos.Harness.run: mc backend needs clients <= n");
  let cl =
    Cluster.create
      ~backend:
        (match backend with
        | Sim -> Cluster.Sim
        | Mc { domains; _ } -> Cluster.Mc { domains })
      ~seed ~m ~n ~block_size ~deadline:(deadline *. ts)
      ~retry_every:(8. *. ts) ~unsafe_skip_order ()
  in
  let rt = cl.Cluster.runtime in
  let now () = Runtime.now rt in
  (* Loosely synchronized clocks, as the paper assumes: each
     coordinator's clock is off the common time base by a seeded skew
     (own generator, so the workload draws below do not move). Without
     it every clock agrees exactly and the order phase is almost never
     tested against a stale timestamp. *)
  (let srng = Random.State.make [| seed; 0x5c3 |] in
   Array.iter
     (fun c ->
       Core.Clock.set_skew (Coordinator.clock c)
         ((Random.State.float srng (2. *. clock_skew) -. clock_skew) *. ts))
     cl.Cluster.coordinators);
  (* One lock for everything the clients share: histories, op records,
     counters, the written-values table and the trace buffer. Clients
     only hold it around bookkeeping, never across a protocol call.
     Uncontended (and semantically inert) on the sim backend. *)
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let trace_buf =
    if capture_trace then begin
      let buf = Buffer.create 4096 in
      let buf_lock = Mutex.create () in
      Obs.add_sink cl.Cluster.obs
        (Obs.Sink.make (fun e ->
             let line = Obs.to_json e in
             Mutex.lock buf_lock;
             Buffer.add_string buf line;
             Buffer.add_char buf '\n';
             Mutex.unlock buf_lock));
      Some buf
    end
    else None
  in
  let histories = Array.init (stripes * m) (fun _ -> H.create ()) in
  let hist ~stripe ~j = histories.((stripe * m) + j) in
  let ops : op_record list ref = ref [] in
  let counts = ref (0, 0, 0) in
  (* ok, aborted, unavailable *)
  let corrupt_reads = ref 0 in
  let written : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let bit_rot_plan =
    List.exists
      (fun e -> match e.Plan.fault with Plan.Bit_rot _ -> true | _ -> false)
      plan.Plan.events
  in
  let hook_baseline = Array.map Brick.hook_count cl.Cluster.bricks in

  (* Pre-draw every client's workload (see [op_desc]). *)
  let uid = ref 0 in
  let mean_gap = plan.Plan.horizon /. float_of_int (ops_per_client + 1) in
  let fresh_values blocks =
    incr uid;
    List.map (fun j -> Printf.sprintf "s%d.u%d.b%d" seed !uid j) blocks
  in
  let gen_op () =
    let gap = Random.State.float rng (2. *. mean_gap) in
    let op_stripe = Random.State.int rng stripes in
    let shape =
      match Random.State.int rng 6 with
      | 0 -> `Write_stripe (fresh_values (List.init m Fun.id))
      | 1 -> `Read_stripe
      | 2 ->
          let j = Random.State.int rng m in
          `Write_blocks (j, fresh_values [ j ])
      | 3 -> `Read_blocks (Random.State.int rng m, 1)
      | 4 ->
          let j0 = Random.State.int rng m in
          let len = 1 + Random.State.int rng (m - j0) in
          `Write_blocks (j0, fresh_values (List.init len (fun i -> j0 + i)))
      | _ ->
          let j0 = Random.State.int rng m in
          let len = 1 + Random.State.int rng (m - j0) in
          `Read_blocks (j0, len)
    in
    { gap; op_stripe; shape }
  in
  let workloads =
    Array.init clients (fun _ -> List.init ops_per_client (fun _ -> gen_op ()))
  in

  let record_op ~coord ~stripe ~blocks ~kind ~values =
    locked (fun () ->
        let now = now () in
        let ids =
          List.map2
            (fun j v ->
              let id =
                match kind with
                | H.Write ->
                    Hashtbl.replace written v ();
                    H.invoke (hist ~stripe ~j) ~client:coord ~kind
                      ~written:v ~now ()
                | H.Read ->
                    H.invoke (hist ~stripe ~j) ~client:coord ~kind ~now ()
              in
              (j, id))
            blocks values
        in
        let r = { ids; stripe; coord; invoked_at = now; done_ = false } in
        ops := r :: !ops;
        r)
  in

  let bump o =
    let ok, ab, un = !counts in
    counts :=
      match o with
      | `Ok -> (ok + 1, ab, un)
      | `Aborted -> (ok, ab + 1, un)
      | `Unavailable -> (ok, ab, un + 1)
  in

  let finish_op ~stripe r outcome =
    locked (fun () ->
        let now = now () in
        r.done_ <- true;
        (* Under a bit-rot plan a read may surface a value no client ever
           wrote (silent corruption below the checksum). Count it and
           record an abort: storage damage, not an ordering bug. *)
        let outcome =
          match outcome with
          | `ReadValues values
            when bit_rot_plan
                 && List.exists
                      (fun (_, v) ->
                        v <> H.nil && not (Hashtbl.mem written v))
                      values ->
              incr corrupt_reads;
              `Corrupt
          | o -> o
        in
        (match outcome with
        | `Wrote | `ReadValues _ -> bump `Ok
        | `Corrupt | `Aborted -> bump `Aborted
        | `Unavailable -> bump `Unavailable);
        List.iter
          (fun (j, id) ->
            let h = hist ~stripe ~j in
            match outcome with
            | `Wrote -> H.complete_write h id ~now
            | `ReadValues values ->
                H.complete_read h id ~value:(List.assoc j values) ~now
            | `Corrupt | `Aborted | `Unavailable -> H.abort h id ~now)
          r.ids)
  in

  let finish r result ~stripe ~blocks =
    match result with
    | `Write (Ok ()) -> finish_op ~stripe r `Wrote
    | `Read (Ok values) ->
        finish_op ~stripe r
          (`ReadValues (List.map2 (fun j v -> (j, v)) blocks values))
    | `Write (Error `Unavailable) | `Read (Error `Unavailable) ->
        finish_op ~stripe r `Unavailable
    | `Write (Error `Aborted) | `Read (Error `Aborted) ->
        finish_op ~stripe r `Aborted
  in

  let run_desc ~coord c d =
    let stripe = d.op_stripe in
    match d.shape with
    | `Write_stripe values ->
        let data = Array.of_list (List.map value_block values) in
        let blocks = List.init m Fun.id in
        let r = record_op ~coord ~stripe ~blocks ~kind:H.Write ~values in
        finish r ~stripe ~blocks
          (`Write (Coordinator.write_stripe c ~stripe data))
    | `Read_stripe ->
        let blocks = List.init m Fun.id in
        let r =
          record_op ~coord ~stripe ~blocks ~kind:H.Read
            ~values:(List.init m (fun _ -> ""))
        in
        finish r ~stripe ~blocks
          (`Read
            (match Coordinator.read_stripe c ~stripe with
            | Ok data -> Ok (List.init m (fun j -> block_value data.(j)))
            | Error _ as e -> (e :> (string list, _) Stdlib.result)))
    | `Write_blocks (j0, values) ->
        let news = Array.of_list (List.map value_block values) in
        let blocks = List.init (List.length values) (fun i -> j0 + i) in
        let r = record_op ~coord ~stripe ~blocks ~kind:H.Write ~values in
        finish r ~stripe ~blocks
          (`Write (Coordinator.write_blocks c ~stripe j0 news))
    | `Read_blocks (j0, len) ->
        let blocks = List.init len (fun i -> j0 + i) in
        let r =
          record_op ~coord ~stripe ~blocks ~kind:H.Read
            ~values:(List.init len (fun _ -> ""))
        in
        finish r ~stripe ~blocks
          (`Read
            (match Coordinator.read_blocks c ~stripe j0 ~len with
            | Ok bs -> Ok (List.init len (fun i -> block_value bs.(i)))
            | Error _ as e -> (e :> (string list, _) Stdlib.result)))
  in

  let client coord descs =
    Runtime.spawn rt (fun () ->
        let c = cl.Cluster.coordinators.(coord) in
        (* A coordinator crash cancels the client's in-flight call; the
           op stays pending in its history and is marked partial at the
           crash instant below. The client itself dies quietly, as a
           crashed process would. *)
        try
          List.iter
            (fun d ->
              Runtime.sleep rt (d.gap *. ts);
              run_desc ~coord c d)
            descs
        with Runtime.Cancelled -> ())
  in

  Array.iteri (fun c descs -> client (c mod n) descs) workloads;

  let nemesis = Nemesis.install ~time_scale:ts plan cl in
  let quiesced =
    match backend with
    | Sim ->
        Cluster.run ~horizon:plan.Plan.horizon cl;
        Nemesis.restore nemesis;
        (* Settle: with the environment healthy again, every surviving
           fiber must finish. Anything still pending afterwards is
           stuck. *)
        Cluster.run ~horizon:20_000. cl;
        true
    | Mc _ ->
        (* Real time: wait out the chaos window on the wall clock, in
           this thread alone, so that a stuck worker cannot hold the
           wait; then heal and give in-flight operations a bounded
           settle. [deadline] caps every operation, so a generous
           multiple of it only elapses in full when something is truly
           stuck. *)
        Unix.sleepf (plan.Plan.horizon *. ts);
        Nemesis.restore nemesis;
        Cluster.try_quiesce ~timeout:(Float.max 5. (20. *. deadline *. ts)) cl
  in

  (* Crash instants, straight from the nemesis's applied-fault log
     (identical to the plan times on sim; wall-clock instants on mc,
     comparable with [invoked_at]): used to mark pending operations of
     crashed coordinators as partial. *)
  let crashes =
    List.filter_map
      (fun (at, fault) ->
        match fault with
        | Plan.Crash i | Plan.Torn_crash i -> Some (i, at)
        | _ -> None)
      (Nemesis.applied nemesis)
  in
  locked (fun () ->
      let stuck = ref 0 in
      List.iter
        (fun r ->
          if not r.done_ then begin
            let crash_time =
              List.fold_left
                (fun acc (b, t) ->
                  if b = r.coord && t >= r.invoked_at then
                    match acc with
                    | None -> Some t
                    | Some t' -> Some (Float.min t t')
                  else acc)
                None crashes
            in
            match crash_time with
            | Some t ->
                List.iter
                  (fun (j, id) ->
                    H.crash (hist ~stripe:r.stripe ~j) id ~now:t)
                  r.ids
            | None -> incr stuck
          end)
        !ops;

      let violations = ref [] in
      Array.iteri
        (fun idx h ->
          match Check.strict h with
          | Ok () -> ()
          | Error v -> violations := (idx, v) :: !violations)
        histories;

      let hook_leaks =
        ref
          (if quiesced then 0
           else begin
             (* A pool that failed to quiesce cannot be shut down
                (its domain would wait on the stuck fiber); leak it
                loudly and let [stuck] fail the run. *)
             Printf.eprintf
               "chaos: harness: mc pool failed to quiesce (plan %s seed \
                %d); leaking the pool\n\
                %!"
               plan.Plan.name seed;
             0
           end)
      in
      Array.iteri
        (fun i b ->
          hook_leaks :=
            !hook_leaks + max 0 (Brick.hook_count b - hook_baseline.(i)))
        cl.Cluster.bricks;
      if quiesced then Cluster.shutdown cl;
      let ok, aborted, unavailable = !counts in
      {
        ok;
        aborted;
        unavailable;
        stuck = !stuck;
        corrupt_reads = !corrupt_reads;
        violations = List.rev !violations;
        hook_leaks = !hook_leaks;
        trace = Option.map Buffer.contents trace_buf;
      })
