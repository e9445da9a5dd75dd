type ('req, 'rep) envelope =
  | Request of int * Obs.ctx * 'req
  | Reply of int * Obs.ctx * 'rep
  | Oneway of Obs.ctx * 'req

exception Unavailable

(* The RPC layer's view of a message fabric: enough to broadcast,
   serve, and account. {!Fabric} builds the one every deployment uses,
   over either backend's delivery. *)
type 'msg transport = {
  xn : int;
  xobs : Obs.t;
  xsend :
    background:bool ->
    ctx:Obs.ctx ->
    info:string option ->
    src:int ->
    dst:int ->
    bytes_on_wire:int ->
    'msg ->
    unit;
  xregister : int -> (src:int -> 'msg -> unit) -> unit;
  xdead_drop : unit -> unit;
}

type ('req, 'rep) pending = {
  members : int list;
  nmembers : int;
  quorum : int;
  until : (int * 'rep) list -> bool;
  mutable replies : (int * 'rep) list;
      (* newest first, at most one per member: a retransmission can
         make a member answer twice, and only its first reply counts *)
  mutable reply_count : int;
  iv : (int * 'rep) list Runtime.Ivar.t;
  mutable retry_timer : Runtime.timer option;
  mutable grace_timer : Runtime.timer option;
  mutable deadline_timer : Runtime.timer option;
  mutable attempt : int;  (* retransmission rounds so far *)
  crash_hook : Brick.hook;
  coord : Brick.t;
  make_req : int -> 'req;
  ctx : Obs.ctx;
}

type ('req, 'rep) t = {
  rt : Runtime.t;
  transport : ('req, 'rep) envelope transport;
  req_bytes : 'req -> int;
  rep_bytes : 'rep -> int;
  req_label : 'req -> string;
  rep_label : 'rep -> string;
  retry_every : float;
  grace : float;
  retries : Metrics.Counter.t;
  obs : Obs.t;
  next_rid : int Atomic.t;
  lock : Mutex.t;  (* guards pending and its entries' mutable fields *)
  pending : (int, ('req, 'rep) pending) Hashtbl.t;
  handlers : (src:int -> ctx:Obs.ctx -> 'req -> 'rep option) option array;
}

let create ~rt ~transport ?(metrics = Metrics.Registry.create ()) ~req_bytes
    ~rep_bytes ?(req_label = fun _ -> "req") ?(rep_label = fun _ -> "rep")
    ?(retry_every = 8.0) ?(grace = 1.0) () =
  {
    rt;
    transport;
    req_bytes;
    rep_bytes;
    req_label;
    rep_label;
    retry_every;
    grace;
    retries = Metrics.Registry.counter metrics "rpc.retries";
    obs = transport.xobs;
    next_rid = Atomic.make 0;
    lock = Mutex.create ();
    pending = Hashtbl.create 64;
    handlers = Array.make transport.xn None;
  }

let cancel_timers p =
  (match p.retry_timer with Some tm -> Runtime.cancel tm | None -> ());
  (match p.grace_timer with Some tm -> Runtime.cancel tm | None -> ());
  match p.deadline_timer with Some tm -> Runtime.cancel tm | None -> ()

(* Deterministic retransmission jitter in [0.75, 1.25), hashed from
   (request id, attempt) rather than drawn from the engine rng: faulty
   runs must not perturb the rng stream that fault-free code samples,
   or determinism comparisons across configurations break. *)
let jitter_factor rid attempt =
  let h = (rid * 0x2545f491) lxor (attempt * 0x9e3779b1) in
  let h = (h lxor (h lsr 16)) * 0x45d9f3b land max_int in
  0.75 +. (0.5 *. float_of_int (h land 0xffff) /. 65536.)

(* Exponential backoff: retry_every * 2^(attempt-1), capped at
   8 * retry_every. The cap bounds the pre-jitter base (see the .mli):
   capping after jitter would collapse every capped delay to the cap
   and re-synchronize the retries jitter exists to spread out. *)
let backoff = 2.0
let backoff_cap = 8.

let retry_delay t rid attempt =
  let base =
    Float.min
      (t.retry_every *. backoff_cap)
      (t.retry_every *. (backoff ** float_of_int (attempt - 1)))
  in
  base *. jitter_factor rid attempt

let count_dead_drop t = t.transport.xdead_drop ()

(* Claim a pending entry: remove it under the lock so exactly one
   concurrent completion path (reply quorum, grace expiry, deadline,
   coordinator crash) tears it down and wakes the caller. The
   wake-up itself — Ivar fill/abort — always runs OUTSIDE the lock:
   on the sim backend it resumes the coordinator fiber synchronously,
   which may immediately issue the next call into this module. *)
let claim t rid =
  Mutex.lock t.lock;
  let po = Hashtbl.find_opt t.pending rid in
  (match po with Some _ -> Hashtbl.remove t.pending rid | None -> ());
  Mutex.unlock t.lock;
  po

let complete p =
  cancel_timers p;
  Brick.remove_crash_hook p.coord p.crash_hook;
  Runtime.Ivar.fill p.iv (List.rev p.replies)

let answered p src = List.mem_assoc src p.replies

let deliver_reply t rid src rep =
  Mutex.lock t.lock;
  let action =
    match Hashtbl.find_opt t.pending rid with
    | None ->
        (* stale reply: the call completed or the coordinator crashed *)
        `Nothing
    | Some p ->
        if answered p src then `Nothing
        else begin
          p.replies <- (src, rep) :: p.replies;
          p.reply_count <- p.reply_count + 1;
          let everyone = p.reply_count = p.nmembers in
          if p.reply_count >= p.quorum then
            if p.until p.replies || everyone then begin
              Hashtbl.remove t.pending rid;
              `Complete p
            end
            else if p.grace_timer = None then `Arm_grace p
            else `Nothing
          else `Nothing
        end
  in
  Mutex.unlock t.lock;
  match action with
  | `Nothing -> ()
  | `Complete p -> complete p
  | `Arm_grace p ->
      let tm =
        Runtime.timer t.rt ~delay:t.grace (fun () ->
            match claim t rid with None -> () | Some p -> complete p)
      in
      Mutex.lock t.lock;
      p.grace_timer <- Some tm;
      let gone = not (Hashtbl.mem t.pending rid) in
      Mutex.unlock t.lock;
      (* The call may have completed in the window before the timer was
         recorded; the claimer saw grace_timer = None, so reap it here. *)
      if gone then Runtime.cancel tm

let install_dispatcher t addr =
  let handle ~src env =
    match env with
    | Request (rid, ctx, req) -> (
        match t.handlers.(addr) with
        | None -> ()
        | Some handler -> (
            match handler ~src ~ctx req with
            | None -> ()
            | Some rep ->
                let label =
                  if Obs.enabled t.obs then t.rep_label rep else "msg"
                in
                t.transport.xsend ~background:false ~ctx ~info:(Some label)
                  ~src:addr ~dst:src ~bytes_on_wire:(t.rep_bytes rep)
                  (Reply (rid, ctx, rep))))
    | Oneway (ctx, req) -> (
        match t.handlers.(addr) with
        | None -> ()
        | Some handler -> ignore (handler ~src ~ctx req))
    | Reply (rid, _ctx, rep) -> deliver_reply t rid src rep
  in
  t.transport.xregister addr handle

let serve t ~addr handler =
  t.handlers.(addr) <- Some handler;
  install_dispatcher t addr

let ensure_dispatcher t addr =
  (* A coordinator that never serves requests still needs a network
     handler to receive replies. *)
  match t.handlers.(addr) with
  | Some _ -> ()
  | None ->
      t.handlers.(addr) <- Some (fun ~src:_ ~ctx:_ _ -> None);
      install_dispatcher t addr

let broadcast t ~src ~ctx ~targets make_req rid =
  List.iter
    (fun dst ->
      let req = make_req dst in
      let label = if Obs.enabled t.obs then t.req_label req else "msg" in
      t.transport.xsend ~background:false ~ctx ~info:(Some label) ~src ~dst
        ~bytes_on_wire:(t.req_bytes req)
        (Request (rid, ctx, req)))
    targets

let call t ~coord ~members ~quorum ?(until = fun _ -> true)
    ?(ctx = Obs.no_ctx) ?deadline make_req =
  if quorum > List.length members then
    invalid_arg "Quorum.Rpc.call: quorum larger than member count";
  if quorum < 1 then invalid_arg "Quorum.Rpc.call: quorum < 1";
  let rt = t.rt in
  (* [land max_int] keeps ids non-negative across counter wrap. *)
  let rid = Atomic.fetch_and_add t.next_rid 1 land max_int in
  let src = Brick.id coord in
  ensure_dispatcher t src;
  (match deadline with
  | Some d when Runtime.now rt >= d -> raise Unavailable
  | Some _ | None -> ());
  let deadline_hit = ref false in
  let iv = Runtime.Ivar.create rt in
  (* A coordinator crash abandons the call: drop the pending entry
     (so late replies are ignored) and cancel the caller, turning
     the operation into a partial operation. *)
  let crash_hook =
    Brick.add_crash_hook coord (fun () ->
        match claim t rid with
        | None -> ()
        | Some p ->
            cancel_timers p;
            Runtime.Ivar.abort p.iv)
  in
  let p =
    {
      members;
      nmembers = List.length members;
      quorum;
      until;
      replies = [];
      reply_count = 0;
      iv;
      retry_timer = None;
      grace_timer = None;
      deadline_timer = None;
      attempt = 0;
      crash_hook;
      coord;
      make_req;
      ctx;
    }
  in
  Mutex.lock t.lock;
  Hashtbl.replace t.pending rid p;
  Mutex.unlock t.lock;
  (* At the deadline the call stops retransmitting and fails fast:
     the pending entry and crash hook go away exactly as on
     completion, and the caller is woken to raise {!Unavailable}
     (below, outside the wait). *)
  (match deadline with
  | None -> ()
  | Some d ->
      let tm =
        Runtime.timer rt ~delay:(d -. Runtime.now rt) (fun () ->
            match claim t rid with
            | None -> ()
            | Some p ->
                cancel_timers p;
                Brick.remove_crash_hook p.coord p.crash_hook;
                deadline_hit := true;
                Runtime.Ivar.fill p.iv [])
      in
      Mutex.lock t.lock;
      p.deadline_timer <- Some tm;
      Mutex.unlock t.lock);
  let rec arm_retry () =
    let delay = retry_delay t rid (p.attempt + 1) in
    let tm =
      Runtime.timer rt ~delay (fun () ->
          Mutex.lock t.lock;
          let fire = Brick.is_alive coord && Hashtbl.mem t.pending rid in
          let missing =
            if fire then begin
              p.attempt <- p.attempt + 1;
              List.filter (fun a -> not (answered p a)) p.members
            end
            else []
          in
          let attempt = p.attempt in
          Mutex.unlock t.lock;
          if fire then begin
            Metrics.Counter.incr t.retries;
            if Obs.enabled t.obs then
              Obs.emit t.obs
                {
                  Obs.time = Runtime.now rt;
                  actor = Obs.Coord src;
                  op = p.ctx.Obs.op;
                  phase = p.ctx.Obs.phase;
                  kind =
                    Obs.Timeout { missing = List.length missing; attempt };
                };
            broadcast t ~src ~ctx:p.ctx ~targets:missing p.make_req rid;
            arm_retry ()
          end)
    in
    Mutex.lock t.lock;
    p.retry_timer <- Some tm;
    let gone = not (Hashtbl.mem t.pending rid) in
    Mutex.unlock t.lock;
    if gone then Runtime.cancel tm
  in
  broadcast t ~src ~ctx ~targets:members make_req rid;
  arm_retry ();
  let replies = Runtime.Ivar.await iv in
  if !deadline_hit then raise Unavailable;
  replies

let notify t ~coord ~members ?(ctx = Obs.no_ctx) req =
  let src = Brick.id coord in
  let label = if Obs.enabled t.obs then t.req_label req else "msg" in
  List.iter
    (fun dst ->
      t.transport.xsend ~background:true ~ctx ~info:(Some label) ~src ~dst
        ~bytes_on_wire:(t.req_bytes req)
        (Oneway (ctx, req)))
    members
