(** A brick: a crash-recovery process with persistent storage.

    The paper's model (section 2) has processes that fail by crashing
    and may later recover; each process has persistent storage whose
    contents survive crashes ([store(var)] in section 4.2), while
    volatile state is lost. A [Brick.t] models exactly that envelope:

    - an alive/crashed flag consulted by message handlers (a crashed
      brick silently drops incoming messages);
    - crash hooks, run at crash time, used to cancel in-flight
      coordinator fibers (a crashed coordinator abandons its
      operations) and clear volatile caches;
    - storage-cost accounting that mirrors Table 1's cost model:
      block reads and writes against the on-disk log are counted
      under ["disk.reads"] / ["disk.writes"], timestamp-only updates
      are NVRAM writes under ["nvram.writes"] and cost no disk I/O.

    The actual persistent data structures (the per-stripe [ord-ts] and
    [log]) live in the register layer; they simply survive crashes
    because nothing clears them, faithfully modelling NVRAM-backed
    metadata plus disk-backed logs. *)

type t

val create :
  ?metrics:Metrics.Registry.t -> ?obs:Obs.t -> Runtime.t -> id:int -> t
val id : t -> int

val is_alive : t -> bool
(** Freshly created bricks are alive. *)

val crash : t -> unit
(** Mark the brick crashed and run (then discard) all crash hooks.
    Idempotent. *)

val recover : t -> unit
(** Bring a crashed brick back up. Persistent state is intact; all
    volatile state was dropped by the crash hooks. Idempotent. *)

type hook
(** Handle for deregistering a crash hook. *)

val add_crash_hook : t -> (unit -> unit) -> hook
(** [add_crash_hook t f] runs [f] (once) if the brick crashes. Use
    {!remove_crash_hook} when the protected resource completes
    normally. The hook table is the one thing a brick locks: one mutex
    guards it, so tasks on several multicore domains may add and remove
    hooks at once, and {!crash} runs the hooks outside it. *)

val remove_crash_hook : t -> hook -> unit

val hook_count : t -> int
(** Currently registered crash hooks. At quiescence (no in-flight
    operations) only long-lived hooks remain, so tests use this to
    check that every transient hook was deregistered. *)

val count_disk_read : ?ctx:Obs.ctx -> t -> unit
(** Account reading one block-sized record from the on-disk log. When
    the brick's observability hub is enabled, also emits an [Io_read]
    event attributed to [ctx]'s operation. *)

val count_disk_write : ?ctx:Obs.ctx -> t -> unit
(** Account writing one block-sized record to the on-disk log, as
    {!count_disk_read} does for a read. *)

val count_nvram_write : t -> unit

val crash_count : t -> int
(** How many times this brick has crashed so far (for tests and fault
    statistics).
    Tests only: test_brick checks that a repeated crash counts once. *)
