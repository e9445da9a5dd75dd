(** Structured observability for the whole protocol stack.

    Every layer — coordinator, replica, brick, quorum RPC, simulated
    network, event engine — reports what it does as typed {!event}s
    tagged with sim-time, actor, operation id and protocol phase. A
    per-deployment hub ({!t}) fans events out to pluggable {!Sink}s:
    a {!Stats} fold, a JSONL stream, a Chrome [trace_event]
    exporter (loadable in Perfetto / [chrome://tracing]), or the
    [Logs]-based stderr trace.

    {b Overhead guarantee}: a hub with no sinks is disabled, and every
    emission site is written
    [if Obs.enabled hub then Obs.emit hub {...}] — one boolean load and
    branch per potential event, no allocation. Enabling observability
    is therefore free until the first {!add_sink}.

    {b Span model}: the coordinator allocates one op id per client
    operation ({!next_op}) and brackets it with [Span_start] /
    [Span_end] (outcome [Ok | Abort | Retry]). Quorum rounds inside the
    operation are bracketed by [Phase_start] / [Phase_end]; the op id
    and phase ride across RPC boundaries in a {!ctx}, so replica-side
    disk I/O and network events are attributed to the operation that
    caused them. Nested operations (a read that falls back to recovery)
    get fresh op ids, so per-op phases never overlap. *)

(** {1 Event model} *)

type phase = Fast_read | Order | Write | Modify | Recover | Gc

val phase_name : phase -> string
(** ["fast-read" | "order" | "write" | "modify" | "recover" | "gc"]. *)

val all_phases : phase list

type outcome = Ok | Abort | Retry | Unavailable
(** [Retry] marks an aborted attempt whose caller will retry it (set
    via the coordinator's retry hint), letting latency analyses
    distinguish transient conflicts from final failures.
    [Unavailable] marks an operation that hit its deadline with too few
    reachable members and failed fast instead of retransmitting. *)

val outcome_name : outcome -> string

type actor = Coord of int | Brick of int | Sim
(** Who emitted an event: a coordinator, a brick/replica (network
    endpoint), or the simulation engine itself. *)

type ctx = { op : int; phase : phase option }
(** Attribution context threaded through RPC calls and handlers. *)

val no_ctx : ctx
(** [{ op = -1; phase = None }] — events not tied to an operation. *)

val ctx : ?phase:phase -> int -> ctx

type kind =
  | Span_start of { op_kind : string; stripe : int }
  | Span_end of { op_kind : string; stripe : int; outcome : outcome }
  | Phase_start
  | Phase_end
  | Phase_elided
      (** A quorum round the coordinator proved it could skip (the
          order round of a warm write); [phase] names the round that
          did not happen. *)
  | Msg_send of { dst : int; bytes : int; label : string; bg : bool }
  | Msg_recv of { src : int; label : string }
  | Msg_drop of { dst : int; bytes : int; bg : bool }
  | Io_read of { blocks : int }
  | Io_write of { blocks : int }
  | Timeout of { missing : int; attempt : int }
      (** A retransmission round: [attempt] counts retransmissions of
          this call (1 = first retransmit), [missing] is how many
          members still owe a reply. *)
  | Retarget of { suspect : int }
      (** The coordinator routed the operation around brick [suspect],
          which missed a call it was targeted by: a read re-issued at
          other members (one extra fast-read round when the miss
          happened in this op), or a block write sent straight to the
          slow path. *)
  | Queue_depth of { depth : int }
  | Fault of { label : string }
      (** A chaos-nemesis action (crash, partition, bit-rot, ...);
          [label] is the plan event in plan-file syntax. *)

type event = {
  time : float;  (** sim-time *)
  actor : actor;
  op : int;  (** -1 = not tied to an operation *)
  phase : phase option;
  kind : kind;
}

val pp_event : Format.formatter -> event -> unit
(** Human-readable one-line rendering (the stderr trace format). *)

(** {1 Sinks and the hub} *)

module Sink : sig
  type t = { emit : event -> unit; close : unit -> unit }

  val make : ?close:(unit -> unit) -> (event -> unit) -> t

  val serialized : t -> t
  (** Guard a sink with a private mutex so concurrent emitters (the
      multicore backend) cannot interleave inside it. Sim-backed runs
      need no wrapping and pay nothing. *)
end

type t
(** An event hub. Created disabled; the first {!add_sink} enables it. *)

val create : unit -> t

val enabled : t -> bool
(** Emission guard: call sites must check this before building an
    event, so disabled hubs cost one branch per potential event. *)

val add_sink : t -> Sink.t -> unit
(** Attach a sink (and enable the hub). Sinks receive every subsequent
    event in emission order. *)

val on_enable : t -> (unit -> unit) -> unit
(** [on_enable t f] runs [f] now if the hub is enabled, otherwise when
    it first becomes enabled — used to install observers (e.g. the
    engine queue-depth probe) only when someone is listening. *)

val emit : t -> event -> unit
(** Fan the event out to every sink. Call only under {!enabled}. *)

val next_op : t -> int
(** Allocate a fresh operation id (monotonic per hub; cheap enough to
    call even when disabled). *)

val close : t -> unit
(** Close every sink (flush file sinks, terminate the Chrome array). *)

(** {1 Wire format} *)

module Json : sig
  (** The one JSON codec in the tree: JSONL event lines, the trace
      meta header, [--stats-json], every [BENCH_*.json] and the
      [bench_diff] reader. There is no [null]: no writer emits one. *)

  type v =
    | S of string
    | I of int
    | F of float
    | B of bool
    | A of v list
    | O of (string * v) list

  exception Error of string

  val escape : string -> string
  (** String body escaping, without the surrounding quotes. *)

  val render : v -> string
  (** Compact, with no whitespace. An integral [F] below 1e15 in
      magnitude renders as [%.1f], any other [F] as [%.12g]. *)

  val obj : (string * v) list -> string
  (** [obj fields = render (O fields)]. *)

  val to_file : string -> v -> unit
  (** Write [v] indented (one object member per line, two spaces per
      level, arrays on one line) plus a final newline. *)

  val parse : string -> v
  (** Parse exactly one value; surrounding whitespace is allowed,
      anything else after it is not. @raise Error on malformed input,
      [null] included. *)

  val to_float : v -> float option
  (** [I] and [F] alike. *)

end

val to_json : event -> string
(** One-line JSON object; the JSONL schema. *)

val of_json :
  string -> [ `Event of event | `Meta of (string * Json.v) list | `Error of string ]
(** Parse one JSONL line: an event, the header meta line, or a schema
    violation with its reason. *)

module Meta : sig
  type t = (string * Json.v) list
  (** Run metadata stamped into trace headers, stats JSON and BENCH_*
      files so results stay comparable across commits. *)

  val git_commit : unit -> string
  val iso_date : unit -> string
  val standard :
    ?runtime:string ->
    ?domains:int ->
    ?gc_minor_words_per_op:float ->
    ?extra:t ->
    unit ->
    t
  (** [git] (current commit, read from [.git] without spawning a
      process; ["unknown"] outside a repository), [date] (UTC ISO
      8601), [runtime] (backend name, default ["sim"]), [domains]
      (default 1) and [ocaml_version], plus [extra].
      [gc_minor_words_per_op] (when measured: minor-heap words
      allocated per completed operation, single-domain runs) makes
      allocation regressions visible in every perf PR. Benchmark diffs
      refuse to compare across different [runtime]/[domains] stamps
      (scripts/bench_diff.ml). *)

  val line : t -> string
  (** Rendered as the JSONL header line [{"ev":"meta",...}].
      Tests only: test_obs parses a header back with it; {!jsonl} writes
      it. *)
end

val jsonl : ?meta:Meta.t -> out_channel -> Sink.t
(** Stream events as JSON-lines, optionally preceded by a meta header
    line. [close] flushes; the channel is the caller's to close. *)

val chrome : out_channel -> Sink.t
(** Chrome [trace_event] array (async spans per op id, instants for
    messages and I/O, counter tracks for queue depths). The file is
    valid JSON only after [close] writes the closing bracket. *)

(** {1 The event fold} *)

module Stats : sig
  (** The one fold over the event stream: bounded per-operation
      records plus one {!Metrics.Timeseries}. Each completed span
      folds into the series in the window of its end, under names
      keyed by kind, phase, queue and outcome: [lat.<kind>] and
      [lat.all] (client operations) latency histograms,
      [out.<outcome>.<kind>] completions, [out.<outcome>] and [ops.all]
      client completions, [phase.<phase>] per-op phase durations and
      [phase.<phase>.<kind>] their per-kind sums, [elided.<phase>.<kind>]
      skipped rounds, [retarget.<brick>.<kind>] and
      [retarget_time.<brick>.<kind>] routing around a suspect. Events
      add [inflight] and [queue.<actor>] samples and the [msgs],
      [bytes], [drops], [retransmits], [retargets], [io.read],
      [io.write] and [faults] counters, and chaos faults become
      overlays. Every whole-run view below is the merge of its series
      over the windows, exact because {!Metrics.Hist} merges
      bucket-wise. *)

  type op_stat = {
    op : int;
    mutable op_kind : string;
    mutable stripe : int;
    mutable t_start : float;
    mutable t_end : float;
    mutable outcome : outcome option;
    mutable open_phase : (phase * float) option;
    mutable phases : (phase * float) list;
        (** accumulated duration per phase *)
    mutable elided : (phase * int) list;
        (** elided quorum rounds per phase *)
    mutable msgs : int;
    mutable bytes : int;
    mutable drops : int;
    mutable timeouts : int;
    mutable disk_reads : int;
    mutable disk_writes : int;
    mutable retargeted : (int * float) list;
        (** [(brick, time)] of each {!Retarget} event *)
  }

  type overlay = [ `Begin of string | `End of string | `Point of string ]
  (** How a fault label maps onto the fault overlay: open an interval
      under a key, close the matching interval, or mark an
      instantaneous point. *)

  type stats

  val create :
    ?retain:int ->
    ?width:float ->
    ?classify:(string -> overlay) ->
    unit ->
    stats
  (** [retain] bounds how many completed per-op records are kept for
      listing (0, the default, keeps all of them — needed by
      [fab_sim explain]'s per-op table; workload runs pass a bound so
      million-op runs hold memory constant). [width] is the window
      length in trace time units; without it the whole run is one
      window. [classify] maps a {!kind.Fault} label to an overlay
      action; the default treats every fault as a point.
      [Chaos.Plan.overlay_of_label] is the classifier for
      nemesis-generated labels (this library does not depend on
      [lib/chaos]).
      @raise Invalid_argument if [retain < 0] or [width <= 0]. *)

  val sink : stats -> Sink.t
  (** Feed the fold from a hub, or replay a parsed trace into it via
      {!feed}. *)

  val feed : stats -> event -> unit

  val series : stats -> Metrics.Timeseries.t

  val completed : stats -> op_stat list
  (** Retained completed operations, oldest first — only the most
      recent [retain] if bounded. *)

  val unfinished : stats -> int
  (** Spans started but not ended (crashed coordinators, horizon). *)

  val evicted : stats -> int
  (** Completed records dropped under the [retain] bound (their
      contribution to every view below is preserved). *)

  val latency : op_stat -> float

  val by_kind : stats -> (string * Metrics.Hist.t) list
  (** Latency histogram per operation kind. A span the mc wall clock
      measured as negative is not recorded, here or in {!by_phase}. *)

  val outcome_counts : stats -> (string * (int * int * int * int)) list
  (** Per op kind: [(ok, aborts, retries, unavailable)] tallies. *)

  val by_phase : stats -> (phase * Metrics.Hist.t) list
  (** Time-in-phase histogram across all completed operations. *)

  val phase_breakdown : stats -> (string * int * (phase * float) list) list
  (** Per op kind: completed count and mean duration per phase. *)

  val elided_by_kind : stats -> (string * (phase * int) list) list
  (** Per op kind: total elided quorum rounds per phase over the
      completed ops; kinds with no elisions are absent. *)

  val queue_depths : stats -> (string * Metrics.Hist.t) list
  (** Per actor: the queue depths sampled at enqueue. *)

  val retargets : stats -> (int * string * int * float) list
  (** Per suspected brick and op kind: [(brick, kind, ops, mean)], the
      completed ops that routed around the brick ({!Retarget}) and the
      mean time from the re-target to the op's end — the cost that
      brick's absence added. Sorted. *)

  val materialize : stats -> Metrics.Registry.t -> unit
  (** Write the whole-run distributions into a registry:
      ["op.<kind>.latency"], ["phase.<name>.latency"] and
      ["queue.<actor>.depth"] histograms (merged into any histogram
      already registered under the name),
      plus ["obs.ops"], ["obs.aborts"], ["obs.retries"],
      ["obs.unavailable"] counters. When [retain] is bounded, the
      remaining completed records are evicted afterwards and
      ["obs.evictions"] records the overall eviction count. *)

  val faults : stats -> (string * float * float) list
  (** Fault overlay intervals [(label, t0, t1)] ordered by start time.
      Intervals still open at the last observed event extend to that
      event's time; points have [t0 = t1]. *)

  val faults_in : stats -> int -> string list
  (** Overlay labels intersecting a window, sorted and deduplicated. *)
end

module Slo : sig
  (** Service-level objectives over the windows of a {!Stats} fold,
      with SRE-style error budgets: a latency objective
      ["read p99 < 6"] lets 1% of requests exceed the limit;
      ["availability >= 99.9%"] lets 0.1% of requests fail. Burn is
      the fraction of that budget spent. *)

  type objective =
    | Latency of { kind : string option; p : float; limit : float }
        (** [kind = None] governs every op; [Some "read"] covers kind
            ["read"] and any ["read-…"] refinement. *)
    | Availability of { min_pct : float }

  val name : objective -> string
  (** Canonical rendering, parseable by {!parse}. *)

  val parse : string -> (objective, string) result
  (** ["<kind> p<P> < <limit>"], ["p<P> <= <limit>"], or
      ["availability >= <pct>%"]. *)

  type window_stat = {
    window : int;
    w_total : int;  (** observations governed by the objective *)
    w_bad : int;  (** observations out of objective *)
    w_compliant : bool;  (** vacuously true on an empty window *)
    w_faults : string list;  (** chaos overlays active in the window *)
  }

  type report = {
    objective : objective;
    total : int;
    bad : int;
    budget_frac : float;  (** allowed bad fraction, in (0, 1) *)
    burn : float;  (** bad / (budget_frac * total); > 1 = budget blown *)
    compliant : bool;
    windows : window_stat list;
  }

  val evaluate : Stats.stats -> objective -> report
  (** Whole-run and per-window compliance. Latency objectives count
      bucket-granularity exceedances in the matching [lat.*]
      histograms ({!Metrics.Hist.count_above}); availability counts
      aborts + unavailable against ok completions (retries are
      re-attempted, not failures). *)
end

module Check : sig
  val well_formed : event list -> string list
  (** Span well-formedness violations (empty = well-formed): per op id,
      exactly one [Span_start] and one [Span_end], phases strictly
      alternate start/end with matching labels and never overlap, and
      all phase events fall inside the span in time order. *)
end
