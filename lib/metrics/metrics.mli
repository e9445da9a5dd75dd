(** Counters and latency distributions for the simulation harness.

    Table 1 of the paper accounts operations in four currencies:
    messages, network bandwidth (in block-size units), disk reads and
    disk writes. A {!Registry} holds named monotonic counters for
    those, and benchmarks measure an operation by snapshotting the
    registry before and after ({!Snapshot.get} on each). The registry also
    holds named {!Hist} histograms, the one distribution type: the
    observability layer materializes per-operation latency, per-phase
    duration and per-queue depth distributions into them. *)

module Counter : sig
  type t
  (** A float cell that any number of domains may bump at once. *)

  val create : unit -> t
  (** Tests only: test_metrics checks a counter outside any registry
      with it. *)

  val incr : ?by:float -> t -> unit
  val value : t -> float
  val reset : t -> unit
end

module Hist : sig
  type t
  (** Log-bucketed (HDR-style) histogram over non-negative finite
      floats. Each power-of-two octave is split into [2^sub_bits]
      equal-width sub-buckets, so the quantization error of any
      reported percentile is bounded by {!relative_error} of the true
      value — independent of the value range and the observation
      count. Counts, [mean], [min] and [max] are exact, and memory
      grows only with the number of octaves spanned
      ([log2 (max/min)]), never with the number of observations, so
      p99.9 stays trustworthy over millions of observations. *)

  val create : ?sub_bits:int -> unit -> t
  (** [sub_bits] (default 5, i.e. 32 sub-buckets per octave, ≤ 3.125%
      relative error) sets the precision/memory trade-off.
      Tests only: test_metrics passes [?sub_bits] to check the
      precision bound and merge mismatches.
      @raise Invalid_argument unless [1 <= sub_bits <= 12]. *)

  val relative_error : t -> float
  (** [2^-sub_bits]: any percentile is within this relative distance
      of some true sample value at the same rank. *)

  val add : ?count:int -> t -> float -> unit
  (** Record [count] (default 1) observations of a value.
      Tests only: test_metrics passes [?count] to add several
      observations at once.
      @raise Invalid_argument on a negative count or a negative,
      infinite or NaN value. *)

  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** Nearest-rank percentile over the exact bucket counts; the
      returned value is the containing bucket's midpoint clamped into
      [[min, max]], hence within {!relative_error} of the true sample
      at that rank. @raise Invalid_argument on an empty histogram or
      [p] outside [0,100]. *)

  val count_above : t -> float -> int
  (** Observations strictly above a threshold, at bucket granularity
      (the threshold's own bucket is excluded, so the result may
      undercount by at most one bucket's population). Used for SLO
      error budgets ("requests over the latency limit"). *)

  val merge : t -> t -> t
  (** Pooled histogram; the inputs are unchanged. Merging is exact
      (bucket counts add index-to-index) and associative on every
      observable except [mean] (float addition). Merging an empty
      histogram is the identity.
      @raise Invalid_argument if the precisions differ. *)

  val merge_into : dst:t -> t -> unit
  (** In-place {!merge}. *)

  val buckets : t -> (float * float * int) list
  (** Non-empty buckets as [(lower, upper, count)], ascending; an
      exact zero bucket reports as [(0., 0., n)]. For serialization
      and sparkline rendering.
      Tests only: test_metrics checks that merging is exact with it. *)

  val pp : Format.formatter -> t -> unit
end

module Summary = Hist
(** Kept only for vdbench's per-phase means ([Summary.count] and
    [Summary.mean] on [Obs.Stats.by_phase]); the vdbench revision on
    ROADMAP renames that call to {!Hist} and deletes this alias. *)

module Timeseries : sig
  type t
  (** Named counters and histograms bucketed per fixed window of
      simulated time: window [w] covers [[w*width, (w+1)*width)].
      Cells materialize on first touch, so memory scales with the
      number of active (name, window) pairs. The observability layer
      feeds one of these from the event hub to get
      latency-over-time, per-brick queue depth, goodput and
      retransmit series without touching instrumentation sites. *)

  val create : width:float -> unit -> t
  (** [width] is the window length in (simulated) time units; each
      window's histograms have {!Hist.create}'s default precision.
      @raise Invalid_argument if [width <= 0]. *)

  val width : t -> float

  val window_of : t -> float -> int
  (** The window index containing a time.
      Tests only: test_metrics checks the window arithmetic with it. *)

  val window_start : t -> int -> float

  val span : t -> (int * int) option
  (** [(first, last)] window index touched so far, [None] if no data. *)

  val incr : t -> time:float -> ?by:float -> string -> unit
  (** Bump the named counter in the window containing [time]. *)

  val observe : t -> time:float -> string -> float -> unit
  (** Record a value into the named histogram of the window containing
      [time]. @raise Invalid_argument on negative/non-finite values
      (see {!Hist.add}). *)

  val counter_names : t -> string list
  val hist_names : t -> string list

  val counter : t -> string -> int -> float
  (** Counter value in one window ([0.] where never touched). *)

  val hist : t -> string -> int -> Hist.t option

  val counter_series : t -> string -> (int * float) list
  (** One entry per window of {!span} (zero-filled), ascending.
      Tests only: test_metrics reads counter windows back with it. *)

  val hist_series : t -> string -> (int * Hist.t option) list
  (** Tests only: test_obs checks per-window latency histograms with it. *)

  val percentile_series : t -> string -> float -> (int * float option) list
  (** Per-window percentile; [None] where the window has no data.
      Tests only: test_metrics reads percentile windows back with it. *)

  val total : t -> string -> float
  (** Sum of a counter over all windows. *)

  val merged_hist : t -> string -> Hist.t option
  (** All windows of a histogram pooled ({!Hist.merge}); [None] if the
      name has no data at all. *)
end

module Registry : sig
  type t

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** [counter t name] returns the counter registered under [name],
      creating it on first use. The same name always yields the same
      counter. *)

  val incr : ?by:float -> t -> string -> unit
  (** [incr t name] bumps the named counter (creating it if needed). *)

  val value : t -> string -> float
  (** [value t name] is the counter's current value ([0.] if the name
      was never used). *)

  val names : t -> string list
  (** All registered counter names, sorted. *)

  val hist_opt : t -> string -> Hist.t option

  val put_hist : t -> string -> Hist.t -> unit
  (** Install (or replace) a histogram under a name — used by the
      observability layer to materialize derived distributions. *)

  val hist_names : t -> string list
  (** All registered histogram names, sorted. *)
end

module Snapshot : sig
  type t

  val take : Registry.t -> t

  val get : t -> string -> float
end
