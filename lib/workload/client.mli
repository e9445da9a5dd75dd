(** Closed-loop clients driving a FAB volume.

    Each client is a fiber attached to one coordinator brick; it draws
    operations from a generator and issues them back-to-back (the next
    operation starts when the previous one returns). Multiple clients
    on different coordinators create exactly the concurrency regime
    the paper's section 3 discusses; the abort statistics quantify its
    rarity.

    {!stats} keeps only what the [Obs] spans cannot see: the kind,
    outcome and latency of one volume request, which may span several
    stripes and so several spans. *)

type stats = {
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
  mutable aborts : int;
  mutable unavailable : int;
      (** Operations that failed fast on a deadline expiry
          ({!Fab.Volume.outcome}); always 0 without a deadline. *)
  latency : Metrics.Hist.t;
      (** per-op latency in delta units (seconds on mc), log-bucketed:
          exact counts and mean, bounded rank error at any op count *)
}

val fresh_stats : unit -> stats

val spawn :
  Fab.Volume.t ->
  coord:int ->
  gen:Gen.t ->
  ops:int ->
  ?payload_tag:char ->
  stats ->
  unit
(** [spawn volume ~coord ~gen ~ops stats] starts a client fiber that
    performs [ops] operations and accumulates into [stats]. Run the
    engine ({!Fab.Volume.run}) to make progress. Write payloads are
    filled with [payload_tag] (default ['w']) plus a per-op counter so
    written values are distinguishable. *)

val sum : stats array -> stats
(** Every client's tallies added up and latencies merged. *)
