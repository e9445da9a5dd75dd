(** Declarative fault plans: the nemesis's script.

    A plan is a timed schedule of faults against a deployment —
    process crashes and recoveries, network partitions, message-loss
    bursts, degraded links, clock-skew steps, and storage faults (torn
    writes at crash boundaries, latent sector errors, silent bit rot).
    Plans are plain data: they print to a stable line format, parse
    back losslessly, and shrink structurally ({!Shrink}), so a failing
    chaos run can always be replayed from a small text file.

    The line format, one event per line (['#'] starts a comment):
    {v
    name crash-storm
    horizon 600
    at 40 crash 1
    at 90 recover 1
    at 120 partition 0,1|2,3,4
    at 160 heal
    at 200 drop 0.25
    at 240 drop 0
    at 260 link-down 0 3
    at 280 link-up 0 3
    at 290 slow 2 1
    at 300 skew 1 25
    at 330 torn-crash 2
    at 360 bit-rot 0 1
    at 390 sector-error 4 0
    v} *)

type fault =
  | Crash of int  (** crash brick [i] (volatile state lost) *)
  | Recover of int  (** bring brick [i] back up *)
  | Partition of int list list
      (** split the network into groups; unlisted bricks form an
          implicit extra group *)
  | Heal  (** remove any partition *)
  | Drop of float  (** set the per-message drop probability *)
  | Link_down of int * int  (** kill the directed link src -> dst *)
  | Link_up of int * int  (** revive the directed link *)
  | Slow of float * float
      (** [Slow (delay, jitter)]: add [delay] (± uniform [jitter]) to
          every message; [Slow (0, 0)] restores the baseline. On the
          sim backend the extra is in delta units on top of the
          network's base config; on mc it is wall-clock units scaled
          by the nemesis's [time_scale]. *)
  | Skew of int * float
      (** step coordinator [i]'s clock skew ({!Core.Clock.set_skew}),
          in plan time units scaled like [Slow]'s *)
  | Torn_crash of int
      (** crash brick [i] with its most recent log append on every
          stripe torn: the entry's stored checksum no longer matches,
          so after recovery the brick reads it as absent — the classic
          torn sector write at a power-cut boundary *)
  | Bit_rot of int * int
      (** [Bit_rot (brick, stripe)]: silently flip a bit in the newest
          block of the stripe's log on that brick, restamping the
          checksum — firmware-grade corruption that only
          {!Core.Coordinator.scrub} can see *)
  | Sector_error of int * int
      (** [Sector_error (brick, stripe)]: damage the newest log entry
          detectably (stored checksum mismatch) — a latent sector
          error the replica discovers on read and masks as absence *)

type event = { at : float; fault : fault }

type t = {
  name : string;
  horizon : float;  (** how long the chaos window lasts *)
  events : event list;  (** sorted by [at] *)
}

val make : name:string -> horizon:float -> event list -> t
(** Sorts the events by time (stable).
    @raise Invalid_argument on a negative time, a time beyond the
    horizon, or a non-positive horizon. *)

val fault_label : fault -> string
(** The event-line tail, e.g. ["crash 1"] or ["partition 0,1|2,3"];
    also the label chaos faults carry in [Obs.Fault] events. *)

val overlay_of_fault : fault -> Obs.Stats.overlay
(** How the fault renders on a report's fault-overlay track: faults
    with a clear undo open/close a matching-key interval ([Crash] /
    [Torn_crash] until [Recover], [Partition] until [Heal], [Drop p>0]
    until [Drop 0], [Link_down] until [Link_up], [Skew f<>0] until
    [Skew 0]); one-shot storage damage is a point. *)

val overlay_of_label : string -> Obs.Stats.overlay
(** {!overlay_of_fault} on a {!fault_label}-syntax string (the label
    carried by [Obs.Fault] events); unparseable labels degrade to a
    point with the raw label. Pass this as [classify] to
    [Obs.Stats.create]. *)

val to_string : t -> string
(** Print in the line format; [of_string (to_string p)] re-reads [p]
    exactly (up to comment lines and float formatting of inputs that
    themselves round-trip). *)

val of_string : string -> (t, string) result
(** Parse the line format; the error names the offending line. *)

val max_brick : t -> int
(** Largest brick id any event touches, [-1] if none do; the harness
    checks plans against the deployment size with this. *)

val builtins : (string * t) list
(** The bundled plans, keyed by name: ["crash-storm"] (overlapping
    crash/recover waves, including a torn-write crash),
    ["rolling-partition"] (minority/majority splits sweeping the
    brick set, then a loss burst), ["torn-writes"] (repeated
    torn-write power cuts), ["bit-rot"] (silent corruption plus
    latent sector errors under clock skew), ["mc-mixed"] (crashes, a
    partition, background drop, a degraded-link window and a slow
    spell — only faults with a faithful multicore implementation, so
    the same text runs on both backends). All are written for a
    deployment of 5 bricks and at least 4 stripes. *)

val builtin : string -> t
(** @raise Not_found if no bundled plan has that name. *)

val random : rng:Random.State.t -> bricks:int -> horizon:float -> t
(** Generate a randomized mc-safe plan: sequential non-overlapping
    fault episodes (crash/recover, partition/heal, link-down/up,
    drop/stop, slow/restore), each held for a random window then
    undone before the next begins. Draws only faults both backends
    implement (no storage faults; no skew either), so a failing random
    soak replays on the sim backend.
    @raise Invalid_argument if [bricks < 2] or [horizon <= 0]. *)
