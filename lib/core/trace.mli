(** Human-readable protocol tracing, as an {!Obs} sink over [Logs].

    The structured observability layer ({!Obs}) is the single source of
    protocol events; this module renders them one per line on the
    [fab.core] log source:

    {v
    fab.core: [debug] 12.0 c8 op=3 span-start write-stripe s=0
    fab.core: [debug] 12.0 c8 op=3 order phase-start
    fab.core: [debug] 12.0 b1 op=3 order send order -> b1 0B
    ...
    v}

    The log source starts at level [None], so an attached but silenced
    sink costs one level check per event. Enable it with
    {!enable_stderr}. The CLI exposes this as
    [fab_sim workload --trace]. *)

val enable_stderr : unit -> unit
(** Install a stderr reporter (if none is installed yet) and set the
    trace source to [Debug]. *)

val sink : unit -> Obs.Sink.t
(** A sink rendering every event through {!Obs.pp_event} at debug
    level; attach it to the deployment's hub to watch the protocol
    run. *)
