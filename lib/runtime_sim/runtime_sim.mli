(** The deterministic runtime backend: Dessim wrapped as a
    {!Runtime.t}. Virtual time, cooperative fibers, all randomness
    from the engine's seeded stream — the reproducible oracle the
    chaos and linearizability harnesses run on. *)

val of_engine : Dessim.Engine.t -> Runtime.t
(** [of_engine e] is a runtime whose [now]/[rng]/[timer] are the
    engine's. Tasks run under {!Runtime.Task.handler}: [spawn] runs a
    task inline to its first suspension, a gate's opener continues
    its waiter inline, and [yield] re-queues the task as a 0-delay
    event. A gate awaited outside any task raises [Invalid_argument]. *)
