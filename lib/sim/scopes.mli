(** One shard's worth of host-global simulator state, bundled: tracer
    context, fault engine and Accel epoch scope.

    Parallel shards (and `--jobs` replicas) each build a fresh bundle
    and run their whole machine inside {!enter}, so the domain-local
    scoping hooks of the individual modules all point at that shard's
    private copies and nothing leaks between worlds. *)

type t = {
  sc_trace : Sky_trace.Trace.ctx;
  sc_fault : Sky_faults.Fault.engine;
  sc_accel : Accel.scope;
}

val fresh : ?seed:int -> unit -> t
(** A new, independent world: empty tracer, disabled fault engine seeded
    with [seed], fresh Accel epoch. *)

val enter : t -> (unit -> 'a) -> 'a
(** Run [f] with every scoped singleton bound to this bundle. Nests:
    entering another bundle inside [f] shadows this one until it
    returns. *)
