(** One shard's worth of host-global simulator state, bundled.

    The simulator keeps a handful of process-wide singletons — the
    tracer's ring buffers, the fault engine's arms and the Accel epoch —
    because a single simulated machine is a single coherent world. Running several machines at once (parallel shards on
    OCaml domains, `--jobs` replicas) needs each world to carry its own
    copies, or shards would read each other's clocks and fire each
    other's faults. A [t] is that bundle; {!enter} installs it for the
    duration of a callback via each module's domain-local scoping hook,
    so everything the callback builds or runs sees only its own world. *)

type t = {
  sc_trace : Sky_trace.Trace.ctx;
  sc_fault : Sky_faults.Fault.engine;
  sc_accel : Accel.scope;
}

let fresh ?(seed = 0) () =
  {
    sc_trace = Sky_trace.Trace.fresh_ctx ();
    sc_fault = Sky_faults.Fault.fresh_engine ~seed ();
    sc_accel = Accel.fresh_scope ();
  }

let enter t f =
  Sky_trace.Trace.with_ctx t.sc_trace (fun () ->
      Sky_faults.Fault.with_engine t.sc_fault (fun () ->
          Accel.with_scope t.sc_accel f))
