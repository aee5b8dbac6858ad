(** End-to-end web-serving stack: load generator → RSS NIC → N skyhttpd
    workers (one per core) → KV + xv6fs backends, with the
    worker→backend hop over SkyBridge direct calls or the baseline
    kernel's synchronous IPC (the slowpath variant).

    Two front ends share the assembly: {!build} (closed-loop
    {!Loadgen}) and {!build_open} (the {b overload} stack — open-loop
    Poisson arrivals, admission control, deadline propagation, retry
    budgets and batched backend crossings). *)

type transport = Ipc_slowpath | Skybridge

type t

val default_conns : int
val default_requests_per_conn : int
val rtt : int

(** {2 Stack pieces} — shared with the composed service-mesh scenario
    ({!Sky_experiments.Exp_mesh} wires the same backends under a
    different worker/queue topology). *)

val kv_backend :
  Sky_ukernel.Kernel.t -> Sky_kvstore.Kv_server.t -> Sky_kernels.Ipc.handler
(** The KV store's wire handler ({!Sky_kvstore.Kv_wire.serve}), closed
    over a freshly allocated instruction working set (so each server
    generation pollutes the caches like a real process would). A 'B'
    request carries a whole batch of operations in one crossing. *)

val binding_of_calls :
  ?batch:bool ->
  call_kv:(core:int -> bytes -> bytes) ->
  call_fs:(core:int -> bytes -> bytes) ->
  revoke:(core:int -> unit) ->
  rebind:(core:int -> unit) ->
  unit ->
  Httpd.binding
(** Lift raw wire calls into a worker's typed {!Httpd.binding} (the FS
    side goes through {!Sky_xv6fs.Fs_iface.over_call}). [batch]
    (default false) fills {!Httpd.binding.kv_batch} with the 'B'-opcode
    single-crossing path. *)

val provision_files : Sky_xv6fs.Fs.t -> seed:int -> (string * bytes) array
(** Create the static files the load mix reads (deterministic printable
    contents) through the server-side FS handle; returns name/content
    pairs for the load generator's response validation. *)

val build :
  ?variant:Sky_ukernel.Config.variant ->
  ?seed:int ->
  ?cores:int ->
  ?conns:int ->
  ?requests_per_conn:int ->
  ?mix:Loadgen.mix ->
  ?disk_blocks:int ->
  workers:int ->
  transport:transport ->
  unit ->
  t
(** Builds the machine, kernel, backends (KV store, xv6fs over a RAM
    disk), NIC with [workers] queues, [workers] worker processes bound
    to the backends over [transport], and the load generator.
    SkyBridge workers call through {!Sky_core.Retry.call}, so injected
    backend crashes recover transparently. *)

val run : t -> unit
(** Drive the whole stack by virtual time until every connection has
    been answered. *)

type session
(** Resumable form of {!run}, for the quantum scheduler. *)

val start_run : t -> session
(** Arm the load generator and capture the start clock. *)

val advance : t -> session -> until:int -> [ `Paused | `Done ]
(** Drive the stack until every live core's clock reaches [until]
    ([`Paused]) or the workload drains ([`Done], at which point
    {!elapsed} and {!throughput} are valid). Chunked advances replay
    exactly the step sequence of one {!run}. *)

val throughput : t -> float
(** Requests per simulated second, over the busiest worker core's
    elapsed cycles. *)

val elapsed : t -> int
val loadgen : t -> Loadgen.t
val httpd : t -> Httpd.t
val nic : t -> Nic.t
val kernel : t -> Sky_ukernel.Kernel.t
val subkernel : t -> Sky_core.Subkernel.t option

val mesh : t -> Sky_mesh.Mesh.t option
(** The service mesh routing worker→backend calls on the SkyBridge
    path ([kv://], [fs://], [blk://] plus the name service itself). *)

val retry_stats : t -> Sky_core.Retry.stats option

val fs : t -> Sky_xv6fs.Fs.t
(** The mounted xv6fs backend (post-recovery handle on the SkyBridge
    path) — for fsck after a fault storm. *)

val worker_procs : t -> Sky_ukernel.Proc.t array
(** The worker processes, in core order — for per-process census
    (e.g. {!Sky_core.Subkernel.process_evictions}). *)

(** {2 Open-loop (overload) front end} *)

type open_t = {
  o_machine : Sky_sim.Machine.t;
  o_kernel : Sky_ukernel.Kernel.t;
  o_transport : transport;
  o_workers : int;
  o_nic : Nic.t;
  o_httpd : Httpd.t;
  o_ol : Openloop.t;
  o_sb : Sky_core.Subkernel.t option;
  o_mesh : Sky_mesh.Mesh.t option;
  o_rstats : Sky_core.Retry.stats option;
  o_budget : Sky_core.Retry.budget option;
  o_worker_procs : Sky_ukernel.Proc.t array;
  o_fs_cell : Sky_xv6fs.Fs.t ref;
  mutable o_elapsed : int;
}

val build_open :
  ?variant:Sky_ukernel.Config.variant ->
  ?seed:int ->
  ?requests_per_conn:int ->
  ?mix:Loadgen.mix ->
  ?disk_blocks:int ->
  ?retry_budget:bool ->
  ?admission:Httpd.admission ->
  ?ttl:int ->
  ?keys_per_tenant:int ->
  tenants:int ->
  mean_gap:int ->
  total:int ->
  workers:int ->
  transport:transport ->
  unit ->
  open_t
(** The overload stack: same backends and bindings as {!build}, but fed
    by an {!Openloop} Poisson generator ([mean_gap] cycles between
    arrivals, [total] arrivals, spread over [tenants] pipelined
    connections) pumped by one extra core at index [workers]. [ttl]
    stamps a relative deadline on every request wire-side; [admission]
    configures the server's queue bounds / default deadline / batching;
    [retry_budget] (default true) bounds crash-recovery retries with a
    token bucket so retries cannot amplify overload. Tenant warm keys are provisioned server-side
    before traffic starts. *)

val run_open : open_t -> unit
(** Drive workers + the arrival pump by virtual time until every
    arrival has been offered and resolved. *)
