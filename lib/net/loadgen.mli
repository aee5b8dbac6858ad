(** Closed-loop, RSS-aware load generator on the {!Nic}'s wire side.

    Each connection keeps one request outstanding; a response's TX
    completion schedules the next request [rtt] cycles later. Flow ids
    are chosen so RSS spreads connections evenly over queues, and every
    response is validated against the expected result — lost or corrupt
    requests surface in {!errors}. Runs entirely on the wire (DMA) side:
    no simulated-core cycles are charged to the client. *)

type mix = Workload.mix = { m_kv_get : int; m_kv_put : int; m_fs_get : int }
(** Relative request-type weights (shared with {!Openloop} via
    {!Workload}). *)

val default_mix : mix

type t

val create :
  Nic.t ->
  seed:int ->
  mix:mix ->
  conns:int ->
  requests_per_conn:int ->
  rtt:int ->
  files:(string * bytes) array ->
  t
(** [files] are the provisioned FS objects [Fs_get] requests draw from
    (name, expected contents). *)

val start : t -> at:int -> unit
(** Install the NIC TX hook and inject every connection's SYN (carrying
    its first request), staggered from cycle [at]. *)

val queue_done : t -> queue:int -> bool
(** No responses owed by [queue] — the serving worker may exit. *)

val responses : t -> int
val expected : t -> int
(** Total requests the run will issue ([conns * requests_per_conn]). *)

val errors : t -> int
(** Responses that failed validation (wrong value, bad status, unknown
    flow) — zero on a healthy run, {e and} on a chaos run, since crash
    recovery replays the in-flight request. *)

val latencies : t -> Sky_trace.Histogram.t
(** Wire-to-wire per-request latency (arrival at NIC to response TX),
    including queueing delay behind a busy worker. *)
