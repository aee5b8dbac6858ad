(** Open-loop (Poisson-arrival) load generator — the overload
    instrument. Offered load is configured independently of the service
    rate: arrivals fire from a global Poisson process and are spread
    over a tenant fleet that pipelines one request per connection,
    queues overflow client-side, and churns connections every
    [requests_per_conn] requests. Latency is measured arrival→response
    (coordinated-omission-free); responses are classified into goodput
    / shed / unservable / corrupt via {!Workload.classify}.

    Accounting invariant (checked by the overload gates):
    [offered = ok + shed + shed_wire + unservable + corrupt] once
    {!finished}. *)

type t

val create :
  Nic.t ->
  seed:int ->
  mix:Workload.mix ->
  tenants:int ->
  requests_per_conn:int ->
  mean_gap:int ->
  total:int ->
  rtt:int ->
  ?ttl:int ->
  files:(string * bytes) array ->
  keys:(string * bytes) array array ->
  unit ->
  t
(** [mean_gap] is the Poisson process's mean inter-arrival gap in
    cycles; [total] the number of arrivals to offer; [ttl] a relative
    deadline stamped on every request ([Http.with_ttl]). [keys.(i)]
    are tenant [i]'s provisioned warm keys — the caller must have
    inserted them server-side before the run (GETs read only these;
    PUTs write keys never read back, so shedding cannot fake
    corruption). *)

val start : t -> at:int -> unit
(** Install the TX hook and schedule the first arrival at [at]. *)

val step : t -> now:int -> Sky_sim.Machine.step
(** The arrival pump, driven by a dedicated wire-side core: inject all
    arrivals due by [now], then sleep to the next one; [Done] once all
    [total] arrivals have fired. *)

val next_event : t -> int option
(** Next arrival timestamp, if any remain — the {!Httpd} [wire_hint]. *)

val queue_done : t -> queue:int -> bool
val finished : t -> bool

val offered : t -> int

val ok : t -> int
(** Admitted requests answered with the expected body — the goodput. *)

val shed : t -> int
(** Typed 503s: queue-full or deadline-blown load shedding. *)

val shed_wire : t -> int
(** Requests dropped by a full RX ring at injection (the NIC as the
    outermost admission controller). *)

val unservable : t -> int
(** Terminal 403s — denied by every receiver. *)

val corrupt : t -> int
(** Lost, duplicated, or corrupted admitted requests — must be zero. *)

val errors : t -> int
(** [unservable + corrupt]. *)

val churns : t -> int
(** Connections retired and reopened (short-lived connection story). *)

val latencies : t -> Sky_trace.Histogram.t
(** Arrival→response latency of {e goodput} responses only (client-side
    queueing included — no coordinated omission). *)
