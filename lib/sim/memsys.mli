(** Physical memory access path through the cache hierarchy.

    Every physical access (instruction fetch, data load/store, page-table
    and EPT-entry read) goes through here. The access walks
    L1 → L2 → shared L3 → DRAM, charges the latency of the level that hit
    onto the core's cycle counter, and fills the missed levels. *)

type kind = Insn | Data

val access : Cpu.t -> kind -> int -> unit
(** [access cpu kind pa] performs one cached access to the line containing
    physical address [pa]: charges latency, updates miss counters. *)

val touch_range_state_only : Cpu.t -> kind -> pa:int -> len:int -> unit
(** Update cache contents and miss counters for every 64-byte line of
    [pa, pa+len) without charging latency. Used for kernel-path
    footprints whose execution cost is already covered by a measured
    constant — the {e pollution} is modelled, the cycles are not
    double-counted. *)

val access_uncached : Cpu.t -> unit
(** A DRAM access that bypasses the hierarchy (device memory). *)

val touch_range : Cpu.t -> kind -> pa:int -> len:int -> unit
(** Access every 64-byte line of [pa, pa+len) — used to model code or data
    footprints (e.g. the kernel text executed during an IPC).

    Exactly [access] on each line in order, run granular: each chunk of
    up to {!Cache.run_max} lines goes through L1, L2 and L3 in one call
    per level, and the core is charged once with the range's summed
    latency. While {!Sky_faults.Fault.is_enabled} it is the per-line
    [access] loop, so the ["sim.cycle"] site sees one check per line. *)
