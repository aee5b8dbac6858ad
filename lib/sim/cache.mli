(** Set-associative cache with LRU replacement.

    Models one level of the Skylake hierarchy (L1i, L1d, L2, shared L3).
    Caches are indexed and tagged by physical address, at 64-byte line
    granularity. Only presence is modelled (no dirty writeback timing):
    the SkyBridge experiments need miss *counts* and miss *latency*, not a
    coherence protocol. *)

type t

val create : size_bytes:int -> ways:int -> line_bytes:int -> t
(** Raises [Invalid_argument] unless [size_bytes] is divisible into an
    integral power-of-two number of sets of [ways] lines. *)

val access : t -> int -> bool
(** [access t pa] looks the line containing physical address [pa] up,
    inserting it (evicting the LRU way) on miss. Returns [true] on hit. *)

val run_max : int
(** Longest run one call takes: 64 lines, one 4 KiB page of 64-byte
    lines. *)

val access_run : t -> pa:int -> n:int -> int
(** [access_run t ~pa ~n] is [n] {!access} calls on consecutive lines,
    the first containing [pa] — same LRU updates, same counters, same
    order. Returns the number of misses [m] and records the missed
    lines' line-aligned addresses, in order, as this cache's {!missed}
    [0 .. m-1] (overwritten by the next run call).
    Raises [Invalid_argument] unless [0 <= n <= run_max]. *)

val access_missed : t -> src:t -> n:int -> int
(** [access_missed t ~src ~n] is {!access} on [missed src 0 .. n-1] in
    order: the next level of the hierarchy fed with the lines the level
    above just missed. Returns and records its own misses like
    {!access_run}. *)

val missed : t -> int -> int
(** [missed t i]: the [i]-th line the last run call on [t] missed. *)

val probe : t -> int -> bool
(** Lookup without inserting or updating LRU state. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
