(** The key-value store server: an open-addressing hash table whose
    entries live in simulated guest memory, so inserts and lookups have
    real cache footprints proportional to key/value size — the driver of
    Figure 2's size axis. *)

type t

exception Table_full

val max_kv : int
(** Maximum key or value length (1024 — Figure 2's largest point). *)

val create : Sky_sim.Machine.t -> t

val insert : t -> Sky_sim.Cpu.t -> key:bytes -> value:bytes -> unit
(** Linear-probed insert or overwrite. *)

val query : t -> Sky_sim.Cpu.t -> key:bytes -> bytes option
val entries : t -> int
