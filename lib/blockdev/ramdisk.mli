(** RAM-disk block device (§6.5: "We use a RAM disk device to work as the
    block device and the file system communicates with the device with
    IPC").

    Blocks live in simulated physical memory, so every transfer pulls
    real cache lines through the serving core's hierarchy. *)

type t

val block_size : int
(** 1024 bytes (xv6's BSIZE). *)

val create : Sky_sim.Machine.t -> nblocks:int -> t

val read : t -> Sky_sim.Cpu.t -> int -> bytes
(** Raises [Invalid_argument] out of range. *)

val write : t -> Sky_sim.Cpu.t -> int -> bytes -> unit
(** The payload must be exactly one block. *)

val write_from : t -> Sky_sim.Cpu.t -> int -> bytes -> off:int -> unit
(** [write_from t cpu blockno src ~off] writes the block held at
    [src.[off .. off + block_size)] in place, with no intermediate copy
    (the block server writes straight from the request message). *)

val in_range : t -> int -> bool
(** Whether a block number names a block of this disk. *)

val nblocks : t -> int
val reads : t -> int
val writes : t -> int
