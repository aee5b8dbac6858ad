(** Paging-structure caches (PML4E / PDPTE / PDE) and the EPT walk
    cache: set-associative, LRU, ASID-tagged maps from an integer key
    (a virtual-address prefix, or a guest page number) to a non-negative
    integer payload (the next table's GPA, or a host page number). Backed by
    {!Tlb} storage, so flushes are O(1) and global mapping mutations
    invalidate them lazily via {!Accel}. *)

type t

val create : entries:int -> ways:int -> t

val lookup : t -> asid:int -> key:int -> int
(** The payload, or [-1] on a miss (no [option], so a probe allocates
    nothing). Hit updates LRU state and the hit counter; miss counts a
    miss. *)

val insert : t -> asid:int -> key:int -> int -> unit
(** [insert t ~asid ~key v] with [v >= 0]. *)

val flush_all : t -> unit
(** O(1) generation bump. *)

val flush_key : t -> key:int -> unit
(** Invalidate [key] under every ASID (INVLPG drops paging-structure
    entries regardless of PCID). *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
