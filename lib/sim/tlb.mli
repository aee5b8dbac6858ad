(** Translation look-aside buffer.

    Set-associative, LRU, keyed by virtual page number and an address-space
    identifier. The ASID is an opaque tag composed by the MMU layer from
    (VPID, PCID, EPTP root) so that, as on real hardware with VPID+PCID
    enabled, neither CR3 writes nor VMFUNC EPTP switches need flush the
    TLB — stale entries are simply never matched.

    All flushes are O(1) on the slot array: [flush_all] bumps a
    generation counter, [flush_asid] records a per-ASID LRU-clock floor,
    and mapping mutations elsewhere in the machine (EPT unmap/remap,
    guest page-table unmap/protect, table teardown) invalidate every
    instance lazily through the global {!Accel} mutation epoch. *)

type t

val create : name:string -> entries:int -> ways:int -> t

val name : t -> string
val capacity : t -> int

(** {2 Slots}

    Lookups return the index of the slot holding the entry ([-1] on a
    miss) and the payload is read through that index, so nothing on the
    lookup, hit or insert path allocates. Read the payload before the
    next {!insert} on the same TLB, which may reuse the slot. *)

val lookup : t -> asid:int -> vpn:int -> int
(** The live slot for (asid, vpn), or [-1]. A hit updates LRU state and
    the hit counter; a miss counts a miss. *)

val ppn : t -> int -> int
(** Physical page number the slot's VPN maps to. *)

val writable : t -> int -> bool
val user : t -> int -> bool

val insert :
  t -> asid:int -> vpn:int -> ppn:int -> writable:bool -> user:bool -> unit
(** Install (or overwrite) the entry for (asid, vpn), evicting a dead
    slot or the LRU way of its set. *)

val flush_all : t -> unit
(** O(1): bumps the generation counter. *)

val flush_asid : t -> asid:int -> unit
(** Invalidate every entry tagged [asid] (INVPCID-style). O(1). *)

val flush_page : t -> asid:int -> vpn:int -> unit
(** INVLPG-style single-entry invalidation. *)

val flush_vpn_all_asids : t -> vpn:int -> unit
(** Invalidate [vpn] under every ASID (INVLPG also drops
    paging-structure-cache entries regardless of PCID). O(ways). *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
