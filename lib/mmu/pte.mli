(** 64-bit page-table / EPT entry encoding (x86-64 bit layout).

    Bit 0 present (EPT: readable), bit 1 writable, bit 2 user (EPT:
    executable), bit 7 PS (huge page), bit 63 NX; the frame number sits
    in bits 12..51. Shared by the guest page tables and the EPTs so a
    walker reads exactly what hardware would. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  huge : bool;
  nx : bool;
}

val rw : flags
(** Supervisor read/write (kernel data). *)

val urw : flags
(** User read/write (heaps, stacks, buffers). *)

val urx : flags
(** User read/execute (code pages, the trampoline). *)

val ur : flags
(** User read-only, no-execute (the calling-key table). *)

val absent : flags

val encode : pa:int -> flags -> int64
(** Raises [Invalid_argument] if [pa] is not page-aligned. *)

val decode : int64 -> int * flags
(** Physical address and flags of an entry. *)

val is_present : int64 -> bool

val zero : int64
(** The not-present entry. *)

(** {2 Allocation-free view}

    {!decode} builds a tuple and a record, and {!Sky_mem.Phys_mem.read_u64}
    boxes the word. Hot walkers instead read an entry with
    {!Sky_mem.Phys_mem.read_u63} (bits 0..62 as an unboxed [int]) and
    test it with these. *)

val w_present : int -> bool
val w_writable : int -> bool
val w_user : int -> bool
val w_huge : int -> bool

val w_addr : int -> int
(** The frame address (bits 12..51), as {!decode} returns it. *)

val nx_at : Sky_mem.Phys_mem.t -> int -> bool
(** [nx_at mem epa]: bit 63 of the entry at [epa], which does not fit in
    the [int] view. *)
