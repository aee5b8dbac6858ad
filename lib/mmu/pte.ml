(** 64-bit page-table / EPT entry encoding.

    Uses the x86-64 layout: bit 0 present (EPT: read), bit 1 writable,
    bit 2 user (EPT: execute), bit 5 accessed, bit 6 dirty, bit 7 PS
    (huge page, at PDPT/PD level), bit 63 NX. The physical frame number
    occupies bits 12..51. *)

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  huge : bool;
  nx : bool;
}

let rw = { present = true; writable = true; user = false; huge = false; nx = false }
let urw = { rw with user = true }
let urx = { present = true; writable = false; user = true; huge = false; nx = false }
let ur = { present = true; writable = false; user = true; huge = false; nx = true }
let absent = { present = false; writable = false; user = false; huge = false; nx = false }

let bit b v = if v then Int64.shift_left 1L b else 0L
let test v b = Int64.logand (Int64.shift_right_logical v b) 1L = 1L

let addr_mask = 0x000F_FFFF_FFFF_F000L

let encode ~pa flags =
  let open Int64 in
  if pa land 0xfff <> 0 then
    invalid_arg (Printf.sprintf "Pte.encode: unaligned pa %#x" pa);
  logor
    (logand (of_int pa) addr_mask)
    (logor (bit 0 flags.present)
       (logor (bit 1 flags.writable)
          (logor (bit 2 flags.user)
             (logor (bit 7 flags.huge) (bit 63 flags.nx)))))

let decode v =
  let pa = Int64.to_int (Int64.logand v addr_mask) in
  ( pa,
    {
      present = test v 0;
      writable = test v 1;
      user = test v 2;
      huge = test v 7;
      nx = test v 63;
    } )

let is_present v = test v 0
let zero = 0L

(* Allocation-free view for walkers: [w] is an entry's bits 0..62 as
   read by [Phys_mem.read_u63]. NX (bit 63) is not among them; [nx_at]
   reads it from the entry's top byte. *)
let w_present w = w land 1 <> 0
let w_writable w = w land 2 <> 0
let w_user w = w land 4 <> 0
let w_huge w = w land 0x80 <> 0
let w_addr w = w land 0x000F_FFFF_FFFF_F000
let nx_at mem epa = Sky_mem.Phys_mem.read_u8 mem (epa + 7) land 0x80 <> 0
