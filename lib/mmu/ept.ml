type fault = Ept_not_present of int

exception Ept_violation of fault

type t = { root : int; owned : (int, unit) Hashtbl.t }

let full = { Pte.present = true; writable = true; user = true; huge = false; nx = false }
let full_huge = { full with huge = true }

let create alloc =
  let root = Sky_mem.Frame_alloc.alloc_frame alloc in
  let owned = Hashtbl.create 8 in
  Hashtbl.replace owned root ();
  { root; owned }

let root_pa t = t.root
let entry_pa table idx = table + (idx * 8)
let idx ~level gpa = Page_table.va_index ~level gpa

(* Size of the region one entry covers at [level]: 4 KiB at 0, 2 MiB at 1,
   1 GiB at 2, 512 GiB at 3. *)
let entry_shift level = 12 + (9 * level)

let map_identity_1g t ~mem ~alloc ~gib =
  (* All 1 GiB entries for [0, gib) live in PDPTs (level 2); one PML4
     entry covers 512 of them. *)
  let pml4_entries = (gib + 511) / 512 in
  for p = 0 to pml4_entries - 1 do
    let pdpt = Sky_mem.Frame_alloc.alloc_frame alloc in
    Hashtbl.replace t.owned pdpt ();
    Sky_mem.Phys_mem.write_u64 mem (entry_pa t.root p) (Pte.encode ~pa:pdpt full);
    let entries = min 512 (gib - (p * 512)) in
    for e = 0 to entries - 1 do
      let gpa = ((p * 512) + e) lsl 30 in
      Sky_mem.Phys_mem.write_u64 mem (entry_pa pdpt e)
        (Pte.encode ~pa:gpa full_huge)
    done
  done

let copy_table mem alloc src =
  let dst = Sky_mem.Frame_alloc.alloc_frame alloc in
  Sky_mem.Phys_mem.write_bytes mem dst (Sky_mem.Phys_mem.read_bytes mem src 4096);
  dst

let clone_shallow t ~mem ~alloc =
  let root = copy_table mem alloc t.root in
  let owned = Hashtbl.create 8 in
  Hashtbl.replace owned root ();
  { root; owned }

(* Split a huge entry at [level] (covering [base_pa, base_pa + size)) into
   a table of 512 next-level entries with the same mapping. *)
let split_huge t ~mem ~alloc ~parent_epa ~base_pa ~level =
  let table = Sky_mem.Frame_alloc.alloc_frame alloc in
  Hashtbl.replace t.owned table ();
  let child_size = 1 lsl (entry_shift (level - 1)) in
  let child_flags = if level - 1 = 0 then full else full_huge in
  for e = 0 to 511 do
    Sky_mem.Phys_mem.write_u64 mem (entry_pa table e)
      (Pte.encode ~pa:(base_pa + (e * child_size)) child_flags)
  done;
  Sky_mem.Phys_mem.write_u64 mem parent_epa (Pte.encode ~pa:table full);
  table

(* Descend to the 4 KiB leaf entry for [gpa], privatizing (copy-on-write)
   shared table pages and splitting huge entries on the way. Returns the
   PA of the leaf entry. *)
let leaf_entry_for_write t ~mem ~alloc ~gpa =
  let rec go table level =
    let epa = entry_pa table (idx ~level gpa) in
    if level = 0 then epa
    else begin
      let e = Sky_mem.Phys_mem.read_u64 mem epa in
      if not (Pte.is_present e) then begin
        (* Allocate a fresh empty table below. *)
        let child = Sky_mem.Frame_alloc.alloc_frame alloc in
        Hashtbl.replace t.owned child ();
        Sky_mem.Phys_mem.write_u64 mem epa (Pte.encode ~pa:child full);
        go child (level - 1)
      end
      else
        let pa, flags = Pte.decode e in
        if flags.Pte.huge then begin
          let base = pa land lnot ((1 lsl entry_shift level) - 1) in
          let child = split_huge t ~mem ~alloc ~parent_epa:epa ~base_pa:base ~level in
          go child (level - 1)
        end
        else if Hashtbl.mem t.owned pa then go pa (level - 1)
        else begin
          let child = copy_table mem alloc pa in
          Hashtbl.replace t.owned child ();
          Sky_mem.Phys_mem.write_u64 mem epa (Pte.encode ~pa:child full);
          go child (level - 1)
        end
    end
  in
  go t.root 3

let map_4k_flags t ~mem ~alloc ~gpa ~hpa ~flags =
  if gpa land 0xfff <> 0 || hpa land 0xfff <> 0 then
    invalid_arg "Ept.map_4k: unaligned";
  let epa = leaf_entry_for_write t ~mem ~alloc ~gpa in
  let old = Sky_mem.Phys_mem.read_u64 mem epa in
  let v = Pte.encode ~pa:hpa { flags with Pte.huge = false } in
  Sky_mem.Phys_mem.write_u64 mem epa v;
  (* Overwriting a live leaf (a remap) can strand cached translations
     anywhere in the machine — TLBs and EPT walk caches.
     Bump the global mutation epoch so they all lazily self-flush.
     Fresh installs can't invalidate a cached positive translation, so
     boot-time identity-map loops stay bump-free. *)
  if Pte.is_present old && old <> v then Sky_sim.Accel.bump ()

let map_4k t ~mem ~alloc ~gpa ~hpa = map_4k_flags t ~mem ~alloc ~gpa ~hpa ~flags:full

let unmap_4k t ~mem ~alloc ~gpa =
  let epa = leaf_entry_for_write t ~mem ~alloc ~gpa in
  let old = Sky_mem.Phys_mem.read_u64 mem epa in
  Sky_mem.Phys_mem.write_u64 mem epa Pte.zero;
  if Pte.is_present old then Sky_sim.Accel.bump ()

let remap_gpa = map_4k

let map_identity_4k t ~mem ~alloc ~mib =
  for page = 0 to (mib * 256) - 1 do
    let gpa = page * 4096 in
    map_4k t ~mem ~alloc ~gpa ~hpa:gpa
  done

let clone_deep t ~mem ~alloc =
  let owned = Hashtbl.create 64 in
  let rec copy table level =
    let dst = copy_table mem alloc table in
    Hashtbl.replace owned dst ();
    if level > 0 then
      for e = 0 to 511 do
        let epa = entry_pa dst e in
        let v = Sky_mem.Phys_mem.read_u64 mem epa in
        if Pte.is_present v then begin
          let pa, flags = Pte.decode v in
          if not flags.Pte.huge then begin
            let child = copy pa (level - 1) in
            Sky_mem.Phys_mem.write_u64 mem epa
              (Pte.encode ~pa:child { flags with Pte.huge = false })
          end
        end
      done;
    dst
  in
  let root = copy t.root 3 in
  { root; owned }

type walk_result = { hpa : int; entries_read : int list }

let walk ~mem ~root_pa ~gpa =
  let rec go table level acc =
    let epa = entry_pa table (idx ~level gpa) in
    let e = Sky_mem.Phys_mem.read_u64 mem epa in
    let acc = epa :: acc in
    if not (Pte.is_present e) then Error (Ept_not_present gpa)
    else
      let pa, flags = Pte.decode e in
      if level = 0 then
        Ok { hpa = pa lor (gpa land 0xfff); entries_read = List.rev acc }
      else if flags.Pte.huge then begin
        let mask = (1 lsl entry_shift level) - 1 in
        Ok { hpa = (pa land lnot mask) lor (gpa land mask); entries_read = List.rev acc }
      end
      else go pa (level - 1) acc
  in
  go root_pa 3 []

let charge_read cpu epa =
  if epa >= 0 then Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data epa

(* The hot nested-walk step. Entries are read unboxed, and the
   addresses of the up to three upper-level entries read so far ride in
   [r3 r2 r1] ([-1]: not read) instead of a list, so the walk allocates
   nothing. Like [walk], it charges the reads only once the walk
   succeeds, root first. *)
let rec translate_from cpu mem gpa table level r3 r2 r1 =
  let epa = entry_pa table (idx ~level gpa) in
  let w = Sky_mem.Phys_mem.read_u63 mem epa in
  if not (Pte.w_present w) then raise (Ept_violation (Ept_not_present gpa))
  else if level = 0 || Pte.w_huge w then begin
    charge_read cpu r3;
    charge_read cpu r2;
    charge_read cpu r1;
    charge_read cpu epa;
    let mask = (1 lsl entry_shift level) - 1 in
    (Pte.w_addr w land lnot mask) lor (gpa land mask)
  end
  else
    let next = Pte.w_addr w in
    match level with
    | 3 -> translate_from cpu mem gpa next 2 epa (-1) (-1)
    | 2 -> translate_from cpu mem gpa next 1 r3 epa (-1)
    | _ -> translate_from cpu mem gpa next 0 r3 r2 epa

let translate ~cpu ~mem ~root_pa ~gpa =
  translate_from cpu mem gpa root_pa 3 (-1) (-1) (-1)

let walk_flags ~mem ~root_pa ~gpa =
  let rec go table level =
    let epa = entry_pa table (idx ~level gpa) in
    let e = Sky_mem.Phys_mem.read_u64 mem epa in
    if not (Pte.is_present e) then Error (Ept_not_present gpa)
    else
      let pa, flags = Pte.decode e in
      if level = 0 || flags.Pte.huge then Ok (pa, flags)
      else go pa (level - 1)
  in
  go root_pa 3

let iter_leaves ~mem ~root_pa f =
  let rec go table level gpa_base =
    for e = 0 to 511 do
      let v = Sky_mem.Phys_mem.read_u64 mem (entry_pa table e) in
      if Pte.is_present v then begin
        let pa, flags = Pte.decode v in
        let gpa = gpa_base lor (e lsl entry_shift level) in
        if level = 0 || flags.Pte.huge then f ~gpa ~hpa:pa ~level ~flags
        else go pa (level - 1) gpa
      end
    done
  in
  go root_pa 3 0

let pages_owned t = Hashtbl.length t.owned

let destroy t ~alloc =
  Hashtbl.iter (fun pa () -> Sky_mem.Frame_alloc.free_frame alloc pa) t.owned;
  Hashtbl.reset t.owned;
  (* The root (and table) frames return to the allocator and may be
     recycled as a new EPT — including as a new root whose EPTP value
     would collide with ASID tags derived from this one. *)
  Sky_sim.Accel.bump ()
