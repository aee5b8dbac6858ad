(** EPT and guest page-table invariant checker (§4.1, §4.3, §9).

    Invariants, by name:

    - [ept.wx] — no {e remapped} 4 KiB EPT leaf (one where GPA ≠ HPA,
      i.e. a mapping SkyBridge installed on top of the identity base
      EPT) is simultaneously writable and executable. Identity leaves
      (GPA = HPA) inherit the base EPT's RWX identity map of guest RAM
      — the guest page table gates those — so they are exempt unless
      they are the trampoline page, which [ept.trampoline] covers.
    - [ept.trampoline] — in every process/binding EPT the trampoline
      frame translates, is executable, and is {e not} writable: no
      process may forge the only legal VMFUNC-bearing page (§4.4).
    - [ept.eptp-slot] — every non-zero EPTP-list slot is 4 KiB aligned,
      inside physical memory, and the root of an EPT the Rootkernel
      knows about (base, process or binding EPT).
    - [pt.wx] — no guest page-table leaf is writable and executable
      (NX clear): W^X over whole address spaces (§9).
    - [pt.trampoline] — the trampoline VA of every registered process
      maps the shared trampoline frame read-execute, not writable. *)

open Sky_mmu

type input = {
  mem : Sky_mem.Phys_mem.t;
  phys_bytes : int;
  epts : (string * int) list;  (** (name, root PA); base EPT excluded *)
  known_roots : int list;  (** every legitimate EPTP value, base included *)
  eptp_lists : (string * Vmcs.t) list;
  page_tables : (string * int) list;  (** (process name, CR3) *)
  trampoline_gpa : int;  (** the shared trampoline frame (identity GPA) *)
  trampoline_va : int;
}

let check_ept_leaves inp name root vs =
  Ept.iter_leaves ~mem:inp.mem ~root_pa:root (fun ~gpa ~hpa ~level ~flags ->
      if
        level = 0 && gpa <> hpa && flags.Pte.writable && flags.Pte.user
        (* EPT bit 2 = execute *)
      then
        vs :=
          Report.v ~addr:gpa ~invariant:"ept.wx" ~image:name
            (Printf.sprintf "remapped leaf gpa %#x -> hpa %#x is writable+executable"
               gpa hpa)
          :: !vs)

let check_trampoline_ept inp name root vs =
  let fail detail =
    vs :=
      Report.v ~addr:inp.trampoline_gpa ~invariant:"ept.trampoline" ~image:name
        detail
      :: !vs
  in
  match Ept.walk ~mem:inp.mem ~root_pa:root ~gpa:inp.trampoline_gpa with
  | Error (Ept.Ept_not_present _) -> fail "trampoline gpa does not translate"
  | Ok { Ept.flags; _ } ->
    if flags.Pte.huge then
      fail "trampoline gpa still covered by a huge identity mapping (writable)"
    else begin
      if flags.Pte.writable then fail "trampoline page writable in EPT";
      if not flags.Pte.user then fail "trampoline page not executable in EPT"
    end

let check_eptp_list inp name vmcs vs =
  for index = 0 to Vmcs.eptp_list_size - 1 do
    let eptp = Vmcs.eptp_at vmcs ~index in
    if eptp <> 0 then begin
      let bad detail =
        vs :=
          Report.v ~addr:eptp ~invariant:"ept.eptp-slot" ~image:name
            (Printf.sprintf "slot %d: %s" index detail)
          :: !vs
      in
      if eptp land 0xfff <> 0 then bad "EPTP not 4 KiB aligned"
      else if eptp < 0 || eptp >= inp.phys_bytes then
        bad "EPTP outside physical memory"
      else if not (List.mem eptp inp.known_roots) then
        bad "EPTP is not a known EPT root"
    end
  done

let check_page_table inp name cr3 vs =
  let tramp = ref false in
  Page_table.iter_leaves ~mem:inp.mem ~root_pa:cr3 (fun ~va ~pa ~flags ->
      if flags.Pte.writable && not flags.Pte.nx then
        vs :=
          Report.v ~addr:va ~invariant:"pt.wx" ~image:name
            (Printf.sprintf "va %#x -> pa %#x writable+executable" va pa)
          :: !vs;
      if va = inp.trampoline_va then begin
        tramp := true;
        let bad detail =
          vs :=
            Report.v ~addr:va ~invariant:"pt.trampoline" ~image:name detail
            :: !vs
        in
        if pa <> inp.trampoline_gpa then
          bad
            (Printf.sprintf "trampoline va maps %#x, not the shared frame %#x"
               pa inp.trampoline_gpa);
        if flags.Pte.writable then bad "trampoline va writable";
        if flags.Pte.nx then bad "trampoline va not executable"
      end);
  if not !tramp then
    vs :=
      Report.v ~addr:inp.trampoline_va ~invariant:"pt.trampoline" ~image:name
        "trampoline va not mapped"
      :: !vs

let check inp =
  let vs = ref [] in
  List.iter (fun (name, root) ->
      check_ept_leaves inp name root vs;
      check_trampoline_ept inp name root vs)
    inp.epts;
  List.iter (fun (name, vmcs) -> check_eptp_list inp name vmcs vs) inp.eptp_lists;
  List.iter (fun (name, cr3) -> check_page_table inp name cr3 vs) inp.page_tables;
  Report.sort !vs
