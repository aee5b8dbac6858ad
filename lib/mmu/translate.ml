exception Page_fault = Page_table.Page_fault
exception Ept_violation = Ept.Ept_violation

type access = { kind : Sky_sim.Memsys.kind; write : bool }

let data_read = { kind = Sky_sim.Memsys.Data; write = false }
let data_write = { kind = Sky_sim.Memsys.Data; write = true }
let fetch = { kind = Sky_sim.Memsys.Insn; write = false }

(* Everything on the path below is a toplevel function over explicit
   arguments. A local [let rec] or a [fun] capturing its environment
   would build a closure on every call; with tracing and faults off, a
   TLB hit, a refill and every nested walk allocate nothing. *)

(* Translate a guest-physical address through the current EPT, charging
   one cached data access per EPT entry read. Identity when the vCPU is
   not virtualized.

   The EPT walk cache memoizes gpn → hpn per EPT root (the hardware
   nested-walk cache): a hit skips the EPT walk and its per-entry
   memory accesses. Keyed by the EPT root's host-physical address, it
   is naturally correct across VMFUNC EPTP switches and guest-side
   flushes; EPT mutations invalidate it through the global epoch. *)
let ept_translate vcpu mem gpa =
  match vcpu.Vcpu.vmcs with
  | None -> gpa
  | Some vmcs ->
    let root_pa = Vmcs.current_eptp vmcs in
    let cpu = Vcpu.cpu vcpu in
    if not (Sky_sim.Accel.is_enabled ()) then Ept.translate ~cpu ~mem ~root_pa ~gpa
    else begin
      let wc = Sky_sim.Cpu.ept_walk_cache cpu in
      let pmu = Sky_sim.Cpu.pmu cpu in
      let gpn = gpa lsr 12 in
      let hpn = Sky_sim.Psc.lookup wc ~asid:root_pa ~key:gpn in
      if hpn >= 0 then begin
        Sky_sim.Pmu.count pmu Sky_sim.Pmu.Ept_walk_cache_hit;
        (hpn lsl 12) lor (gpa land 0xfff)
      end
      else begin
        Sky_sim.Pmu.count pmu Sky_sim.Pmu.Ept_walk_cache_miss;
        let hpa = Ept.translate ~cpu ~mem ~root_pa ~gpa in
        Sky_sim.Psc.insert wc ~asid:root_pa ~key:gpn (hpa lsr 12);
        hpa
      end
    end

let check_perms vcpu acc ~va ~writable ~user ~nx =
  let user_mode = match vcpu.Vcpu.mode with Vcpu.User -> true | Vcpu.Kernel -> false in
  if user_mode && not user then
    raise (Page_table.Page_fault (Page_table.Protection va));
  if acc.write && not writable then
    raise (Page_table.Page_fault (Page_table.Protection va));
  match acc.kind with
  | Sky_sim.Memsys.Insn when nx ->
    raise (Page_table.Page_fault (Page_table.Protection va))
  | _ -> ()

(* The cache holding pointers to tables at [level], and its key. *)
let psc_for cpu level =
  match level with
  | 0 -> Sky_sim.Cpu.psc_pde cpu
  | 1 -> Sky_sim.Cpu.psc_pdpte cpu
  | _ -> Sky_sim.Cpu.psc_pml4e cpu

let psc_key ~va level = va lsr (21 + (9 * level))

(* Nested guest walk from the table at [table_gpa] ([level] 3 = PML4):
   each guest table page is located through the EPT, then the entry is
   read with a cached access. Each level read on the way down is
   installed in the paging-structure caches, mirroring how hardware
   fills them. The leaf's permissions are checked against [acc]; the
   result is the leaf entry (bits 0..62, see {!Pte.w_addr}). *)
let rec walk_from vcpu cpu mem acc ~accel ~asid ~va table_gpa level =
  let table_hpa = ept_translate vcpu mem table_gpa in
  let epa = table_hpa + (Page_table.va_index ~level va * 8) in
  Sky_sim.Memsys.access cpu Sky_sim.Memsys.Data epa;
  let w = Sky_mem.Phys_mem.read_u63 mem epa in
  if not (Pte.w_present w) then
    raise (Page_table.Page_fault (Page_table.Not_present va))
  else if level = 0 then begin
    check_perms vcpu acc ~va ~writable:(Pte.w_writable w) ~user:(Pte.w_user w)
      ~nx:(Pte.nx_at mem epa);
    w
  end
  else begin
    let pa = Pte.w_addr w in
    if accel then
      Sky_sim.Psc.insert (psc_for cpu (level - 1)) ~asid ~key:(psc_key ~va (level - 1)) pa;
    walk_from vcpu cpu mem acc ~accel ~asid ~va pa (level - 1)
  end

(* The paging-structure caches (PDE, then PDPTE, then PML4E) let the
   walk resume at the deepest level whose next-table pointer is cached
   for this ASID and VA prefix — a PDE hit turns a 4-level nested walk
   into a single leaf read. Probes charge no cycles (they model on-core
   lookup structures). *)
let rec resume vcpu cpu mem acc ~asid ~va level =
  let pmu = Sky_sim.Cpu.pmu cpu in
  if level = 3 then begin
    Sky_sim.Pmu.count pmu Sky_sim.Pmu.Psc_miss;
    walk_from vcpu cpu mem acc ~accel:true ~asid ~va vcpu.Vcpu.cr3 3
  end
  else
    let table = Sky_sim.Psc.lookup (psc_for cpu level) ~asid ~key:(psc_key ~va level) in
    if table >= 0 then begin
      Sky_sim.Pmu.count pmu Sky_sim.Pmu.Psc_hit;
      walk_from vcpu cpu mem acc ~accel:true ~asid ~va table level
    end
    else resume vcpu cpu mem acc ~asid ~va (level + 1)

let guest_walk vcpu cpu mem acc ~va =
  (* Fault site "mmu.walk": a spurious EPT violation (or crash) injected
     into the nested walk — only fires inside a mediated-call scope. *)
  if Sky_faults.Fault.is_enabled () then
    Sky_faults.Fault.inject ~core:(Sky_sim.Cpu.id cpu) "mmu.walk";
  let asid = Vcpu.asid vcpu in
  if Sky_sim.Accel.is_enabled () then resume vcpu cpu mem acc ~asid ~va 0
  else walk_from vcpu cpu mem acc ~accel:false ~asid ~va vcpu.Vcpu.cr3 3

(* A TLB entry carries the flattened leaf permissions (no NX). *)
let serve_hit vcpu acc ~va tlb i =
  check_perms vcpu acc ~va ~writable:(Sky_sim.Tlb.writable tlb i)
    ~user:(Sky_sim.Tlb.user tlb i) ~nx:false;
  (Sky_sim.Tlb.ppn tlb i lsl 12) lor (va land 0xfff)

let refill vcpu cpu mem acc ~va ~tlb ~asid ~vpn =
  let c0 = Sky_sim.Cpu.cycles cpu in
  let w = guest_walk vcpu cpu mem acc ~va in
  let page_hpa = ept_translate vcpu mem (Pte.w_addr w) in
  Sky_sim.Tlb.insert tlb ~asid ~vpn ~ppn:(page_hpa lsr 12)
    ~writable:(Pte.w_writable w) ~user:(Pte.w_user w);
  Sky_sim.Pmu.add (Sky_sim.Cpu.pmu cpu) Sky_sim.Pmu.Walk_cycles
    (Sky_sim.Cpu.cycles cpu - c0);
  page_hpa lor (va land 0xfff)

(* The span's thunk is only built when tracing is on. *)
let traced_refill vcpu cpu mem acc ~va ~tlb ~asid ~vpn =
  if Sky_trace.Trace.is_enabled () then
    Sky_trace.Trace.span ~core:(Sky_sim.Cpu.id cpu) ~cat:"walk" "tlb.refill"
      (fun () -> refill vcpu cpu mem acc ~va ~tlb ~asid ~vpn)
  else refill vcpu cpu mem acc ~va ~tlb ~asid ~vpn

let translate vcpu mem acc ~va =
  let cpu = Vcpu.cpu vcpu in
  let tlb =
    match acc.kind with
    | Sky_sim.Memsys.Insn -> Sky_sim.Cpu.itlb cpu
    | Sky_sim.Memsys.Data -> Sky_sim.Cpu.dtlb cpu
  in
  let vpn = va lsr 12 in
  let asid = Vcpu.asid vcpu in
  let i = Sky_sim.Tlb.lookup tlb ~asid ~vpn in
  if i >= 0 then serve_hit vcpu acc ~va tlb i
  else traced_refill vcpu cpu mem acc ~va ~tlb ~asid ~vpn

let accessed vcpu mem acc ~va =
  let hpa = translate vcpu mem acc ~va in
  Sky_sim.Memsys.access (Vcpu.cpu vcpu) acc.kind hpa;
  hpa

let read_u8 vcpu mem ~va = Sky_mem.Phys_mem.read_u8 mem (accessed vcpu mem data_read ~va)

let write_u8 vcpu mem ~va v =
  Sky_mem.Phys_mem.write_u8 mem (accessed vcpu mem data_write ~va) v

let read_u64 vcpu mem ~va =
  Sky_mem.Phys_mem.read_u64 mem (accessed vcpu mem data_read ~va)

let write_u64 vcpu mem ~va v =
  Sky_mem.Phys_mem.write_u64 mem (accessed vcpu mem data_write ~va) v

(* Iterate a virtual range page by page, giving [f] the HPA and length of
   each in-page chunk, charging one cached access per 64-byte line. *)
let rec iter_range vcpu mem acc ~va ~len f off =
  if len > 0 then begin
    let n = min len (4096 - (va land 0xfff)) in
    let hpa = translate vcpu mem acc ~va in
    Sky_sim.Memsys.touch_range (Vcpu.cpu vcpu) acc.kind ~pa:hpa ~len:n;
    f ~hpa ~off ~len:n;
    iter_range vcpu mem acc ~va:(va + n) ~len:(len - n) f (off + n)
  end

let read_bytes vcpu mem ~va ~len =
  let dst = Bytes.create len in
  iter_range vcpu mem data_read ~va ~len
    (fun ~hpa ~off ~len ->
      Sky_mem.Phys_mem.blit_to mem ~src_pa:hpa ~dst ~dst_off:off ~len)
    0;
  dst

let write_bytes vcpu mem ~va src =
  iter_range vcpu mem data_write ~va ~len:(Bytes.length src)
    (fun ~hpa ~off ~len ->
      Sky_mem.Phys_mem.blit_from mem ~src ~src_off:off ~dst_pa:hpa ~len)
    0

let touch vcpu mem acc ~va ~len =
  if len > 0 then
    iter_range vcpu mem acc ~va ~len (fun ~hpa:_ ~off:_ ~len:_ -> ()) 0
