(* Tests for the translation-acceleration layer: the paging-structure
   caches and EPT walk cache must be pure accelerators —
   observably identical to the cache-free reference walker under any
   interleaving of mapping mutations, flushes, CR3 writes and VMFUNC
   EPTP switches. *)

open Sky_mem
open Sky_sim
open Sky_mmu

(* ------------------------------------------------------------------ *)
(* Reference walker: the cache-free nested translation, replicating     *)
(* Translate.translate's semantics (including the quirk that guest      *)
(* intermediate entries are always treated as next-table pointers)      *)
(* without touching any acceleration structure.                         *)
(* ------------------------------------------------------------------ *)

let ref_translate vcpu mem ~write ~va =
  let ept gpa =
    match vcpu.Vcpu.vmcs with
    | None -> gpa
    | Some vmcs -> (
      match Ept.walk ~mem ~root_pa:(Vmcs.current_eptp vmcs) ~gpa with
      | Ok r -> r.Ept.hpa
      | Error f -> raise (Ept.Ept_violation f))
  in
  let rec go table_gpa level =
    let table_hpa = ept table_gpa in
    let e = Phys_mem.read_u64 mem (table_hpa + (Page_table.va_index ~level va * 8)) in
    if not (Pte.is_present e) then
      raise (Page_table.Page_fault (Page_table.Not_present va))
    else
      let pa, flags = Pte.decode e in
      if level = 0 then (pa, flags) else go pa (level - 1)
  in
  let page_gpa, flags = go vcpu.Vcpu.cr3 3 in
  if vcpu.Vcpu.mode = Vcpu.User && not flags.Pte.user then
    raise (Page_table.Page_fault (Page_table.Protection va));
  if write && not flags.Pte.writable then
    raise (Page_table.Page_fault (Page_table.Protection va));
  ept page_gpa lor (va land 0xfff)

(* Collapse a translation attempt into a comparable outcome. *)
let outcome f =
  match f () with
  | hpa -> Printf.sprintf "hpa:%x" hpa
  | exception Page_table.Page_fault (Page_table.Not_present v) ->
    Printf.sprintf "not_present:%x" v
  | exception Page_table.Page_fault (Page_table.Protection v) ->
    Printf.sprintf "protection:%x" v
  | exception Ept.Ept_violation _ -> "ept_violation"

(* ------------------------------------------------------------------ *)
(* Equivalence property                                                 *)
(* ------------------------------------------------------------------ *)

(* The op universe: two guest page tables (PCIDs 1/2), two EPTs on the
   EPTP list, a handful of VAs spanning distinct PDE/PDPTE/PML4E
   prefixes, and a small pool of data frames. *)

let vas = [| 0x400000; 0x401000; 0x402000; 0x600000; 0x4000_0000; 0x80_0000_0000 |]
let flag_pool = [| Pte.urw; Pte.ur; Pte.rw |]

type world = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  vcpu : Vcpu.t;
  pts : Page_table.t array;
  epts : Ept.t array;
  frames : int array;
}

let mk_world () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pts = [| Page_table.create alloc; Page_table.create alloc |] in
  let frames = Array.init 6 (fun _ -> Frame_alloc.alloc_frame alloc) in
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:1;
  let epts =
    [| Ept.clone_shallow base ~mem ~alloc; Ept.clone_shallow base ~mem ~alloc |]
  in
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa epts.(0); Ept.root_pa epts.(1) ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pts.(0)) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  { mem; alloc; vcpu; pts; epts; frames }

(* One op = (tag, a, b, c) small ints; interpretation below. Every
   translate op compares the accelerated walker against the reference. *)
let apply w ok (tag, a, b, c) =
  let va = vas.(a mod Array.length vas) in
  let frame = w.frames.(b mod Array.length w.frames) in
  match tag mod 8 with
  | 0 ->
    Page_table.map w.pts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~va ~pa:frame
      ~flags:flag_pool.(c mod Array.length flag_pool)
  | 1 -> Page_table.unmap w.pts.(a mod 2) ~mem:w.mem ~va
  | 2 -> Vcpu.invlpg w.vcpu ~va
  | 3 ->
    let i = a mod 2 in
    Vcpu.write_cr3 w.vcpu ~cr3:(Page_table.root_pa w.pts.(i)) ~pcid:(i + 1)
  | 4 -> Vmfunc.execute w.vcpu ~func:0 ~index:(a mod 2)
  | 5 -> Ept.unmap_4k w.epts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~gpa:frame
  | 6 ->
    Ept.remap_gpa w.epts.(a mod 2) ~mem:w.mem ~alloc:w.alloc ~gpa:frame
      ~hpa:w.frames.(c mod Array.length w.frames)
  | _ ->
    let write = c land 1 = 1 in
    let acc = if write then Translate.data_write else Translate.data_read in
    let got = outcome (fun () -> Translate.translate w.vcpu w.mem acc ~va) in
    let want = outcome (fun () -> ref_translate w.vcpu w.mem ~write ~va) in
    if got <> want then
      ok :=
        Some
          (Printf.sprintf "va=%x write=%b: accelerated=%s reference=%s" va
             write got want)

let prop_accel_equals_reference =
  QCheck.Test.make
    ~name:"accelerated translation == cache-free reference under mutations"
    ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 60)
        (quad (int_bound 7) (int_bound 15) (int_bound 15) (int_bound 15)))
    (fun ops ->
      let w = mk_world () in
      let bad = ref None in
      List.iter (apply w bad) ops;
      (* Sweep every VA at the end so sequences ending in mutations are
         still checked. *)
      List.iteri (fun i _ -> apply w bad (7, i, 0, i)) (Array.to_list vas);
      match !bad with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* The charged EPT step against the list-returning walk                 *)
(* ------------------------------------------------------------------ *)

(* GPA regions: inside the first GiB (identity-mapped by 1 GiB pages
   when [huge]), just past it, and under a different PML4 entry. *)
let ept_regions = [| 0x20_0000; 0x4000_0000; 0x80_0000_0000 |]

let ept_gpa (region, page, off) =
  ept_regions.(region mod Array.length ept_regions) + (page * 4096) + off

let charged_reads cpu =
  let l1d = Cpu.l1d cpu in
  Cache.hits l1d + Cache.misses l1d

(* Random EPT shapes (empty, or 1 GiB identity pages split on demand)
   under random 4 KiB map/unmap; every probe must agree with
   [Ept.walk] on the HPA, charge exactly one data access per entry it
   lists on success, and charge nothing on a violation. *)
let prop_ept_translate_matches_walk =
  QCheck.Test.make
    ~name:"Ept.translate == Ept.walk, reads charged only on success"
    ~count:100
    QCheck.(
      triple bool
        (list_of_size (Gen.int_range 0 30)
           (quad (int_bound 2) (int_bound 2) (int_bound 31) (int_bound 63)))
        (list_of_size (Gen.int_range 1 40)
           (triple (int_bound 2) (int_bound 31) (int_bound 4095))))
    (fun (huge, muts, probes) ->
      let machine = Machine.create ~cores:1 ~mem_mib:64 () in
      let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
      let cpu = Machine.core machine 0 in
      let ept = Ept.create alloc in
      if huge then Ept.map_identity_1g ept ~mem ~alloc ~gib:1;
      List.iter
        (fun (op, region, page, target) ->
          let gpa = ept_gpa (region, page, 0) in
          match op with
          | 0 -> Ept.unmap_4k ept ~mem ~alloc ~gpa
          | _ -> Ept.map_4k ept ~mem ~alloc ~gpa ~hpa:(0x10_0000 + (target * 4096)))
        muts;
      let root_pa = Ept.root_pa ept in
      List.for_all
        (fun probe ->
          let gpa = ept_gpa probe in
          let reads0 = charged_reads cpu and c0 = Cpu.cycles cpu in
          let got =
            match Ept.translate ~cpu ~mem ~root_pa ~gpa with
            | hpa -> Ok hpa
            | exception Ept.Ept_violation f -> Error f
          in
          let reads = charged_reads cpu - reads0 in
          match (Ept.walk ~mem ~root_pa ~gpa, got) with
          | Ok r, Ok hpa ->
            hpa = r.Ept.hpa && reads = List.length r.Ept.entries_read
          | Error f, Error f' -> f = f' && reads = 0 && Cpu.cycles cpu = c0
          | _ -> false)
        probes)

(* ------------------------------------------------------------------ *)
(* Counters: accel on vs off, and pinned values                         *)
(* ------------------------------------------------------------------ *)

let with_accel enabled f =
  let saved = Accel.is_enabled () in
  Accel.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Accel.set_enabled saved) f

let accel_events =
  Pmu.[ Psc_hit; Psc_miss; Ept_walk_cache_hit; Ept_walk_cache_miss; Walk_cycles ]

let all_events =
  Pmu.[ Ipi_sent; Vm_exit; Vmfunc_exec; Syscall_exec; Cr3_write; Ipc_roundtrip;
        Instruction; Wrpkru_exec ]
  @ accel_events

(* Everything a translation can move: cycles, the PMU vector, and the
   hit/miss counts of every cache, TLB and paging-structure cache. *)
let counters w =
  let cpu = Vcpu.cpu w.vcpu in
  let pmu = Cpu.pmu cpu in
  let hm name h m = Printf.sprintf "%s=%d/%d" name h m in
  let cache name c = hm name (Cache.hits c) (Cache.misses c) in
  let tlb name t = hm name (Tlb.hits t) (Tlb.misses t) in
  let psc name p = hm name (Psc.hits p) (Psc.misses p) in
  String.concat " "
    ([ Printf.sprintf "cycles=%d" (Cpu.cycles cpu) ]
    @ List.map (fun ev -> Printf.sprintf "%s=%d" (Pmu.name ev) (Pmu.read pmu ev)) all_events
    @ [
        cache "l1i" (Cpu.l1i cpu); cache "l1d" (Cpu.l1d cpu); cache "l2" (Cpu.l2 cpu);
        cache "l3" (Cpu.l3 cpu); tlb "itlb" (Cpu.itlb cpu); tlb "dtlb" (Cpu.dtlb cpu);
        psc "pml4e" (Cpu.psc_pml4e cpu); psc "pdpte" (Cpu.psc_pdpte cpu);
        psc "pde" (Cpu.psc_pde cpu); psc "ept_wc" (Cpu.ept_walk_cache cpu);
      ])

(* The counters accel must not move: the leaf TLBs and every PMU event
   outside the acceleration ones. *)
let accel_invariant_counters w =
  let cpu = Vcpu.cpu w.vcpu in
  let pmu = Cpu.pmu cpu in
  ( Tlb.hits (Cpu.itlb cpu), Tlb.misses (Cpu.itlb cpu),
    Tlb.hits (Cpu.dtlb cpu), Tlb.misses (Cpu.dtlb cpu),
    List.filter_map
      (fun ev -> if List.mem ev accel_events then None else Some (Pmu.read pmu ev))
      all_events )

(* Run [ops] on a fresh world; the outcome of every translation in
   order, and the world for its counters. *)
let run_ops ops =
  let w = mk_world () in
  let outcomes = ref [] in
  List.iter
    (fun ((tag, a, _, c) as op) ->
      if tag mod 8 = 7 then begin
        let va = vas.(a mod Array.length vas) in
        let acc = if c land 1 = 1 then Translate.data_write else Translate.data_read in
        outcomes := outcome (fun () -> Translate.translate w.vcpu w.mem acc ~va) :: !outcomes
      end
      else apply w (ref None) op)
    ops;
  (List.rev !outcomes, w)

let op_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 60)
      (quad (int_bound 7) (int_bound 15) (int_bound 15) (int_bound 15)))

let prop_accel_on_off_counters =
  QCheck.Test.make ~name:"accel on/off: same outcomes, TLB and non-accel PMU counts"
    ~count:60 op_gen
    (fun ops ->
      let on_, w_on = with_accel true (fun () -> run_ops ops) in
      let off, w_off = with_accel false (fun () -> run_ops ops) in
      on_ = off && accel_invariant_counters w_on = accel_invariant_counters w_off)

(* A fixed op sequence, counters pinned to the values the walker
   produced before its hot path was made allocation-free: the rewrite
   must be bit-identical in simulated behaviour, accel on and off. *)
let pinned_ops =
  let rng = Rng.create ~seed:12 in
  List.init (Array.length vas) (fun i -> (0, i, i, 0))
  @ List.init 400 (fun _ ->
      let tag = if Rng.int rng 8 = 0 then Rng.int rng 7 else 7 in
      (tag, Rng.int rng 16, Rng.int rng 16, Rng.int rng 16))

let pinned_on =
  "77dbd3867ab356ed9d1e7dcc555af0e5 | "
  ^ "cycles=14214 ipi_sent=0 vm_exit=0 vmfunc=4 syscall=0 cr3_write=9 ipc_roundtrip=0 instruction=0 wrpkru=0 psc_hit=242 psc_miss=50 ept_walk_cache_hit=262 ept_walk_cache_miss=231 walk_cycles=3596 l1i=0/0 l1d=1096/202 l2=175/27 l3=0/27 itlb=0/0 dtlb=64/292 pml4e=35/50 pdpte=40/85 pde=167/125 ept_wc=262/231"

let pinned_off =
  "77dbd3867ab356ed9d1e7dcc555af0e5 | "
  ^ "cycles=30534 ipi_sent=0 vm_exit=0 vmfunc=4 syscall=0 cr3_write=9 ipc_roundtrip=0 instruction=0 wrpkru=0 psc_hit=0 psc_miss=0 ept_walk_cache_hit=0 ept_walk_cache_miss=0 walk_cycles=4972 l1i=0/0 l1d=5098/228 l2=201/27 l3=0/27 itlb=0/0 dtlb=64/292 pml4e=0/0 pdpte=0/0 pde=0/0 ept_wc=0/0"

let test_pinned_counters () =
  let digest enabled =
    with_accel enabled (fun () ->
        let outcomes, w = run_ops pinned_ops in
        Printf.sprintf "%s | %s" (Digest.to_hex (Digest.string (String.concat "," outcomes)))
          (counters w))
  in
  Alcotest.(check string) "accel on" pinned_on (digest true);
  Alcotest.(check string) "accel off" pinned_off (digest false)

(* ------------------------------------------------------------------ *)
(* The hot path allocates nothing                                       *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Pingpong's rig: a virtualized kernel (nested walks through the
   Rootkernel's EPT), a user process with a 96-page working set —
   beyond the 64-entry dTLB, so a sweep refills on every page. *)
let ws_pages = 96

let pingpong_rig () =
  let open Sky_ukernel in
  let machine = Machine.create ~cores:2 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  ignore (Sky_core.Subkernel.init kernel);
  let client = Kernel.spawn kernel ~name:"client" in
  let ws = Kernel.map_anon kernel client (ws_pages * 4096) in
  Kernel.context_switch kernel ~core:0 client;
  let vcpu = Kernel.vcpu kernel ~core:0 in
  Vcpu.set_mode vcpu Vcpu.User;
  (vcpu, Kernel.mem kernel, ws)

let check_no_alloc name f =
  Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (minor_words f)

let test_hot_path_allocates_nothing () =
  Alcotest.(check bool) "tracing off" false (Sky_trace.Trace.is_enabled ());
  Alcotest.(check bool) "faults off" false (Sky_faults.Fault.is_enabled ());
  check_no_alloc "empty thunk" (fun () -> ());
  let run accel =
    with_accel accel @@ fun () ->
    let vcpu, mem, ws = pingpong_rig () in
    let cpu = Vcpu.cpu vcpu in
    let dtlb = Cpu.dtlb cpu in
    let xlate page = ignore (Translate.translate vcpu mem Translate.data_read ~va:(ws + (page * 4096))) in
    let sweep n = for i = 0 to n - 1 do xlate (i mod ws_pages) done in
    (* Warm: materialize frames, grow tables, fill the caches. *)
    sweep (3 * ws_pages);
    let label s = Printf.sprintf "accel %b: %s" accel s in
    let l1d = Cpu.l1d cpu in
    check_no_alloc (label "10k Cache.access") (fun () ->
        for i = 0 to 9_999 do
          ignore (Cache.access l1d ((i land 1023) * 64))
        done);
    let hits0 = Tlb.hits dtlb in
    check_no_alloc (label "1k TLB-hit translates") (fun () ->
        for i = 0 to 999 do xlate (i land 7) done);
    Alcotest.(check bool) (label "those were hits") true (Tlb.hits dtlb - hits0 >= 992);
    sweep ws_pages;
    let misses0 = Tlb.misses dtlb in
    check_no_alloc (label "1k refill translates") (fun () -> sweep 1000);
    Alcotest.(check int) (label "every one refilled") 1000 (Tlb.misses dtlb - misses0);
    (* Ranges: one line, a 1 KiB block, and 130 lines (three chunks). *)
    let pa = Translate.translate vcpu mem Translate.data_read ~va:ws in
    List.iter
      (fun lines ->
        let len = lines * 64 in
        check_no_alloc
          (label (Printf.sprintf "touch_range %d lines" lines))
          (fun () ->
            for _ = 1 to 100 do
              Memsys.touch_range cpu Memsys.Data ~pa ~len
            done);
        check_no_alloc
          (label (Printf.sprintf "touch_range_state_only %d lines" lines))
          (fun () ->
            for _ = 1 to 100 do
              Memsys.touch_range_state_only cpu Memsys.Insn ~pa ~len
            done))
      [ 1; 16; 130 ];
    check_no_alloc (label "Translate.touch 4 KiB across a page") (fun () ->
        for _ = 1 to 100 do
          Translate.touch vcpu mem Translate.data_read ~va:(ws + 100) ~len:4096
        done)
  in
  run true;
  run false

(* ------------------------------------------------------------------ *)
(* Targeted regressions                                                 *)
(* ------------------------------------------------------------------ *)

(* A guest unmap must fault on the very next access: neither the TLB,
   nor the PSCs may serve the stale leaf. *)
let test_stale_psc_after_unmap () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.urw;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  (* Warm every structure: TLB and PSCs. *)
  for _ = 1 to 3 do
    ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  done;
  Page_table.unmap pt ~mem ~va:0x400000;
  match
    outcome (fun () -> Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  with
  | "not_present:400000" -> ()
  | other -> Alcotest.failf "expected not_present after unmap, got %s" other

(* An EPT unmap must likewise be visible immediately, even though the
   guest page table is untouched. *)
let test_stale_tlb_after_ept_unmap () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.urw;
  let ept = Ept.create alloc in
  Ept.map_identity_1g ept ~mem ~alloc ~gib:1;
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa ept ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  for _ = 1 to 3 do
    ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  done;
  Ept.unmap_4k ept ~mem ~alloc ~gpa:frame;
  match
    outcome (fun () -> Translate.translate vcpu mem Translate.data_read ~va:0x400000)
  with
  | "ept_violation" -> ()
  | other -> Alcotest.failf "expected ept_violation after EPT unmap, got %s" other

(* Figure-6 configuration: the same VA resolves through different guest
   page tables on either side of a VMFUNC (CR3-remap trick). A TLB
   entry tagged with the client's ASID must never answer for the
   server's, and vice versa — with VPID on, so nothing is flushed. *)
let test_tlb_asid_across_vmfunc () =
  let machine = Machine.create ~cores:1 ~mem_mib:64 () in
  let mem = machine.Machine.mem and alloc = machine.Machine.alloc in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let client_pt = Page_table.create alloc in
  let server_pt = Page_table.create alloc in
  let va = 0x400000 in
  let client_frame = Frame_alloc.alloc_frame alloc in
  let server_frame = Frame_alloc.alloc_frame alloc in
  Page_table.map client_pt ~mem ~alloc ~va ~pa:client_frame ~flags:Pte.urw;
  Page_table.map server_pt ~mem ~alloc ~va ~pa:server_frame ~flags:Pte.urw;
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:1;
  let client_ept = Ept.clone_shallow base ~mem ~alloc in
  let server_ept = Ept.clone_shallow base ~mem ~alloc in
  Ept.remap_gpa server_ept ~mem ~alloc
    ~gpa:(Page_table.root_pa client_pt)
    ~hpa:(Page_table.root_pa server_pt);
  let vmcs = Vmcs.create ~vpid:true () in
  Vmcs.install_list vmcs [ Ept.root_pa client_ept; Ept.root_pa server_ept ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa client_pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  let xlate () = Translate.translate vcpu mem Translate.data_read ~va in
  (* Three accesses: a miss and refill, then TLB hits. *)
  for _ = 1 to 3 do
    Alcotest.(check int) "client frame" client_frame (xlate ())
  done;
  Vmfunc.execute vcpu ~func:0 ~index:1;
  for _ = 1 to 3 do
    Alcotest.(check int) "server frame after VMFUNC" server_frame (xlate ())
  done;
  Vmfunc.execute vcpu ~func:0 ~index:0;
  Alcotest.(check int) "client frame again" client_frame (xlate ())

(* ------------------------------------------------------------------ *)
(* Tlb / Psc flush-path units (the O(1) generation/floor machinery)     *)
(* ------------------------------------------------------------------ *)

(* Insert a user-writable entry; look one up as [Some ppn] or [None]. *)
let insert t ~asid ~vpn ppn = Tlb.insert t ~asid ~vpn ~ppn ~writable:true ~user:true

let lookup t ~asid ~vpn =
  let i = Tlb.lookup t ~asid ~vpn in
  if i < 0 then None else Some (Tlb.ppn t i)

let test_tlb_flush_all_then_reuse () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  insert t ~asid:1 ~vpn:5 100;
  insert t ~asid:2 ~vpn:9 200;
  Tlb.flush_all t;
  Alcotest.(check bool) "asid1 gone" true (lookup t ~asid:1 ~vpn:5 = None);
  Alcotest.(check bool) "asid2 gone" true (lookup t ~asid:2 ~vpn:9 = None);
  (* Slots are reusable after the generation bump. *)
  insert t ~asid:1 ~vpn:5 300;
  Alcotest.(check bool) "reinsert lives" true
    (lookup t ~asid:1 ~vpn:5 = Some 300)

let test_tlb_flush_asid_is_selective () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  insert t ~asid:1 ~vpn:5 100;
  insert t ~asid:2 ~vpn:5 200;
  Tlb.flush_asid t ~asid:1;
  Alcotest.(check bool) "asid1 flushed" true (lookup t ~asid:1 ~vpn:5 = None);
  Alcotest.(check bool) "asid2 survives" true
    (lookup t ~asid:2 ~vpn:5 = Some 200);
  (* A fresh insert under the flushed ASID must not be floored away. *)
  insert t ~asid:1 ~vpn:5 300;
  Alcotest.(check bool) "post-flush insert lives" true
    (lookup t ~asid:1 ~vpn:5 = Some 300)

let test_psc_flush_key_all_asids () =
  let p = Psc.create ~entries:16 ~ways:4 in
  Psc.insert p ~asid:1 ~key:7 100;
  Psc.insert p ~asid:2 ~key:7 200;
  Psc.insert p ~asid:1 ~key:8 300;
  Psc.flush_key p ~key:7;
  Alcotest.(check bool) "key 7 asid 1 gone" true (Psc.lookup p ~asid:1 ~key:7 = -1);
  Alcotest.(check bool) "key 7 asid 2 gone" true (Psc.lookup p ~asid:2 ~key:7 = -1);
  Alcotest.(check bool) "key 8 survives" true
    (Psc.lookup p ~asid:1 ~key:8 = 300)

let test_accel_toggle_flushes_everything () =
  let t = Tlb.create ~entries:16 ~ways:4 in
  insert t ~asid:1 ~vpn:5 100;
  let saved = Accel.is_enabled () in
  Fun.protect
    ~finally:(fun () -> Accel.set_enabled saved)
    (fun () ->
      Accel.set_enabled false;
      Accel.set_enabled true);
  Alcotest.(check bool) "epoch bump invalidates" true
    (lookup t ~asid:1 ~vpn:5 = None)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "translation"
    [
      ("equivalence", qc [ prop_accel_equals_reference; prop_accel_on_off_counters ]);
      ( "nested_walk",
        qc [ prop_ept_translate_matches_walk ]
        @ [ Alcotest.test_case "counters pinned, accel on and off" `Quick
              test_pinned_counters ] );
      ( "allocation",
        [ Alcotest.test_case "hot path allocates nothing" `Quick
            test_hot_path_allocates_nothing ] );
      ( "staleness",
        [
          Alcotest.test_case "guest unmap faults immediately" `Quick
            test_stale_psc_after_unmap;
          Alcotest.test_case "EPT unmap faults immediately" `Quick
            test_stale_tlb_after_ept_unmap;
          Alcotest.test_case "TLB ASID: same VA across VMFUNC" `Quick
            test_tlb_asid_across_vmfunc;
        ] );
      ( "flush_paths",
        [
          Alcotest.test_case "flush_all generation bump" `Quick
            test_tlb_flush_all_then_reuse;
          Alcotest.test_case "flush_asid floor is selective" `Quick
            test_tlb_flush_asid_is_selective;
          Alcotest.test_case "INVLPG drops PSC keys across ASIDs" `Quick
            test_psc_flush_key_all_asids;
          Alcotest.test_case "accel toggle invalidates via epoch" `Quick
            test_accel_toggle_flushes_everything;
        ] );
    ]
