(* Tests for the MMU: guest page tables, EPTs (incl. the CR3-remap shallow
   copy), VMCS, nested translation and VMFUNC. *)

open Sky_mem
open Sky_sim
open Sky_mmu

let setup () =
  let machine = Machine.create ~cores:2 ~mem_mib:64 () in
  (machine, machine.Machine.mem, machine.Machine.alloc)

(* ------------------------------------------------------------------ *)
(* Pte                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pte_roundtrip () =
  let e = Pte.encode ~pa:0x1234000 Pte.urw in
  let pa, f = Pte.decode e in
  Alcotest.(check int) "pa" 0x1234000 pa;
  Alcotest.(check bool) "present" true f.Pte.present;
  Alcotest.(check bool) "writable" true f.Pte.writable;
  Alcotest.(check bool) "user" true f.Pte.user;
  Alcotest.(check bool) "not huge" false f.Pte.huge

let test_pte_absent () =
  Alcotest.(check bool) "zero not present" false (Pte.is_present Pte.zero)

let prop_pte_roundtrip =
  QCheck.Test.make ~name:"pte encode/decode roundtrip" ~count:200
    QCheck.(
      tup5 (int_bound 0xfffff) bool bool bool bool)
    (fun (frame, w, u, h, nx) ->
      let pa = frame * 4096 in
      let flags = { Pte.present = true; writable = w; user = u; huge = h; nx } in
      let pa', flags' = Pte.decode (Pte.encode ~pa flags) in
      pa = pa' && flags = flags')

(* The unboxed view a walker reads ([Phys_mem.read_u63] + [Pte.nx_at])
   says what [decode] says. *)
let prop_pte_word_view =
  QCheck.Test.make ~name:"pte word view agrees with decode" ~count:200
    QCheck.(tup5 (int_bound 0xffffff) bool bool bool (pair bool bool))
    (fun (frame, w, u, h, (nx, present)) ->
      let mem = Phys_mem.create ~frames:1 in
      let flags = { Pte.present; writable = w; user = u; huge = h; nx } in
      Phys_mem.write_u64 mem 8 (Pte.encode ~pa:(frame * 4096) flags);
      let pa, f = Pte.decode (Phys_mem.read_u64 mem 8) in
      let word = Phys_mem.read_u63 mem 8 in
      Pte.w_addr word = pa && Pte.w_present word = f.Pte.present
      && Pte.w_writable word = f.Pte.writable && Pte.w_user word = f.Pte.user
      && Pte.w_huge word = f.Pte.huge && Pte.nx_at mem 8 = f.Pte.nx)

(* ------------------------------------------------------------------ *)
(* Page_table                                                          *)
(* ------------------------------------------------------------------ *)

let test_pt_map_walk () =
  let _, mem, alloc = setup () in
  let pt = Page_table.create alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:0x7000 ~flags:Pte.urw;
  match Page_table.walk ~mem ~root_pa:(Page_table.root_pa pt) ~va:0x400123 with
  | Ok r ->
    Alcotest.(check int) "pa includes offset" 0x7123 r.Page_table.pa;
    Alcotest.(check int) "4-level walk" 4 (List.length r.Page_table.entries_read)
  | Error _ -> Alcotest.fail "expected mapping"

let test_pt_unmapped_faults () =
  let _, mem, alloc = setup () in
  let pt = Page_table.create alloc in
  match Page_table.walk ~mem ~root_pa:(Page_table.root_pa pt) ~va:0x400000 with
  | Error (Page_table.Not_present va) -> Alcotest.(check int) "va" 0x400000 va
  | _ -> Alcotest.fail "expected Not_present"

let test_pt_unmap () =
  let _, mem, alloc = setup () in
  let pt = Page_table.create alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:0x7000 ~flags:Pte.urw;
  Page_table.unmap pt ~mem ~va:0x400000;
  match Page_table.walk ~mem ~root_pa:(Page_table.root_pa pt) ~va:0x400000 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected fault after unmap"

let test_pt_protect () =
  let _, mem, alloc = setup () in
  let pt = Page_table.create alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:0x7000 ~flags:Pte.urw;
  Page_table.protect pt ~mem ~va:0x400000 ~flags:Pte.ur;
  match Page_table.walk ~mem ~root_pa:(Page_table.root_pa pt) ~va:0x400000 with
  | Ok r -> Alcotest.(check bool) "now read-only" false r.Page_table.flags.Pte.writable
  | Error _ -> Alcotest.fail "still mapped"

let test_pt_distinct_vas_share_tables () =
  let _, mem, alloc = setup () in
  let pt = Page_table.create alloc in
  (* Two pages in the same 2 MiB region share all intermediate tables. *)
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:0x7000 ~flags:Pte.urw;
  Page_table.map pt ~mem ~alloc ~va:0x401000 ~pa:0x8000 ~flags:Pte.urw;
  Alcotest.(check int) "4 table pages total" 4 (Page_table.pages pt)

let prop_pt_map_then_walk =
  QCheck.Test.make ~name:"map-then-walk agrees for random mappings" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (pair (int_bound 0xffff) (int_bound 0x3fff)))
    (fun pairs ->
      let _, mem, alloc = setup () in
      let pt = Page_table.create alloc in
      (* Deduplicate VAs (later mappings overwrite earlier). *)
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (vpn, ppn) ->
          let va = vpn * 4096 and pa = ppn * 4096 in
          Page_table.map pt ~mem ~alloc ~va ~pa ~flags:Pte.urw;
          Hashtbl.replace tbl va pa)
        pairs;
      Hashtbl.fold
        (fun va pa acc ->
          acc
          &&
          match Page_table.walk ~mem ~root_pa:(Page_table.root_pa pt) ~va with
          | Ok r -> r.Page_table.pa = pa
          | Error _ -> false)
        tbl true)

(* ------------------------------------------------------------------ *)
(* Ept                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ept_identity_1g () =
  let _, mem, alloc = setup () in
  let ept = Ept.create alloc in
  Ept.map_identity_1g ept ~mem ~alloc ~gib:4;
  (match Ept.walk ~mem ~root_pa:(Ept.root_pa ept) ~gpa:0x12345678 with
  | Ok r ->
    Alcotest.(check int) "identity" 0x12345678 r.Ept.hpa;
    Alcotest.(check int) "2 entries read (PML4 + 1G leaf)" 2
      (List.length r.Ept.entries_read)
  | Error _ -> Alcotest.fail "mapped");
  (* 1 root + 1 PDPT for 4 GiB. *)
  Alcotest.(check int) "tiny footprint" 2 (Ept.pages_owned ept)

let test_ept_violation () =
  let _, mem, alloc = setup () in
  let ept = Ept.create alloc in
  Ept.map_identity_1g ept ~mem ~alloc ~gib:1;
  match Ept.walk ~mem ~root_pa:(Ept.root_pa ept) ~gpa:(3 lsl 30) with
  | Error (Ept.Ept_not_present _) -> ()
  | Ok _ -> Alcotest.fail "expected violation beyond mapped range"

let test_ept_clone_cr3_remap_four_pages () =
  (* §4.3: "Only four pages that map client-CR3 to the HPA of server-CR3
     are modified. All other EPT pages are kept intact." *)
  let _, mem, alloc = setup () in
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:4;
  let server_ept = Ept.clone_shallow base ~mem ~alloc in
  Alcotest.(check int) "clone owns only its root" 1 (Ept.pages_owned server_ept);
  let client_cr3 = 0x0123_4000 and server_cr3 = 0x0777_7000 in
  Ept.remap_gpa server_ept ~mem ~alloc ~gpa:client_cr3 ~hpa:server_cr3;
  Alcotest.(check int) "exactly four private pages" 4 (Ept.pages_owned server_ept);
  (* The remapped GPA translates to the server's CR3 frame... *)
  (match Ept.walk ~mem ~root_pa:(Ept.root_pa server_ept) ~gpa:(client_cr3 + 0x18) with
  | Ok r -> Alcotest.(check int) "remapped" (server_cr3 + 0x18) r.Ept.hpa
  | Error _ -> Alcotest.fail "remapped gpa must be mapped");
  (* ...while neighbouring GPAs keep the identity mapping... *)
  (match Ept.walk ~mem ~root_pa:(Ept.root_pa server_ept) ~gpa:(client_cr3 + 0x1000) with
  | Ok r -> Alcotest.(check int) "neighbour untouched" (client_cr3 + 0x1000) r.Ept.hpa
  | Error _ -> Alcotest.fail "neighbour must stay mapped");
  (* ...and the base EPT is unchanged. *)
  match Ept.walk ~mem ~root_pa:(Ept.root_pa base) ~gpa:client_cr3 with
  | Ok r -> Alcotest.(check int) "base identity intact" client_cr3 r.Ept.hpa
  | Error _ -> Alcotest.fail "base must stay mapped"

let test_ept_unmap_injects_violation () =
  let _, mem, alloc = setup () in
  let ept = Ept.create alloc in
  Ept.map_identity_1g ept ~mem ~alloc ~gib:1;
  Ept.unmap_4k ept ~mem ~alloc ~gpa:0x5000;
  (match Ept.walk ~mem ~root_pa:(Ept.root_pa ept) ~gpa:0x5000 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected violation");
  match Ept.walk ~mem ~root_pa:(Ept.root_pa ept) ~gpa:0x6000 with
  | Ok r -> Alcotest.(check int) "neighbour intact" 0x6000 r.Ept.hpa
  | Error _ -> Alcotest.fail "neighbour"

let prop_ept_remaps =
  QCheck.Test.make ~name:"ept random remaps resolve correctly" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_bound 0xfffff) (int_bound 0xfffff)))
    (fun pairs ->
      let _, mem, alloc = setup () in
      let ept = Ept.create alloc in
      Ept.map_identity_1g ept ~mem ~alloc ~gib:8;
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (gfn, hfn) ->
          let gpa = gfn * 4096 and hpa = hfn * 4096 in
          Ept.remap_gpa ept ~mem ~alloc ~gpa ~hpa;
          Hashtbl.replace tbl gpa hpa)
        pairs;
      Hashtbl.fold
        (fun gpa hpa acc ->
          acc
          &&
          match Ept.walk ~mem ~root_pa:(Ept.root_pa ept) ~gpa with
          | Ok r -> r.Ept.hpa = hpa
          | Error _ -> false)
        tbl true)

(* ------------------------------------------------------------------ *)
(* Vmcs / Vmfunc / Translate                                           *)
(* ------------------------------------------------------------------ *)

let test_vmcs_eptp_list () =
  let vmcs = Vmcs.create () in
  Vmcs.set_eptp vmcs ~index:0 ~eptp:0x1000;
  Vmcs.set_eptp vmcs ~index:3 ~eptp:0x2000;
  Alcotest.(check int) "slot 0" 0x1000 (Vmcs.eptp_at vmcs ~index:0);
  Alcotest.(check int) "current is slot 0" 0x1000 (Vmcs.current_eptp vmcs);
  Vmcs.install_list vmcs [ 0x5000; 0x6000 ];
  Alcotest.(check int) "install resets current" 0x5000 (Vmcs.current_eptp vmcs);
  Alcotest.(check int) "old entries cleared" 0 (Vmcs.eptp_at vmcs ~index:3)

(* Build a virtualized vcpu with a client and a server process, the
   paper's Figure 6 configuration, and exercise the full path. *)
let fig6_setup ?(vpid = true) () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create (Machine.core machine 0) in
  (* Two guest page tables mapping the same VA to different frames. *)
  let client_pt = Page_table.create alloc in
  let server_pt = Page_table.create alloc in
  let va = 0x400000 in
  let client_frame = Frame_alloc.alloc_frame alloc in
  let server_frame = Frame_alloc.alloc_frame alloc in
  Phys_mem.write_u64 mem client_frame 0xC11EA7L;
  Phys_mem.write_u64 mem server_frame 0x5E77E7L;
  Page_table.map client_pt ~mem ~alloc ~va ~pa:client_frame ~flags:Pte.urw;
  Page_table.map server_pt ~mem ~alloc ~va ~pa:server_frame ~flags:Pte.urw;
  (* Base EPT + client EPT (plain clone) + server EPT (CR3 remapped). *)
  let base = Ept.create alloc in
  Ept.map_identity_1g base ~mem ~alloc ~gib:1;
  let client_ept = Ept.clone_shallow base ~mem ~alloc in
  let server_ept = Ept.clone_shallow base ~mem ~alloc in
  Ept.remap_gpa server_ept ~mem ~alloc
    ~gpa:(Page_table.root_pa client_pt)
    ~hpa:(Page_table.root_pa server_pt);
  let vmcs = Vmcs.create ~vpid () in
  Vmcs.install_list vmcs [ Ept.root_pa client_ept; Ept.root_pa server_ept ];
  Vcpu.enter_non_root vcpu vmcs;
  Vcpu.set_mode vcpu Vcpu.User;
  vcpu.Vcpu.cr3 <- Page_table.root_pa client_pt;
  (machine, mem, vcpu, va, client_frame, server_frame)

let test_fig6_vmfunc_switches_address_space () =
  let _, mem, vcpu, va, client_frame, server_frame = fig6_setup () in
  (* Before VMFUNC: VA translates via the client page table. *)
  let hpa1 = Translate.translate vcpu mem Translate.data_read ~va in
  Alcotest.(check int) "client frame" client_frame hpa1;
  (* VMFUNC to EPTP index 1 (the server EPT): same CR3 value, but the
     walk now reads the server page table. *)
  Vmfunc.execute vcpu ~func:0 ~index:1;
  let hpa2 = Translate.translate vcpu mem Translate.data_read ~va in
  Alcotest.(check int) "server frame after VMFUNC" server_frame hpa2;
  (* And back. *)
  Vmfunc.execute vcpu ~func:0 ~index:0;
  let hpa3 = Translate.translate vcpu mem Translate.data_read ~va in
  Alcotest.(check int) "client frame again" client_frame hpa3

let test_vmfunc_cost_and_no_flush () =
  let _, mem, vcpu, va, _, _ = fig6_setup () in
  let cpu = Vcpu.cpu vcpu in
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  Vmfunc.execute vcpu ~func:0 ~index:1;
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  Vmfunc.execute vcpu ~func:0 ~index:0;
  Tlb.reset_stats (Cpu.dtlb cpu);
  (* With VPID, returning to EPTP 0 must hit the TLB entry cached before
     the switches. *)
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  Alcotest.(check int) "TLB hit across VMFUNC (VPID)" 1 (Tlb.hits (Cpu.dtlb cpu));
  Alcotest.(check int) "no TLB miss" 0 (Tlb.misses (Cpu.dtlb cpu))

let test_vmfunc_vpid_disabled_flushes () =
  let _, mem, vcpu, va, _, _ = fig6_setup ~vpid:false () in
  let cpu = Vcpu.cpu vcpu in
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  Vmfunc.execute vcpu ~func:0 ~index:1;
  Vmfunc.execute vcpu ~func:0 ~index:0;
  Tlb.reset_stats (Cpu.dtlb cpu);
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  Alcotest.(check int) "TLB miss after unVPID'd VMFUNC" 1 (Tlb.misses (Cpu.dtlb cpu))

let test_vmfunc_invalid_index () =
  let _, _, vcpu, _, _, _ = fig6_setup () in
  let vmcs = Vcpu.vmcs_exn vcpu in
  (try
     Vmfunc.execute vcpu ~func:0 ~index:7;
     Alcotest.fail "expected Invalid_vmfunc"
   with Vmfunc.Invalid_vmfunc _ -> ());
  Alcotest.(check int) "records a VM exit" 1
    (Vmcs.exits vmcs Vmcs.Exit_invalid_vmfunc);
  try
    Vmfunc.execute vcpu ~func:1 ~index:0;
    Alcotest.fail "expected Invalid_vmfunc for func != 0"
  with Vmfunc.Invalid_vmfunc _ -> ()

let test_translate_user_kernel_protection () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.rw;
  (* supervisor-only *)
  vcpu.Vcpu.cr3 <- Page_table.root_pa pt;
  Vcpu.set_mode vcpu Vcpu.User;
  (try
     ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
     Alcotest.fail "expected protection fault"
   with Translate.Page_fault (Page_table.Protection _) -> ());
  Vcpu.set_mode vcpu Vcpu.Kernel;
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000)

let test_translate_write_protection () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let frame = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:frame ~flags:Pte.ur;
  vcpu.Vcpu.cr3 <- Page_table.root_pa pt;
  Vcpu.set_mode vcpu Vcpu.User;
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
  try
    ignore (Translate.translate vcpu mem Translate.data_write ~va:0x400000);
    Alcotest.fail "expected write-protection fault"
  with Translate.Page_fault (Page_table.Protection _) -> ()

let test_translate_guest_rw () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let f1 = Frame_alloc.alloc_frame alloc in
  let f2 = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:f1 ~flags:Pte.urw;
  Page_table.map pt ~mem ~alloc ~va:0x401000 ~pa:f2 ~flags:Pte.urw;
  vcpu.Vcpu.cr3 <- Page_table.root_pa pt;
  Vcpu.set_mode vcpu Vcpu.User;
  let data = Bytes.of_string (String.init 6000 (fun i -> Char.chr (i land 0xff))) in
  (* Write spans the two pages. *)
  Translate.write_bytes vcpu mem ~va:0x400100 data;
  let back = Translate.read_bytes vcpu mem ~va:0x400100 ~len:6000 in
  Alcotest.(check bool) "guest rw roundtrip across pages" true (Bytes.equal data back)

let test_cr3_write_flushes_without_pcid () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create ~pcid_enabled:false (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let f = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:f ~flags:Pte.urw;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  let cpu = Vcpu.cpu vcpu in
  Tlb.reset_stats (Cpu.dtlb cpu);
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
  Alcotest.(check int) "miss after flush" 1 (Tlb.misses (Cpu.dtlb cpu))

let test_cr3_write_keeps_tlb_with_pcid () =
  let machine, mem, alloc = setup () in
  let vcpu = Vcpu.create ~pcid_enabled:true (Machine.core machine 0) in
  let pt = Page_table.create alloc in
  let f = Frame_alloc.alloc_frame alloc in
  Page_table.map pt ~mem ~alloc ~va:0x400000 ~pa:f ~flags:Pte.urw;
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  Vcpu.set_mode vcpu Vcpu.User;
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
  Vcpu.write_cr3 vcpu ~cr3:(Page_table.root_pa pt) ~pcid:1;
  let cpu = Vcpu.cpu vcpu in
  Tlb.reset_stats (Cpu.dtlb cpu);
  ignore (Translate.translate vcpu mem Translate.data_read ~va:0x400000);
  Alcotest.(check int) "hit preserved with PCID" 1 (Tlb.hits (Cpu.dtlb cpu))

let test_nested_walk_access_count () =
  (* §4.1: a nested TLB miss costs up to 24 memory accesses with 4 KiB
     EPT pages; with the Rootkernel's 1 GiB base EPT the guest walk is
     4 x (2 EPT reads + 1 PT read) + 2 EPT reads for the final page =
     14 accesses. *)
  let _, mem, vcpu, va, _, _ = fig6_setup () in
  let cpu = Vcpu.cpu vcpu in
  let fp0 = Cpu.footprint cpu in
  let before = Cache.hits (Cpu.l1d cpu) + Cache.misses (Cpu.l1d cpu) in
  ignore (fp0 : Cpu.footprint);
  ignore (Translate.translate vcpu mem Translate.data_read ~va);
  let after = Cache.hits (Cpu.l1d cpu) + Cache.misses (Cpu.l1d cpu) in
  Alcotest.(check int) "14 memory accesses for a nested miss" 14 (after - before)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mmu"
    [
      ( "pte",
        [
          Alcotest.test_case "roundtrip" `Quick test_pte_roundtrip;
          Alcotest.test_case "absent" `Quick test_pte_absent;
        ]
        @ qc [ prop_pte_roundtrip; prop_pte_word_view ] );
      ( "page_table",
        [
          Alcotest.test_case "map/walk" `Quick test_pt_map_walk;
          Alcotest.test_case "unmapped faults" `Quick test_pt_unmapped_faults;
          Alcotest.test_case "unmap" `Quick test_pt_unmap;
          Alcotest.test_case "protect" `Quick test_pt_protect;
          Alcotest.test_case "table sharing" `Quick test_pt_distinct_vas_share_tables;
        ]
        @ qc [ prop_pt_map_then_walk ] );
      ( "ept",
        [
          Alcotest.test_case "identity 1G mapping" `Quick test_ept_identity_1g;
          Alcotest.test_case "violation beyond range" `Quick test_ept_violation;
          Alcotest.test_case "clone + CR3 remap = 4 pages" `Quick
            test_ept_clone_cr3_remap_four_pages;
          Alcotest.test_case "unmap injects violation" `Quick
            test_ept_unmap_injects_violation;
        ]
        @ qc [ prop_ept_remaps ] );
      ( "vmfunc_translate",
        [
          Alcotest.test_case "EPTP list management" `Quick test_vmcs_eptp_list;
          Alcotest.test_case "Fig 6: VMFUNC switches address space" `Quick
            test_fig6_vmfunc_switches_address_space;
          Alcotest.test_case "VPID keeps TLB across VMFUNC" `Quick
            test_vmfunc_cost_and_no_flush;
          Alcotest.test_case "no VPID flushes on VMFUNC" `Quick
            test_vmfunc_vpid_disabled_flushes;
          Alcotest.test_case "invalid index VM-exits" `Quick test_vmfunc_invalid_index;
          Alcotest.test_case "user/kernel protection" `Quick
            test_translate_user_kernel_protection;
          Alcotest.test_case "write protection" `Quick test_translate_write_protection;
          Alcotest.test_case "guest rw across pages" `Quick test_translate_guest_rw;
          Alcotest.test_case "CR3 write flushes w/o PCID" `Quick
            test_cr3_write_flushes_without_pcid;
          Alcotest.test_case "CR3 write keeps TLB w/ PCID" `Quick
            test_cr3_write_keeps_tlb_with_pcid;
          Alcotest.test_case "nested walk = 14 accesses (1G EPT)" `Quick
            test_nested_walk_access_count;
        ] );
    ]
