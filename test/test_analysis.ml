(* Tests for the static security auditor (Sky_analysis): chunked scanning,
   decode totality, the gadget auditor, the trampoline abstract
   interpreter, the EPT/page-table checker, and whole-machine mutation
   tests driven through Subkernel.audit. *)

open Sky_isa
open Sky_rewriter
open Sky_analysis
open Sky_ukernel
open Sky_core

let encode = Encode.encode_all
let pattern = "\x0f\x01\xd4"

(* ------------------------------------------------------------------ *)
(* Chunked / paged scanning (page-boundary carry)                      *)
(* ------------------------------------------------------------------ *)

(* A pattern straddling the 4 KiB boundary is invisible to a naive
   per-page scan but must be found by the carried-overlap scan. *)
let test_paged_scan_boundary () =
  List.iter
    (fun at ->
      let code = Bytes.make 8192 '\x90' in
      Bytes.blit_string pattern 0 code at 3;
      (* naive per-page scan *)
      let naive =
        List.concat_map
          (fun page ->
            List.map (fun o -> (page * 4096) + o)
              (Scan.find_pattern (Bytes.sub code (page * 4096) 4096)))
          [ 0; 1 ]
      in
      let straddles = at < 4096 && at + 3 > 4096 in
      Alcotest.(check bool)
        (Printf.sprintf "naive misses straddler at %d" at)
        straddles (not (List.mem at naive));
      Alcotest.(check (list int))
        (Printf.sprintf "paged finds pattern at %d" at)
        [ at ]
        (Scan.find_pattern_paged code))
    [ 4092; 4093; 4094; 4095; 4096; 4097 ]

let test_paged_scan_equals_flat () =
  (* Random-ish buffer with many planted patterns, some adjacent to page
     boundaries: paged scan == whole-buffer scan. *)
  let n = 3 * 4096 in
  let code = Bytes.init n (fun i -> Char.chr (i * 37 mod 251)) in
  List.iter
    (fun at -> Bytes.blit_string pattern 0 code at 3)
    [ 0; 100; 4094; 4095; 4096; 8190; 8191; n - 3 ];
  Alcotest.(check (list int))
    "paged == flat"
    (Scan.find_pattern code)
    (Scan.find_pattern_paged code)

let test_chunked_scan_gap_resets_carry () =
  (* Pattern "spanning" two chunks that are NOT contiguous must not be
     reported: the bytes in between were never scanned. *)
  let a = Bytes.of_string "\x90\x0f" and b = Bytes.of_string "\x01\xd4" in
  Alcotest.(check (list int)) "contiguous chunks find the split pattern"
    [ 1 ]
    (Scan.find_pattern_chunked [ (0, a); (2, b) ]);
  Alcotest.(check (list int)) "gap between chunks resets the carry" []
    (Scan.find_pattern_chunked [ (0, a); (10, b) ])

(* ------------------------------------------------------------------ *)
(* Decode totality: spans tile the buffer, unknowns are explicit       *)
(* ------------------------------------------------------------------ *)

let span_bounds = function
  | Decode.Decoded d -> (d.Decode.off, d.Decode.len)
  | Decode.Unknown { off; len } -> (off, len)

let check_tiling code =
  let spans = Decode.decode_spans code in
  let last =
    List.fold_left
      (fun expect s ->
        let off, len = span_bounds s in
        Alcotest.(check int) "spans are contiguous" expect off;
        Alcotest.(check bool) "span non-empty" true (len > 0);
        off + len)
      0 spans
  in
  Alcotest.(check int) "spans cover the buffer" (Bytes.length code) last

let test_decode_spans_tile () =
  check_tiling (encode [ Insn.Nop; Insn.Vmfunc; Insn.Ret ]);
  (* garbage in the middle *)
  check_tiling
    (Bytes.cat (encode [ Insn.Nop ])
       (Bytes.cat (Bytes.of_string "\xf4\xf4\xf4") (encode [ Insn.Ret ])));
  (* truncated instruction at the end *)
  check_tiling (Bytes.of_string "\xb8\x01\x02");
  check_tiling Bytes.empty

let test_unknown_spans_coalesce () =
  let code =
    Bytes.cat (encode [ Insn.Nop ])
      (Bytes.cat (Bytes.of_string "\xf4\xf4\xf4") (encode [ Insn.Ret ]))
  in
  Alcotest.(check (list (pair int int)))
    "one coalesced unknown run"
    [ (1, 3) ]
    (Decode.unknown_spans code);
  Alcotest.(check (list (pair int int)))
    "clean code has no unknowns" []
    (Decode.unknown_spans (encode [ Insn.Nop; Insn.Ret ]))

(* ------------------------------------------------------------------ *)
(* Gadget auditor                                                      *)
(* ------------------------------------------------------------------ *)

let test_gadget_clean () =
  let img = Gadget.image ~name:"clean" (encode [ Insn.Nop; Insn.Ret ]) in
  Alcotest.(check int) "no violations" 0 (List.length (Gadget.audit img))

let test_gadget_aligned_vmfunc () =
  let img = Gadget.image ~name:"c1" (encode [ Insn.Nop; Insn.Vmfunc; Insn.Ret ]) in
  let vs = Gadget.audit img in
  Alcotest.(check bool) "raw pattern" true
    (Report.has ~invariant:"gadget.vmfunc-pattern" vs);
  Alcotest.(check bool) "reachable from entry" true
    (Report.has ~invariant:"gadget.reachable-vmfunc" vs);
  Alcotest.(check bool) "aligned, so not misaligned" false
    (Report.has ~invariant:"gadget.misaligned-vmfunc" vs)

let test_gadget_misaligned_vmfunc () =
  (* Pattern hidden in the immediate of an aligned instruction: the
     aligned decode never sees a VMFUNC, the every-offset sweep does. *)
  let img = Gadget.image ~name:"c3" (encode [ Insn.Add_ri (Reg.Rax, 0xD4010F); Insn.Ret ]) in
  let vs = Gadget.audit img in
  Alcotest.(check bool) "raw pattern" true
    (Report.has ~invariant:"gadget.vmfunc-pattern" vs);
  Alcotest.(check bool) "misaligned decode" true
    (Report.has ~invariant:"gadget.misaligned-vmfunc" vs);
  Alcotest.(check bool) "not reachable from entry" false
    (Report.has ~invariant:"gadget.reachable-vmfunc" vs)

let test_gadget_allowed_range () =
  let code = encode [ Insn.Vmfunc; Insn.Ret ] in
  let ok = Gadget.image ~name:"tramp" ~allowed:[ (0, 3) ] code in
  Alcotest.(check int) "allowed vmfunc accepted" 0 (List.length (Gadget.audit ok));
  let bad = Gadget.image ~name:"tramp" ~allowed:[ (5, 3) ] code in
  Alcotest.(check bool) "range elsewhere does not cover it" true
    (Report.has ~invariant:"gadget.vmfunc-pattern" (Gadget.audit bad))

let test_gadget_unverifiable () =
  let img = Gadget.image ~name:"data" (Bytes.of_string "\xf4\xf4") in
  Alcotest.(check bool) "undecodable bytes flagged" true
    (Report.has ~invariant:"gadget.unverifiable" (Gadget.audit img))

(* Rewrite then re-audit: the auditor agrees with the rewriter on
   randomized pattern-laden corpus programs. *)
let prop_rewrite_then_audit =
  QCheck.Test.make ~name:"rewritten corpus programs audit clean" ~count:50
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = Sky_sim.Rng.create ~seed in
      let code = Corpus.generate_program rng ~size_bytes:2048 ~plant:true in
      let r = Rewrite.rewrite code in
      let code_vs = Gadget.audit (Gadget.image ~name:"code" r.Rewrite.code) in
      let page_vs =
        if Bytes.length r.Rewrite.rewrite_page = 0 then []
        else Gadget.audit (Gadget.image ~name:"page" r.Rewrite.rewrite_page)
      in
      code_vs = [] && page_vs = [])

(* ------------------------------------------------------------------ *)
(* Rewrite.verify (the mandatory post-pass)                            *)
(* ------------------------------------------------------------------ *)

let test_verify_catches_tampering () =
  let r = Rewrite.rewrite (encode [ Insn.Nop; Insn.Nop; Insn.Ret ]) in
  Rewrite.verify r;
  (* Smuggle a pattern into the "verified" output. *)
  Bytes.blit_string pattern 0 r.Rewrite.code 0 3;
  match Rewrite.verify r with
  | () -> Alcotest.fail "verify accepted a planted pattern"
  | exception Rewrite.Rewrite_failed _ -> ()

let test_verify_respects_allowed () =
  let code = encode [ Insn.Vmfunc; Insn.Ret ] in
  let r = Rewrite.rewrite ~allowed:[ (0, 3) ] code in
  Rewrite.verify ~allowed:[ (0, 3) ] r;
  match Rewrite.verify r with
  | () -> Alcotest.fail "verify must reject the vmfunc without the range"
  | exception Rewrite.Rewrite_failed _ -> ()

(* ------------------------------------------------------------------ *)
(* Trampoline abstract interpreter                                     *)
(* ------------------------------------------------------------------ *)

let test_tramp_pristine () =
  Alcotest.(check int) "pristine trampoline verifies" 0
    (List.length (Tramp_check.check (Trampoline.code ())))

let tramp_mutant replace =
  encode
    (List.concat_map (fun i -> replace i) Trampoline.insns)

(* Replace one instruction of the trampoline (same or different length —
   the checker follows real instruction boundaries, not offsets). *)
let swap_insn ~from ~to_ =
  tramp_mutant (fun i -> if i = from then [ to_ ] else [ i ])

let drop_insn victim = tramp_mutant (fun i -> if i = victim then [] else [ i ])

let test_tramp_swapped_index () =
  (* RCX no longer carries the EPTP index from RDI. *)
  let code =
    swap_insn
      ~from:(Insn.Mov_rr (Reg.Rcx, Reg.Rdi))
      ~to_:(Insn.Mov_rr (Reg.Rcx, Reg.Rbx))
  in
  Alcotest.(check bool) "index flow violated" true
    (Report.has ~invariant:"trampoline.vmfunc-index-flow"
       (Tramp_check.check code))

let test_tramp_missing_pop () =
  let vs = Tramp_check.check (drop_insn (Insn.Pop Reg.R15)) in
  Alcotest.(check bool) "callee-saved violated" true
    (Report.has ~invariant:"trampoline.callee-saved" vs);
  Alcotest.(check bool) "rsp not restored" true
    (Report.has ~invariant:"trampoline.rsp-restored" vs)

let test_tramp_unpaired_vmfunc () =
  let vs = Tramp_check.check (drop_insn Insn.Vmfunc) in
  (* dropping both VMFUNCs -> no switch at all *)
  Alcotest.(check bool) "pairing violated" true
    (Report.has ~invariant:"trampoline.vmfunc-pairing" vs)

let test_tramp_syscall () =
  Alcotest.(check bool) "syscall rejected" true
    (Report.has ~invariant:"trampoline.unexpected-insn"
       (Tramp_check.check (encode [ Insn.Syscall; Insn.Ret ])))

let test_tramp_undecodable () =
  Alcotest.(check bool) "garbage rejected" true
    (Report.has ~invariant:"trampoline.undecodable"
       (Tramp_check.check (Bytes.of_string "\xf4")))

(* ------------------------------------------------------------------ *)
(* EPT checker on a hand-built machine fragment                        *)
(* ------------------------------------------------------------------ *)

let test_ept_wx_leaf () =
  let mem = Sky_mem.Phys_mem.create ~frames:2048 in
  let alloc = Sky_mem.Frame_alloc.create mem in
  let ept = Sky_mmu.Ept.create alloc in
  Sky_mmu.Ept.map_identity_4k ept ~mem ~alloc ~mib:4;
  (* Remap one GPA to a different HPA, read/write/execute: a W^X hole. *)
  Sky_mmu.Ept.map_4k ept ~mem ~alloc ~gpa:0x5000 ~hpa:0x9000;
  (* Trampoline frame mapped correctly (read/execute, not writable). *)
  let tramp_flags =
    { Sky_mmu.Pte.present = true; writable = false; user = true;
      huge = false; nx = false }
  in
  Sky_mmu.Ept.map_4k_flags ept ~mem ~alloc ~gpa:0x3000 ~hpa:0x3000
    ~flags:tramp_flags;
  let inp =
    {
      Ept_check.mem;
      phys_bytes = Sky_mem.Phys_mem.size_bytes mem;
      epts = [ ("ept:test", Sky_mmu.Ept.root_pa ept) ];
      known_roots = [ Sky_mmu.Ept.root_pa ept ];
      eptp_lists = [];
      page_tables = [];
      trampoline_gpa = 0x3000;
      trampoline_va = 0x3000;
    }
  in
  let vs = Ept_check.check inp in
  Alcotest.(check bool) "W+X remapped leaf flagged" true
    (Report.has ~invariant:"ept.wx" vs);
  Alcotest.(check bool) "trampoline mapping accepted" false
    (Report.has ~invariant:"ept.trampoline" vs)

let test_ept_trampoline_writable () =
  let mem = Sky_mem.Phys_mem.create ~frames:2048 in
  let alloc = Sky_mem.Frame_alloc.create mem in
  let ept = Sky_mmu.Ept.create alloc in
  Sky_mmu.Ept.map_identity_4k ept ~mem ~alloc ~mib:4;
  (* identity map is r/w/x: the trampoline frame must not stay that way *)
  let inp =
    {
      Ept_check.mem;
      phys_bytes = Sky_mem.Phys_mem.size_bytes mem;
      epts = [ ("ept:test", Sky_mmu.Ept.root_pa ept) ];
      known_roots = [ Sky_mmu.Ept.root_pa ept ];
      eptp_lists = [];
      page_tables = [];
      trampoline_gpa = 0x3000;
      trampoline_va = 0x3000;
    }
  in
  Alcotest.(check bool) "writable trampoline flagged" true
    (Report.has ~invariant:"ept.trampoline" (Ept_check.check inp))

(* ------------------------------------------------------------------ *)
(* Whole-machine mutation tests (Subkernel.audit)                      *)
(* ------------------------------------------------------------------ *)

let echo ~core:_ msg = msg

(* Same length as the dirty replacement below: the audit reads exactly
   the registered code extent back through the page tables. *)
let clean_code =
  encode
    [ Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop; Insn.Nop;
      Insn.Ret ]

let setup_full () =
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init k in
  let client = Kernel.spawn k ~name:"client" in
  let client_code_va = Kernel.map_code k client clean_code in
  let server = Kernel.spawn k ~name:"server" in
  ignore (Kernel.map_code k server clean_code);
  let sid = Subkernel.register_server sb server echo in
  Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch k ~core:0 client;
  (k, sb, client, server, sid, client_code_va)

let setup () =
  let k, sb, client, _server, _sid, client_code_va = setup_full () in
  (k, sb, client, client_code_va)

let test_audit_baseline_clean () =
  let _, sb, _, _ = setup () in
  let vs = Subkernel.audit sb in
  if vs <> [] then
    Alcotest.failf "expected clean audit, got:\n%s"
      (String.concat "\n" (List.map Report.to_string vs));
  Alcotest.(check bool) "Audit.ok" true (Audit.ok vs)

let test_audit_planted_gadget () =
  (* Mutation 1: after registration, a VMFUNC pattern appears in the
     client's code pages (e.g. via a kernel write bypassing W^X). *)
  let k, sb, client, va = setup () in
  Kernel.write_code k client ~va (encode [ Insn.Add_ri (Reg.Rax, 0xD4010F); Insn.Ret ]);
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "gadget.vmfunc-pattern" true
    (Report.has ~invariant:"gadget.vmfunc-pattern" vs)

let test_audit_wx_mapping () =
  (* Mutation 2: a writable+executable guest mapping (nx left clear). *)
  let k, sb, client, _ = setup () in
  ignore (Kernel.map_anon k client ~flags:Sky_mmu.Pte.urw 4096);
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "pt.wx" true (Report.has ~invariant:"pt.wx" vs)

let test_audit_corrupted_trampoline () =
  (* Mutation 3: the shared trampoline frame is overwritten with a
     same-length variant that feeds RBX (not the caller's RDI) into the
     EPTP-switch index register. *)
  let k, sb, _, _ = setup () in
  let corrupted =
    encode
      (List.map
         (fun i ->
           if i = Insn.Mov_rr (Reg.Rcx, Reg.Rdi) then
             Insn.Mov_rr (Reg.Rcx, Reg.Rbx)
           else i)
         Trampoline.insns)
  in
  Sky_mem.Phys_mem.write_bytes (Kernel.mem k)
    (Subkernel.trampoline_frame sb)
    corrupted;
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "trampoline.vmfunc-index-flow" true
    (Report.has ~invariant:"trampoline.vmfunc-index-flow" vs)

let test_registration_rejects_unverifiable () =
  (* A process whose executable pages contain bytes the auditor cannot
     decode is refused at registration. *)
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init k in
  let shady = Kernel.spawn k ~name:"shady" in
  ignore (Kernel.map_code k shady (Bytes.of_string "\xf4\xf4\xf4\xc3"));
  match Subkernel.register_server sb shady echo with
  | _ -> Alcotest.fail "expected Audit_failed"
  | exception Subkernel.Audit_failed vs ->
    Alcotest.(check bool) "names gadget.unverifiable" true
      (Report.has ~invariant:"gadget.unverifiable" vs)

(* ------------------------------------------------------------------ *)
(* Isoflow mutation tests: one injected violation per flow.* invariant *)
(* ------------------------------------------------------------------ *)

let nx_rw = { Sky_mmu.Pte.urw with Sky_mmu.Pte.nx = true }
let mutation_va = 0x7400_0000 (* free window below the stacks *)

let test_flow_shared_writable () =
  (* A frame writable from two address spaces that is not a registered
     shared buffer — e.g. a forged shared mapping. *)
  let k, sb, client, server, _sid, _ = setup_full () in
  let pa = Sky_mem.Frame_alloc.alloc_frame (Kernel.alloc k) in
  Kernel.map_frames k client ~va:mutation_va ~pa ~len:4096 ~flags:nx_rw;
  Kernel.map_frames k server ~va:mutation_va ~pa ~len:4096 ~flags:nx_rw;
  Alcotest.(check bool) "flow.shared-writable" true
    (Report.has ~invariant:"flow.shared-writable" (Subkernel.audit sb))

let test_flow_wx_cross () =
  (* Writable in the client, executable in the server: cross-domain code
     injection even though each space is individually W^X. *)
  let k, sb, client, server, _sid, _ = setup_full () in
  let pa = Sky_mem.Frame_alloc.alloc_frame (Kernel.alloc k) in
  Kernel.map_frames k client ~va:mutation_va ~pa ~len:4096 ~flags:nx_rw;
  Kernel.map_frames k server ~va:mutation_va ~pa ~len:4096
    ~flags:Sky_mmu.Pte.urx;
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "flow.wx-cross" true
    (Report.has ~invariant:"flow.wx-cross" vs);
  Alcotest.(check bool) "per-space W^X alone does not see it" false
    (Report.has ~invariant:"pt.wx" vs)

let test_flow_tramp_identical () =
  (* The binding EPT silently redirects the trampoline GPA to a
     byte-identical copy frame: every per-structure check still passes
     (x-only mapping, identical code), but the view no longer shares THE
     trampoline frame. *)
  let k, sb, client, _server, sid, _ = setup_full () in
  let mem = Kernel.mem k in
  let alloc = Kernel.alloc k in
  let tramp_gpa = Subkernel.trampoline_frame sb in
  let copy = Sky_mem.Frame_alloc.alloc_frame alloc in
  Sky_mem.Phys_mem.write_bytes mem copy
    (Sky_mem.Phys_mem.read_bytes mem tramp_gpa 4096);
  (match Subkernel.binding_ept sb client ~server_id:sid with
  | None -> Alcotest.fail "client has no binding EPT"
  | Some ept ->
    Sky_mmu.Ept.map_4k_flags ept ~mem ~alloc ~gpa:tramp_gpa ~hpa:copy
      ~flags:
        { Sky_mmu.Pte.present = true; writable = false; user = true;
          huge = false; nx = false });
  Alcotest.(check bool) "flow.tramp-identical" true
    (Report.has ~invariant:"flow.tramp-identical" (Subkernel.audit sb))

let test_flow_closure () =
  (* A binding forged around the mesh: reachability without authority.
     The capability closure is Isoflow's ground truth in Mesh.audit. *)
  let machine = Sky_sim.Machine.create ~cores:2 ~mem_mib:64 () in
  let k = Kernel.create machine in
  let sb = Subkernel.init k in
  let mesh = Sky_mesh.Mesh.create sb in
  let server = Kernel.spawn k ~name:"server" in
  ignore (Kernel.map_code k server clean_code);
  let sid = Subkernel.register_server sb server echo in
  Sky_mesh.Mesh.register mesh ~core:0 ~uri:"svc://" ~server_id:sid;
  let rogue = Kernel.spawn k ~name:"rogue" in
  ignore (Kernel.map_code k rogue clean_code);
  Subkernel.register_client_to_server sb rogue ~server_id:sid;
  let vs = Sky_mesh.Mesh.audit mesh in
  Alcotest.(check bool) "flow.closure" true
    (Report.has ~invariant:"flow.closure" vs);
  Alcotest.(check bool) "mesh.binding-outlives-cap agrees" true
    (Report.has ~invariant:"mesh.binding-outlives-cap" vs)

let test_flow_slot_escape () =
  (* The base EPT root poked into a live VMCS EPTP slot: it IS a known
     root (the per-structure eptp-slot check accepts it), but it is not
     among the roots the running domain's bindings entitle it to — one
     VMFUNC away from the identity RWX view of all of memory. *)
  let _k, sb, _client, _server, _sid, _ = setup_full () in
  let root = Subkernel.rootkernel sb in
  let vmcs = root.Rootkernel.vmcses.(0) in
  let base = Sky_mmu.Ept.root_pa root.Rootkernel.base_ept in
  Sky_mmu.Vmcs.set_eptp vmcs ~index:3 ~eptp:base;
  let vs = Subkernel.audit sb in
  Alcotest.(check bool) "flow.slot-escape" true
    (Report.has ~invariant:"flow.slot-escape" vs);
  Alcotest.(check bool) "ept.eptp-slot alone is fooled (base is known)" false
    (Report.has ~invariant:"ept.eptp-slot" vs)

let test_revoke_unmaps_buffers () =
  (* Differential mode: revocation must shrink the sharing graph and
     leave no stale writable edge (the buffers are unmapped everywhere,
     not just dropped from the registry). *)
  let _k, sb, client, _server, sid, _ = setup_full () in
  let before = Isoflow.graph (Subkernel.isoflow_input sb) in
  Subkernel.revoke_binding sb ~core:0 client ~server_id:sid ~reason:"test";
  let inp = Subkernel.isoflow_input sb in
  let after = Isoflow.graph inp in
  let d = Isoflow.diff ~before ~after in
  Alcotest.(check bool) "revocation removed writable edges" true
    (List.exists (fun e -> e.Isoflow.e_w) d.Isoflow.removed);
  Alcotest.(check int) "differential stale count is 0" 0
    (List.length (Isoflow.stale ~shared:inp.Isoflow.shared d));
  let vs = Subkernel.audit sb in
  if Report.has ~invariant:"flow.shared-writable" vs then
    Alcotest.failf "revoked buffers left mapped:\n%s"
      (String.concat "\n" (List.map Report.to_string vs))

(* ------------------------------------------------------------------ *)
(* Severity ordering and gadget-scan memoization                       *)
(* ------------------------------------------------------------------ *)

let test_severity_order () =
  let w = Report.v ~severity:Report.Warn ~invariant:"a.a" ~image:"img" "w" in
  let e = Report.v ~invariant:"z.z" ~image:"img" "e" in
  (match Report.sort [ w; e ] with
  | [ first; second ] ->
    Alcotest.(check string) "errors sort above warnings" "z.z"
      first.Report.invariant;
    Alcotest.(check string) "warning second" "a.a" second.Report.invariant
  | vs -> Alcotest.failf "expected 2 violations, got %d" (List.length vs));
  let vs = Gadget.audit (Gadget.image ~name:"data" (Bytes.of_string "\xf4\xf4")) in
  Alcotest.(check bool) "gadget.unverifiable is a warning" true
    (List.exists
       (fun v ->
         v.Report.invariant = "gadget.unverifiable"
         && v.Report.severity = Report.Warn)
       vs)

let test_gadget_rescan () =
  let img =
    Gadget.image ~name:"rescan" (encode [ Insn.Nop; Insn.Vmfunc; Insn.Ret ])
  in
  let v1 = Gadget.audit img in
  let v2 = Gadget.audit img in
  Alcotest.(check bool) "verdict identical on repeat" true (v1 = v2);
  (* Same name, different bytes: the verdict follows the new content. *)
  let img2 = Gadget.image ~name:"rescan" (encode [ Insn.Nop; Insn.Ret ]) in
  Alcotest.(check int) "changed content re-audits clean" 0
    (List.length (Gadget.audit img2))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "analysis"
    [
      ( "scan",
        [
          Alcotest.test_case "paged scan at page boundary" `Quick
            test_paged_scan_boundary;
          Alcotest.test_case "paged == flat" `Quick test_paged_scan_equals_flat;
          Alcotest.test_case "gap resets carry" `Quick
            test_chunked_scan_gap_resets_carry;
        ] );
      ( "decode",
        [
          Alcotest.test_case "spans tile the buffer" `Quick test_decode_spans_tile;
          Alcotest.test_case "unknown spans coalesce" `Quick
            test_unknown_spans_coalesce;
        ] );
      ( "gadget",
        [
          Alcotest.test_case "clean image" `Quick test_gadget_clean;
          Alcotest.test_case "aligned vmfunc" `Quick test_gadget_aligned_vmfunc;
          Alcotest.test_case "misaligned vmfunc" `Quick
            test_gadget_misaligned_vmfunc;
          Alcotest.test_case "allowed range" `Quick test_gadget_allowed_range;
          Alcotest.test_case "unverifiable bytes" `Quick test_gadget_unverifiable;
          Alcotest.test_case "severity ordering" `Quick test_severity_order;
          Alcotest.test_case "rescan verdict is stable" `Quick test_gadget_rescan;
        ]
        @ qc [ prop_rewrite_then_audit ] );
      ( "verify",
        [
          Alcotest.test_case "catches tampering" `Quick test_verify_catches_tampering;
          Alcotest.test_case "respects allowed ranges" `Quick
            test_verify_respects_allowed;
        ] );
      ( "trampoline",
        [
          Alcotest.test_case "pristine verifies" `Quick test_tramp_pristine;
          Alcotest.test_case "swapped index register" `Quick
            test_tramp_swapped_index;
          Alcotest.test_case "missing pop" `Quick test_tramp_missing_pop;
          Alcotest.test_case "no vmfunc pair" `Quick test_tramp_unpaired_vmfunc;
          Alcotest.test_case "syscall" `Quick test_tramp_syscall;
          Alcotest.test_case "undecodable" `Quick test_tramp_undecodable;
        ] );
      ( "ept",
        [
          Alcotest.test_case "W+X remapped leaf" `Quick test_ept_wx_leaf;
          Alcotest.test_case "writable trampoline" `Quick
            test_ept_trampoline_writable;
        ] );
      ( "machine",
        [
          Alcotest.test_case "baseline audits clean" `Quick
            test_audit_baseline_clean;
          Alcotest.test_case "planted gadget" `Quick test_audit_planted_gadget;
          Alcotest.test_case "W+X mapping" `Quick test_audit_wx_mapping;
          Alcotest.test_case "corrupted trampoline" `Quick
            test_audit_corrupted_trampoline;
          Alcotest.test_case "unverifiable image refused" `Quick
            test_registration_rejects_unverifiable;
        ] );
      ( "isoflow",
        [
          Alcotest.test_case "shared-writable alias" `Quick
            test_flow_shared_writable;
          Alcotest.test_case "cross-domain W^X" `Quick test_flow_wx_cross;
          Alcotest.test_case "trampoline divergence" `Quick
            test_flow_tramp_identical;
          Alcotest.test_case "closure without grant" `Quick test_flow_closure;
          Alcotest.test_case "EPTP slot escape" `Quick test_flow_slot_escape;
          Alcotest.test_case "revocation leaves no stale edge" `Quick
            test_revoke_unmaps_buffers;
        ] );
    ]
