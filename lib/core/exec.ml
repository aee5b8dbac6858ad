open Sky_isa
open Sky_ukernel

type stop = [ `Returned | `Syscall ]

exception Exec_fault of string

type regs = int64 array

let return_sentinel = 0x0dead000

let run kernel ~core ~entry ?regs ?(max_steps = 100_000) () =
  let vcpu = Kernel.vcpu kernel ~core in
  let mem = Kernel.mem kernel in
  Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
  let regs =
    match regs with
    | Some r -> Array.copy r
    | None ->
      (* A scratch stack in the live process with the sentinel on top. *)
      let proc =
        match kernel.Kernel.running.(core) with
        | Some p -> p
        | None -> raise (Exec_fault "no process running on this core")
      in
      let stack_va = Kernel.map_anon kernel proc 4096 in
      let r = Array.make 16 0L in
      let rsp = stack_va + 4096 - 8 in
      Sky_mmu.Translate.write_u64 vcpu mem ~va:rsp (Int64.of_int return_sentinel);
      r.(Reg.encoding Reg.Rsp) <- Int64.of_int rsp;
      r
  in
  let flags = Interp.fresh_flags () in
  let memory =
    {
      Interp.read64 = (fun va -> Sky_mmu.Translate.read_u64 vcpu mem ~va);
      write64 = (fun va v -> Sky_mmu.Translate.write_u64 vcpu mem ~va v);
    }
  in
  let reg r = regs.(Reg.encoding r) in
  (* Fetch a decode window through the i-side of the MMU and decode it. *)
  let fetch_insn ip =
    Sky_mmu.Translate.touch vcpu mem Sky_mmu.Translate.fetch ~va:ip ~len:1;
    (* Read up to 16 bytes without crossing into an unmapped next page. *)
    let in_page = 4096 - (ip land 0xfff) in
    let want = min 16 in_page in
    let window =
      if want >= 16 then Sky_mmu.Translate.read_bytes vcpu mem ~va:ip ~len:16
      else begin
        (* Instruction may span the page: try to read beyond; fall back
           to the in-page window if the next page is unmapped. *)
        try Sky_mmu.Translate.read_bytes vcpu mem ~va:ip ~len:16
        with Sky_mmu.Translate.Page_fault _ ->
          Sky_mmu.Translate.read_bytes vcpu mem ~va:ip ~len:want
      end
    in
    Decode.decode_one window 0
  in
  let rec go ip steps =
    if ip = return_sentinel then (`Returned, regs)
    else if steps > max_steps then raise (Exec_fault "step limit")
    else begin
      (* Fault site "exec.step": the machine dies mid-trampoline. *)
      if Sky_faults.Fault.is_enabled () then
        Sky_faults.Fault.inject ~core "exec.step";
      let d = fetch_insn ip in
      let next = ip + d.Decode.len in
      match d.Decode.insn with
      | None ->
        raise (Exec_fault (Printf.sprintf "undecodable instruction at %#x" ip))
      | Some insn -> (
        match Interp.step memory regs flags insn ~next_ip:next with
        | Interp.Next | Interp.Cpuid -> go next (steps + 1)
        | Interp.Jump target -> go target (steps + 1)
        | Interp.Syscall -> (`Syscall, regs)
        | Interp.Vmfunc ->
          (* The real thing: EPTP switching with RAX = function, RCX =
             index, exactly as the trampoline encodes it. *)
          Sky_trace.Trace.instant ~core ~cat:"vmfunc" "exec.vmfunc";
          Sky_mmu.Vmfunc.execute vcpu
            ~func:(Int64.to_int (reg Reg.Rax))
            ~index:(Int64.to_int (reg Reg.Rcx));
          go next (steps + 1)
        | Interp.Wrpkru rax ->
          (* Hardware faults unless ECX = EDX = 0; the simulated machine
             does too, so a call gate with sloppy operand discipline dies
             here even if the static auditor was bypassed. *)
          if reg Reg.Rcx <> 0L || reg Reg.Rdx <> 0L then
            raise (Exec_fault "wrpkru with ECX/EDX nonzero");
          Sky_trace.Trace.instant ~core ~cat:"vmfunc" "exec.wrpkru";
          Sky_mmu.Wrpkru.execute vcpu
            ~pkru:(Int64.to_int (Int64.logand rax 0xffff_ffffL));
          go next (steps + 1))
    end
  in
  go entry 0
