open Sky_isa
open Sky_ukernel

type stop = [ `Returned | `Syscall | `Fell_off ]

exception Exec_fault of string

type regs = int64 array

let return_sentinel = 0x0dead000

let get regs r = regs.(Reg.encoding r)
let set regs r v = regs.(Reg.encoding r) <- v

(* Minimal flag state, shared semantics with the reference interpreter. *)
type flags = { mutable zf : bool; mutable slt : bool; mutable ult : bool }

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
      set r Reg.Rsp (Int64.of_int rsp);
      r
  in
  let flags = { zf = false; slt = false; ult = false } in
  let read64 va = Sky_mmu.Translate.read_u64 vcpu mem ~va in
  let write64 va v = Sky_mmu.Translate.write_u64 vcpu mem ~va v in
  let push v =
    let rsp = Int64.to_int (get regs Reg.Rsp) - 8 in
    set regs Reg.Rsp (Int64.of_int rsp);
    write64 rsp v
  in
  let pop () =
    let rsp = Int64.to_int (get regs Reg.Rsp) in
    let v = read64 rsp in
    set regs Reg.Rsp (Int64.of_int (rsp + 8));
    v
  in
  let ea (m : Insn.mem) =
    let base = Option.fold ~none:0L ~some:(get regs) m.Insn.base in
    let index =
      Option.fold ~none:0L
        ~some:(fun (r, s) -> Int64.mul (get regs r) (Int64.of_int s))
        m.Insn.index
    in
    Int64.to_int (Int64.add (Int64.add base index) (Int64.of_int m.Insn.disp))
  in
  let rm_value = function
    | Insn.R r -> get regs r
    | Insn.M m -> read64 (ea m)
  in
  let set_flags_result v =
    flags.zf <- Int64.equal v 0L;
    flags.slt <- Int64.compare v 0L < 0;
    flags.ult <- false
  in
  let set_flags_cmp a b =
    flags.zf <- Int64.equal a b;
    flags.slt <- Int64.compare a b < 0;
    flags.ult <- Int64.unsigned_compare a b < 0
  in
  let cond_holds = function
    | Insn.E -> flags.zf
    | Insn.Ne -> not flags.zf
    | Insn.L -> flags.slt
    | Insn.Ge -> not flags.slt
    | Insn.Le -> flags.slt || flags.zf
    | Insn.G -> not (flags.slt || flags.zf)
    | Insn.B -> flags.ult
    | Insn.Ae -> not flags.ult
  in
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
  let rec step ip steps =
    if steps > max_steps then raise (Exec_fault "step limit")
    else if ip = return_sentinel then (`Returned, regs)
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
        let continue () = step next (steps + 1) in
        let alu r v =
          set regs r v;
          set_flags_result v;
          continue ()
        in
        match insn with
        | Insn.Nop -> continue ()
        | Insn.Push r ->
          push (get regs r);
          continue ()
        | Insn.Pop r ->
          set regs r (pop ());
          continue ()
        | Insn.Mov_rr (d, s) ->
          set regs d (get regs s);
          continue ()
        | Insn.Mov_ri (d, i) ->
          set regs d i;
          continue ()
        | Insn.Mov_load (d, m) ->
          set regs d (read64 (ea m));
          continue ()
        | Insn.Mov_store (m, s) ->
          write64 (ea m) (get regs s);
          continue ()
        | Insn.Add_rr (d, s) ->
          set regs d (Int64.add (get regs d) (get regs s));
          continue ()
        | Insn.Add_ri (d, i) ->
          set regs d (Int64.add (get regs d) (Int64.of_int i));
          continue ()
        | Insn.Add_rm (d, m) ->
          set regs d (Int64.add (get regs d) (read64 (ea m)));
          continue ()
        | Insn.Sub_ri (d, i) ->
          set regs d (Int64.sub (get regs d) (Int64.of_int i));
          continue ()
        | Insn.Xor_rr (d, s) -> alu d (Int64.logxor (get regs d) (get regs s))
        | Insn.And_rr (d, s) -> alu d (Int64.logand (get regs d) (get regs s))
        | Insn.And_ri (d, i) -> alu d (Int64.logand (get regs d) (Int64.of_int i))
        | Insn.Or_rr (d, s) -> alu d (Int64.logor (get regs d) (get regs s))
        | Insn.Or_ri (d, i) -> alu d (Int64.logor (get regs d) (Int64.of_int i))
        | Insn.Cmp_rr (a, b) ->
          set_flags_cmp (get regs a) (get regs b);
          continue ()
        | Insn.Cmp_ri (a, i) ->
          set_flags_cmp (get regs a) (Int64.of_int i);
          continue ()
        | Insn.Test_rr (a, b) ->
          set_flags_result (Int64.logand (get regs a) (get regs b));
          continue ()
        | Insn.Shl_ri (d, i) -> alu d (Int64.shift_left (get regs d) (i land 0x3f))
        | Insn.Shr_ri (d, i) ->
          alu d (Int64.shift_right_logical (get regs d) (i land 0x3f))
        | Insn.Inc d -> alu d (Int64.add (get regs d) 1L)
        | Insn.Dec d -> alu d (Int64.sub (get regs d) 1L)
        | Insn.Neg d -> alu d (Int64.neg (get regs d))
        | Insn.Imul_rri (d, src, i) ->
          set regs d (Int64.mul (rm_value src) (Int64.of_int i));
          continue ()
        | Insn.Imul_rm (d, src) ->
          set regs d (Int64.mul (get regs d) (rm_value src));
          continue ()
        | Insn.Lea (d, m) ->
          set regs d (Int64.of_int (ea m));
          continue ()
        | Insn.Jmp_rel rel -> step (next + rel) (steps + 1)
        | Insn.Jcc (c, rel) ->
          if cond_holds c then step (next + rel) (steps + 1) else continue ()
        | Insn.Call_rel rel ->
          push (Int64.of_int next);
          step (next + rel) (steps + 1)
        | Insn.Ret ->
          let target = Int64.to_int (pop ()) in
          if target = return_sentinel then (`Returned, regs)
          else step target (steps + 1)
        | Insn.Syscall -> (`Syscall, regs)
        | Insn.Vmfunc ->
          (* The real thing: EPTP switching with RAX = function, RCX =
             index, exactly as the trampoline encodes it. *)
          Sky_trace.Trace.instant ~core ~cat:"vmfunc" "exec.vmfunc";
          Sky_mmu.Vmfunc.execute vcpu
            ~func:(Int64.to_int (get regs Reg.Rax))
            ~index:(Int64.to_int (get regs Reg.Rcx));
          continue ()
        | Insn.Wrpkru ->
          (* Hardware faults unless ECX = EDX = 0; the simulated machine
             does too, so a call gate with sloppy operand discipline dies
             here even if the static auditor was bypassed. *)
          if get regs Reg.Rcx <> 0L || get regs Reg.Rdx <> 0L then
            raise (Exec_fault "wrpkru with ECX/EDX nonzero");
          Sky_trace.Trace.instant ~core ~cat:"vmfunc" "exec.wrpkru";
          Sky_mmu.Wrpkru.execute vcpu
            ~pkru:(Int64.to_int (Int64.logand (get regs Reg.Rax) 0xffff_ffffL));
          continue ()
        | Insn.Cpuid ->
          set regs Reg.Rax 0x16L;
          set regs Reg.Rbx 0x756e_6547L;
          set regs Reg.Rcx 0x6c65_746eL;
          set regs Reg.Rdx 0x4965_6e69L;
          continue ())
    end
  in
  step entry 0
