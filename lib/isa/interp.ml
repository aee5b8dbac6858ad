(** The instruction semantics, and the reference interpreter built on it.

    [step] is the one definition of what an instruction of the subset
    does to registers, flags and memory. It runs over any {!memory}:
    [run] below instantiates it with a flat sparse byte memory to
    {e verify the rewriter} (the qcheck equivalence property runs an
    original instruction stream and its VMFUNC-free rewrite on the same
    initial state and demands identical final registers, memory and
    event history); [Sky_core.Exec] instantiates it with memory
    translated and charged through the simulated MMU to run the
    trampoline. Privileged instructions are not executed by [step]: they
    come back to the caller as an {!outcome}. *)

type event = Ev_vmfunc | Ev_syscall | Ev_cpuid | Ev_wrpkru of int64

(* Condition flags, reduced to the predicates the supported Jcc
   conditions need: zero, signed-less, unsigned-less. *)
type flags = { mutable zf : bool; mutable slt : bool; mutable ult : bool }

let fresh_flags () = { zf = false; slt = false; ult = false }

(* What [step] needs of memory: 64-bit little-endian loads and stores at
   an effective address. *)
type memory = { read64 : int -> int64; write64 : int -> int64 -> unit }

type outcome =
  | Next  (** fall through to the next instruction *)
  | Jump of int  (** control transfer to this address *)
  | Syscall
  | Vmfunc
  | Wrpkru of int64  (** RAX: the value to write to PKRU *)
  | Cpuid  (** the deterministic leaf values are already in RAX..RDX *)

let get regs r = regs.(Reg.encoding r)
let set regs r v = regs.(Reg.encoding r) <- v

let ea regs (m : Insn.mem) =
  let base = Option.fold ~none:0L ~some:(get regs) m.Insn.base in
  let index =
    Option.fold ~none:0L
      ~some:(fun (r, s) -> Int64.mul (get regs r) (Int64.of_int s))
      m.Insn.index
  in
  Int64.to_int (Int64.add (Int64.add base index) (Int64.of_int m.Insn.disp))

(* Flags from a result compared against zero (after ALU ops). *)
let set_flags_result flags v =
  flags.zf <- Int64.equal v 0L;
  flags.slt <- Int64.compare v 0L < 0;
  flags.ult <- false

(* Flags from a subtraction a - b (CMP semantics). *)
let set_flags_cmp flags a b =
  flags.zf <- Int64.equal a b;
  flags.slt <- Int64.compare a b < 0;
  flags.ult <- Int64.unsigned_compare a b < 0

let cond_holds flags = function
  | Insn.E -> flags.zf
  | Insn.Ne -> not flags.zf
  | Insn.L -> flags.slt
  | Insn.Ge -> not flags.slt
  | Insn.Le -> flags.slt || flags.zf
  | Insn.G -> not (flags.slt || flags.zf)
  | Insn.B -> flags.ult
  | Insn.Ae -> not flags.ult

(* Executes one instruction whose successor starts at [next_ip]. *)
let step mem regs flags insn ~next_ip =
  let get = get regs and set = set regs in
  let ea = ea regs in
  let push v =
    let rsp = Int64.sub (get Reg.Rsp) 8L in
    set Reg.Rsp rsp;
    mem.write64 (Int64.to_int rsp) v
  in
  let pop () =
    let rsp = get Reg.Rsp in
    let v = mem.read64 (Int64.to_int rsp) in
    set Reg.Rsp (Int64.add rsp 8L);
    v
  in
  let rm_value = function Insn.R r -> get r | Insn.M m -> mem.read64 (ea m) in
  let mov r v =
    set r v;
    Next
  in
  let alu r v =
    set r v;
    set_flags_result flags v;
    Next
  in
  match insn with
  | Insn.Nop -> Next
  | Insn.Push r ->
    push (get r);
    Next
  | Insn.Pop r -> mov r (pop ())
  | Insn.Mov_rr (d, s) -> mov d (get s)
  | Insn.Mov_ri (d, i) -> mov d i
  | Insn.Mov_load (d, m) -> mov d (mem.read64 (ea m))
  | Insn.Mov_store (m, s) ->
    mem.write64 (ea m) (get s);
    Next
  | Insn.Add_rr (d, s) -> mov d (Int64.add (get d) (get s))
  | Insn.Add_ri (d, i) -> mov d (Int64.add (get d) (Int64.of_int i))
  | Insn.Add_rm (d, m) -> mov d (Int64.add (get d) (mem.read64 (ea m)))
  | Insn.Sub_ri (d, i) -> mov d (Int64.sub (get d) (Int64.of_int i))
  | Insn.Imul_rri (d, src, i) -> mov d (Int64.mul (rm_value src) (Int64.of_int i))
  | Insn.Imul_rm (d, src) -> mov d (Int64.mul (get d) (rm_value src))
  | Insn.Lea (d, m) -> mov d (Int64.of_int (ea m))
  | Insn.Xor_rr (d, s) -> alu d (Int64.logxor (get d) (get s))
  | Insn.And_rr (d, s) -> alu d (Int64.logand (get d) (get s))
  | Insn.And_ri (d, i) -> alu d (Int64.logand (get d) (Int64.of_int i))
  | Insn.Or_rr (d, s) -> alu d (Int64.logor (get d) (get s))
  | Insn.Or_ri (d, i) -> alu d (Int64.logor (get d) (Int64.of_int i))
  | Insn.Cmp_rr (a, b) ->
    set_flags_cmp flags (get a) (get b);
    Next
  | Insn.Cmp_ri (a, i) ->
    set_flags_cmp flags (get a) (Int64.of_int i);
    Next
  | Insn.Test_rr (a, b) ->
    set_flags_result flags (Int64.logand (get a) (get b));
    Next
  | Insn.Shl_ri (d, i) -> alu d (Int64.shift_left (get d) (i land 0x3f))
  | Insn.Shr_ri (d, i) -> alu d (Int64.shift_right_logical (get d) (i land 0x3f))
  | Insn.Inc d -> alu d (Int64.add (get d) 1L)
  | Insn.Dec d -> alu d (Int64.sub (get d) 1L)
  | Insn.Neg d -> alu d (Int64.neg (get d))
  | Insn.Jcc (c, rel) -> if cond_holds flags c then Jump (next_ip + rel) else Next
  | Insn.Jmp_rel rel -> Jump (next_ip + rel)
  | Insn.Call_rel rel ->
    push (Int64.of_int next_ip);
    Jump (next_ip + rel)
  | Insn.Ret -> Jump (Int64.to_int (pop ()))
  | Insn.Syscall -> Syscall
  | Insn.Vmfunc -> Vmfunc
  | Insn.Wrpkru -> Wrpkru (get Reg.Rax)
  | Insn.Cpuid ->
    (* Deterministic leaf values. *)
    set Reg.Rax 0x16L;
    set Reg.Rbx 0x756e_6547L;
    set Reg.Rcx 0x6c65_746eL;
    set Reg.Rdx 0x4965_6e69L;
    Cpuid

(* ---- the flat instance ---- *)

type state = {
  regs : int64 array;  (** indexed by {!Reg.encoding} *)
  mem : (int, int) Hashtbl.t;  (** sparse byte memory *)
  mutable ip : int;  (** byte offset into the code buffer *)
  mutable events : event list;  (** reverse chronological *)
  mutable steps : int;
  flags : flags;
}

exception Stuck of string

let create ?(rsp = 0x7000_0000) () =
  let regs = Array.make 16 0L in
  set regs Reg.Rsp (Int64.of_int rsp);
  { regs; mem = Hashtbl.create 64; ip = 0; events = []; steps = 0; flags = fresh_flags () }

let get t r = get t.regs r
let set t r v = set t.regs r v
let read_byte t a = Option.value ~default:0 (Hashtbl.find_opt t.mem (a land 0x7fff_ffff_ffff_ffff))
let write_byte t a v = Hashtbl.replace t.mem (a land 0x7fff_ffff_ffff_ffff) (v land 0xff)

let read64 t a =
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte t (a + k)))
  done;
  !v

let write64 t a v =
  for k = 0 to 7 do
    write_byte t (a + k) (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
  done

(* Run until the instruction pointer leaves [code] (falling exactly onto
   [length code] is a normal exit; anywhere else raises), or [max_steps]
   is exceeded. Privileged instructions are recorded as events (the
   value a WRPKRU writes matters for equivalence; the architectural
   requirement ECX = EDX = 0 is checked by the trampoline auditor, not
   here). *)
let run ?(max_steps = 10_000) t code =
  let len = Bytes.length code in
  let mem = { read64 = read64 t; write64 = write64 t } in
  let rec go () =
    if t.ip = len then ()
    else if t.ip < 0 || t.ip > len then
      raise (Stuck (Printf.sprintf "ip %#x outside code" t.ip))
    else if t.steps >= max_steps then raise (Stuck "step limit")
    else begin
      t.steps <- t.steps + 1;
      let d = Decode.decode_one code t.ip in
      match d.Decode.insn with
      | None ->
        raise
          (Stuck
             (Printf.sprintf "undecodable byte %#x at %#x"
                (Char.code (Bytes.get code t.ip))
                t.ip))
      | Some insn ->
        let next_ip = t.ip + d.Decode.len in
        let event e =
          t.events <- e :: t.events;
          t.ip <- next_ip
        in
        (match step mem t.regs t.flags insn ~next_ip with
        | Next -> t.ip <- next_ip
        | Jump target -> t.ip <- target
        | Syscall -> event Ev_syscall
        | Vmfunc -> event Ev_vmfunc
        | Wrpkru rax -> event (Ev_wrpkru rax)
        | Cpuid -> event Ev_cpuid);
        go ()
    end
  in
  go ()

let vmfunc_count t =
  List.length (List.filter (fun e -> e = Ev_vmfunc) t.events)

let equal_state a b =
  a.regs = b.regs
  && List.rev a.events = List.rev b.events
  &&
  (* Compare memory as maps, ignoring zero bytes (unset = 0). *)
  let nonzero h =
    Hashtbl.fold (fun k v acc -> if v <> 0 then (k, v) :: acc else acc) h []
    |> List.sort compare
  in
  nonzero a.mem = nonzero b.mem
