open Sky_sim
open Sky_mmu
open Sky_ukernel

type kind = Vmfunc | Mpk | Syscall

let all = [ Vmfunc; Mpk; Syscall ]

let name = function
  | Vmfunc -> "vmfunc"
  | Mpk -> "mpk"
  | Syscall -> "syscall"

let of_string = function
  | "vmfunc" -> Some Vmfunc
  | "mpk" -> Some Mpk
  | "syscall" -> Some Syscall
  | _ -> None

let pp fmt k = Format.pp_print_string fmt (name k)

(* Atomic so parallel replicas spawned after the CLI sets the backend
   read it without a data race; it is configuration, written once per
   run before any domain is spawned. *)
let default = Atomic.make Vmfunc
let get_default () = Atomic.get default
let set_default k = Atomic.set default k

let with_default k f =
  let saved = Atomic.get default in
  Atomic.set default k;
  Fun.protect ~finally:(fun () -> Atomic.set default saved) f

(* ---- facts ---- *)

let title = function
  | Vmfunc -> "VMFUNC EPTP-list switching through the trampoline (SkyBridge)"
  | Mpk -> "MPK protection keys with a WRPKRU call gate (ERIM-style)"
  | Syscall -> "Filtered-syscall kernel slowpath with a per-domain entry table"

(* The per-leg cost of the architectural switch itself (the rest of a
   crossing — save/restore, stack install — is mechanism-independent and
   charged by the trampoline). The syscall figure is the whole kernel
   round trip charged by the slowpath, not a single instruction. *)
let switch_cycles = function
  | Vmfunc -> Costs.vmfunc
  | Mpk -> Costs.wrpkru
  | Syscall ->
    Costs.syscall + Costs.swapgs + Costs.entry_filter_check + Costs.cr3_write
    + Costs.swapgs + Costs.sysret

let kernel_on_path = function Syscall -> true | Vmfunc | Mpk -> false

(* Only the syscall backend's un-PCID'd CR3 write flushes. *)
let tlb_flush_on_switch = function Syscall -> true | Vmfunc | Mpk -> false

(* Only MPK isolates by the PKRU view rather than by page tables. *)
let shared_address_space = function Mpk -> true | Vmfunc | Syscall -> false

let trampoline_code = function
  | Vmfunc -> Trampoline.code ()
  | Mpk -> Trampoline.mpk_code ()
  | Syscall -> Trampoline.syscall_code ()

let tramp_flavor = function
  | Vmfunc -> `Vmfunc
  | Mpk -> `Mpk
  | Syscall -> `Syscall

(* ---- state ---- *)

type t = {
  kind : kind;
  kernel : Kernel.t;
  root : Rootkernel.t;
  trampoline_frame : int;
  max_eptp : int;
  filter : Entry_filter.t;
  mutable domains : int;  (** registered so far: the MPK key serial *)
  mutable evictions : int;
}

let create kind kernel root ~trampoline_frame ~max_eptp =
  { kind; kernel; root; trampoline_frame; max_eptp;
    filter = Entry_filter.create (); domains = 0; evictions = 0 }

let kind t = t.kind
let entry_filter t = t.filter
let evictions t = t.evictions

(* One EPTP-list slot after slot 0. A revoked binding's slot degenerates
   to the domain's own EPT (server -1) instead of being removed: in-flight
   nested frames hold slot indices, so positions must stay stable. *)
type slot = { server : int; ept : Ept.t; mutable used : int }

type domain = {
  own_ept : Ept.t;
  pkey : int;
  view : int;
  mutable slots : slot list;
  mutable d_evictions : int;
}

let own_ept d = d.own_ept
let domain_evictions d = d.d_evictions

let resident_servers d =
  List.filter_map (fun s -> if s.server >= 0 then Some s.server else None) d.slots

let eptp_list d = Ept.root_pa d.own_ept :: List.map (fun s -> Ept.root_pa s.ept) d.slots

(* Rewriting the EPTP list mid-call must not switch address spaces. *)
let reinstall t ~core d =
  let vmcs = t.root.Rootkernel.vmcses.(core) in
  let saved = Vmcs.current_index vmcs in
  Rootkernel.install_eptp_list t.root ~core (eptp_list d);
  vmcs.Vmcs.current_index <- saved

let refresh t d proc =
  Array.iteri
    (fun core running ->
      match running with Some p when p == proc -> reinstall t ~core d | _ -> ())
    t.kernel.Kernel.running

(* The trampoline frame in a process/binding EPT (EPT reading: bit 1
   write, bit 2 execute): executable, never writable — the base EPT's
   identity RWX huge page would otherwise let a process forge the only
   legal VMFUNC-bearing page. *)
let harden t ept =
  Ept.map_4k_flags ept ~mem:(Kernel.mem t.kernel) ~alloc:(Kernel.alloc t.kernel)
    ~gpa:t.trampoline_frame ~hpa:t.trampoline_frame
    ~flags:{ Pte.present = true; writable = false; user = true; huge = false; nx = false }

(* MPK hands each domain a protection key and a resting view (own key +
   the shared-buffer key 0). With more domains than the 15 non-default
   hardware keys, keys are virtualized round-robin — domains sharing a
   key fall back to page-table separation, which the Isoflow
   pkru-escape check accounts for. *)
let domain t proc =
  let own_ept = Rootkernel.new_process_ept t.root proc in
  harden t own_ept;
  let pkey, view =
    match t.kind with
    | Mpk ->
      let k = (t.domains mod 15) + 1 in
      (k, Pkru.allow_only [ 0; k ])
    | Vmfunc | Syscall -> (0, 0)
  in
  t.domains <- t.domains + 1;
  { own_ept; pkey; view; slots = []; d_evictions = 0 }

let schedule t ~core d =
  (match t.kind with
  | Mpk -> (Kernel.vcpu t.kernel ~core).Vcpu.pkru <- d.view
  | Vmfunc | Syscall -> ());
  Rootkernel.install_eptp_list t.root ~core (eptp_list d)

let mpk_view t d =
  match t.kind with Mpk -> Some (d.pkey, d.view) | Vmfunc | Syscall -> None

(* ---- bindings ---- *)

type binding =
  | Ept of Ept.t  (** the CR3-remapped binding EPT (§4.3) *)
  | View of int  (** the elevated view: server key + shared key *)
  | Grant  (** the grant itself lives in the entry filter *)

let bind t d ~client ~server ~server_dom ~server_id =
  match t.kind with
  | Vmfunc ->
    let ept = Rootkernel.bind_ept t.root ~client ~server in
    harden t ept;
    if List.length d.slots + 1 < t.max_eptp then
      d.slots <- d.slots @ [ { server = server_id; ept; used = 0 } ];
    Ept ept
  | Mpk -> View (Pkru.allow_only [ 0; server_dom.pkey ])
  | Syscall ->
    (* The trap-time filter matches the entry exactly; the gate page is
       the only blessed entry range. *)
    Entry_filter.allow t.filter ~pid:client.Proc.pid ~server:server_id
      ~entry:Layout.trampoline_va;
    Grant

let binding_ept = function Ept e -> Some e | View _ | Grant -> None

(* MPK has nothing standing to invalidate: the elevated view only ever
   exists between the gate's two WRPKRUs. *)
let revoke t d b ~client_pid ~server_id =
  match b with
  | Ept e ->
    d.slots <-
      List.map
        (fun s -> if s.ept == e then { server = -1; ept = d.own_ept; used = 0 } else s)
        d.slots
  | Grant -> Entry_filter.revoke t.filter ~pid:client_pid ~server:server_id
  | View _ -> ()

(* ---- the crossing ---- *)

exception Denied of string

type token =
  | Tindex of int  (** VMFUNC: the EPTP index to return to *)
  | Tpkru of { pkru : int; cr3 : int; pcid : int }  (** MPK: client state *)
  | Tcr3 of { cr3 : int; pcid : int }  (** syscall: client translation *)

let rec touch e ~now i = function
  | [] -> 0
  | s :: rest -> if s.ept == e then (s.used <- now; i) else touch e ~now (i + 1) rest

(* A slot the core runs in, or one an in-flight frame returns to: a
   return VMFUNC into it after eviction would land in another server. *)
let pinned vmcs frames i =
  Vmcs.current_index vmcs = i
  || List.exists (function Tindex r -> r = i | Tpkru _ | Tcr3 _ -> false) frames

(* The least-recently-used unpinned slot, first on ties. *)
let rec lru vmcs frames i best = function
  | [] -> best
  | s :: rest ->
    let best =
      match best with
      | _ when pinned vmcs frames i -> best
      | Some b when b.used <= s.used -> best
      | _ -> Some s
    in
    lru vmcs frames (i + 1) best rest

let resident t ~core d b ~server_id ~now ~frames =
  match b with
  | View _ | Grant -> 0
  | Ept e ->
    let vmcs = t.root.Rootkernel.vmcses.(core) in
    let idx = touch e ~now 1 d.slots in
    if idx > 0 then begin
      (* The list in the VMCS may predate this binding (registered after
         the client was last scheduled): refresh it if stale. *)
      if Vmcs.eptp_at vmcs ~index:idx <> Ept.root_pa e then reinstall t ~core d;
      idx
    end
    else begin
      let slot = { server = server_id; ept = e; used = now } in
      (if d.slots = [] || List.length d.slots + 1 < t.max_eptp then
         d.slots <- d.slots @ [ slot ]
       else
         match lru vmcs frames 1 None d.slots with
         | None -> raise (Denied "no unpinned EPTP slot for")
         | Some v ->
           d.slots <- List.map (fun x -> if x == v then slot else x) d.slots;
           t.evictions <- t.evictions + 1;
           d.d_evictions <- d.d_evictions + 1);
      reinstall t ~core d;
      touch e ~now 1 d.slots
    end

let cross_enter t ~core vcpu b ~client ~server ~server_id ~idx =
  match b with
  | Ept _ ->
    let return_index = Vmcs.current_index (Vcpu.vmcs_exn vcpu) in
    Vmfunc.execute vcpu ~func:0 ~index:idx;
    Tindex return_index
  | View view ->
    let token =
      Tpkru { pkru = vcpu.Vcpu.pkru; cr3 = vcpu.Vcpu.cr3; pcid = vcpu.Vcpu.pcid }
    in
    (* The architectural switch is the WRPKRU alone: no EPTP change, no
       CR3 write, no flush. The CR3/PCID assignment below is the
       single-address-space emulation — under MPK client and server
       share one address space, which this machine models by viewing
       the server's page tables uncharged. Giving the borrowed view the
       server's own PCID tag keeps the TLB sound without a flush: the
       client's untagged entries stay filed under its own ASID. *)
    Wrpkru.execute vcpu ~pkru:view;
    vcpu.Vcpu.cr3 <- Proc.cr3 server;
    vcpu.Vcpu.pcid <- server.Proc.pid;
    token
  | Grant ->
    let token = Tcr3 { cr3 = vcpu.Vcpu.cr3; pcid = vcpu.Vcpu.pcid } in
    (* The filtered kernel slowpath: trap, check the grant table before
       anything else, then a full (flushing) CR3 switch into the
       server. A missing grant is denied at the cheapest point. *)
    Kernel.kernel_entry t.kernel ~core;
    Cpu.charge (Kernel.cpu t.kernel ~core) Costs.entry_filter_check;
    if
      not
        (Entry_filter.check t.filter ~pid:client.Proc.pid ~server:server_id
           ~entry:Layout.trampoline_va)
    then begin
      Kernel.kernel_exit t.kernel ~core;
      raise (Denied "entry filter denied")
    end;
    Vcpu.write_cr3 vcpu ~cr3:(Proc.cr3 server) ~pcid:server.Proc.pid;
    Kernel.kernel_exit t.kernel ~core;
    token

let cross_leave t ~core vcpu = function
  | Tindex return_index -> Vmfunc.execute vcpu ~func:0 ~index:return_index
  | Tpkru { pkru; cr3; pcid } ->
    Wrpkru.execute vcpu ~pkru;
    vcpu.Vcpu.cr3 <- cr3;
    vcpu.Vcpu.pcid <- pcid
  | Tcr3 { cr3; pcid } ->
    (* Returning is a kernel round trip too: trap, validate the return
       frame, switch back to the client's translation. *)
    Kernel.kernel_entry t.kernel ~core;
    Cpu.charge (Kernel.cpu t.kernel ~core) Costs.entry_filter_check;
    Vcpu.write_cr3 vcpu ~cr3 ~pcid;
    Kernel.kernel_exit t.kernel ~core

(* Figure-7 categories: the user-level mechanisms' legs are domain
   switches, the kernel-mediated one's are syscalls. *)
let account k (s : Sky_kernels.Breakdown.t) =
  let legs = 2 * switch_cycles k in
  if kernel_on_path k then s.syscall <- s.syscall + legs
  else s.vmfunc <- s.vmfunc + legs

(* ---- audit inputs ---- *)

(* ERIM's inspection requirement: under MPK a stray [0F 01 EF] would let
   the domain rewrite its own PKRU. *)
let registration_violations t images =
  match t.kind with
  | Mpk -> List.concat_map Sky_analysis.Gadget.audit_wrpkru images
  | Vmfunc | Syscall -> []

(* The MPK WRPKRU scan: the same images, but the trampoline's allowed
   ranges are the call gate's two WRPKRUs rather than VMFUNCs. *)
let wrpkru_images t ~code ~tramp images =
  match t.kind with
  | Mpk ->
    Sky_analysis.Gadget.image ~name:"trampoline" ~va:Layout.trampoline_va
      ~allowed:(Trampoline.wrpkru_ranges code) tramp
    :: images
  | Vmfunc | Syscall -> []

let entry_filter_audit t =
  match t.kind with
  | Syscall ->
    Some
      {
        Sky_analysis.Audit.ef_entries = Entry_filter.entries t.filter;
        ef_blessed = [ (Layout.trampoline_va, 4096) ];
      }
  | Vmfunc | Mpk -> None

let isoflow_mpk t doms =
  match t.kind with
  | Mpk ->
    Some
      {
        Sky_analysis.Isoflow.m_domains =
          List.map
            (fun (p, d) ->
              {
                Sky_analysis.Isoflow.m_pid = p.Proc.pid;
                m_name = p.Proc.name;
                m_key = d.pkey;
                m_view = d.view;
              })
            doms;
        m_shared_key = 0;
      }
  | Vmfunc | Syscall -> None
