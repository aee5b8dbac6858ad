(** The isolation mechanism: which hardware mechanism carries a mediated
    cross-domain call, and every step of a call where the three differ.

    SkyBridge's design point — VMFUNC EPTP switching — is one of three
    ways to give a client a controlled window into a server's domain:

    - [Vmfunc] — the paper's mechanism. User-mode EPTP-list switching
      through the trampoline page; the kernel stays off the IPC path.
      A revoked binding's slot degenerates to the client's own root.
    - [Mpk] — ERIM-style protection keys. A WRPKRU call gate switches
      the PKRU view; no address-space or TLB interaction at all, but all
      domains share one address space and security rests on the WRPKRU
      binary scan. Revocation has nothing architectural to tear down.
    - [Syscall] — "syscall as a privilege": every crossing traps into a
      filtered kernel slowpath whose per-domain allowed-entry-point
      table is checked at trap time. Revocation removes the grant.

    This is the only module that tells the three apart: {!Subkernel}
    (keys, buffers, watchdog, forced returns, typed errors, slowpath
    degradation) reaches the mechanism through the functions below. The
    process-wide default mirrors {!Sky_sim.Accel}'s kill switch:
    {!Subkernel.init} picks it up unless told otherwise, so every
    experiment runs unchanged under whichever backend the CLI selected. *)

type kind = Vmfunc | Mpk | Syscall

val all : kind list
(** Showdown order: the paper's mechanism first. *)

val name : kind -> string
(** CLI spelling: ["vmfunc"] / ["mpk"] / ["syscall"]. *)

val of_string : string -> kind option
val pp : Format.formatter -> kind -> unit
val get_default : unit -> kind
val set_default : kind -> unit

val with_default : kind -> (unit -> 'a) -> 'a
(** Run with [kind] as the process-wide default (restored afterwards). *)

(** {1 Facts the showdown reports} *)

val title : kind -> string

val switch_cycles : kind -> int
(** Architectural switch cost per crossing leg (two legs per call); for
    [Syscall] the whole kernel round trip. *)

val kernel_on_path : kind -> bool
val tlb_flush_on_switch : kind -> bool
val shared_address_space : kind -> bool

val trampoline_code : kind -> bytes
(** The call gate mapped at {!Sky_ukernel.Layout.trampoline_va}. *)

val tramp_flavor : kind -> Sky_analysis.Audit.flavor

(** {1 Mechanism state} *)

type t
(** One machine's mechanism: its kind plus the state only it keeps (the
    entry filter, the protection-key serial, the EPTP-slot budget). *)

val create :
  kind ->
  Sky_ukernel.Kernel.t ->
  Rootkernel.t ->
  trampoline_frame:int ->
  max_eptp:int ->
  t

val kind : t -> kind

val entry_filter : t -> Sky_ukernel.Entry_filter.t
(** The syscall backend's grant table (empty under the others). *)

val evictions : t -> int
(** EPTP-slot LRU evictions across every domain. *)

type domain
(** A registered process's mechanism state: its own EPT, its protection
    key and resting PKRU view, and its EPTP slots. *)

val domain : t -> Sky_ukernel.Proc.t -> domain
val own_ept : domain -> Sky_mmu.Ept.t
val domain_evictions : domain -> int

val resident_servers : domain -> int list
(** Server ids holding EPTP slots, in slot order (revoked slots omitted). *)

val eptp_list : domain -> int list
(** Slot 0 (the domain's own EPT root) followed by its slots. *)

val refresh : t -> domain -> Sky_ukernel.Proc.t -> unit
(** Push the domain's (changed) EPTP list to every core running the
    process, keeping each core's live index. *)

val schedule : t -> core:int -> domain -> unit
(** Context-switch hook: install the domain's EPTP list and, under MPK,
    its resting PKRU view. *)

val mpk_view : t -> domain -> (int * int) option
(** Under MPK, [(protection key, resting view)]; [None] otherwise. *)

type binding
(** What a client→server binding materializes as: a binding EPT, an
    elevated PKRU view, or a kernel grant. *)

val bind :
  t ->
  domain ->
  client:Sky_ukernel.Proc.t ->
  server:Sky_ukernel.Proc.t ->
  server_dom:domain ->
  server_id:int ->
  binding

val binding_ept : binding -> Sky_mmu.Ept.t option
(** The binding EPT, under VMFUNC. *)

val revoke : t -> domain -> binding -> client_pid:int -> server_id:int -> unit
(** Invalidate the binding architecturally (the slot degenerates in
    place; the grant is removed; nothing for MPK). *)

(** {1 The crossing} *)

exception Denied of string
(** The mechanism refused the crossing (the entry filter, or no EPTP
    slot free of in-flight frames); carries the reason phrase. *)

type token
(** The client state a crossing restores on the way back. *)

val resident :
  t ->
  core:int ->
  domain ->
  binding ->
  server_id:int ->
  now:int ->
  frames:token list ->
  int
(** The EPTP index a VMFUNC binding switches to, installing it (LRU
    eviction, §10) if needed; [0] under the other mechanisms. A slot that
    [core] runs in or one of [frames] returns to is never evicted: with
    every slot pinned this raises {!Denied}. *)

val cross_enter :
  t ->
  core:int ->
  Sky_mmu.Vcpu.t ->
  binding ->
  client:Sky_ukernel.Proc.t ->
  server:Sky_ukernel.Proc.t ->
  server_id:int ->
  idx:int ->
  token

val cross_leave : t -> core:int -> Sky_mmu.Vcpu.t -> token -> unit

val account : kind -> Sky_kernels.Breakdown.t -> unit
(** Charge one call's two switch legs to their Figure-7 category. *)

(** {1 Audit inputs} *)

val registration_violations :
  t -> Sky_analysis.Gadget.image list -> Sky_analysis.Report.violation list
(** Violations beyond the VMFUNC scan (MPK: any WRPKRU). *)

val wrpkru_images :
  t ->
  code:bytes ->
  tramp:bytes ->
  Sky_analysis.Gadget.image list ->
  Sky_analysis.Gadget.image list

val entry_filter_audit : t -> Sky_analysis.Audit.entry_filter option

val isoflow_mpk :
  t -> (Sky_ukernel.Proc.t * domain) list -> Sky_analysis.Isoflow.mpk option
