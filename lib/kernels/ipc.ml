open Sky_sim
open Sky_ukernel

type handler = core:int -> bytes -> bytes

type endpoint = {
  id : int;
  server : Proc.t;
  handler : handler;
  mutable cores : int list;
  stats : Breakdown.t;
  mutable calls : int;
  root_cap : Capability.t;
}

type long_ipc = Shared_copy | Temp_map

type t = {
  kernel : Kernel.t;
  mutable endpoints : endpoint list;
  mutable next_id : int;
  ipc_buffers : (int, int) Hashtbl.t;  (** pid -> buffer VA *)
  cap_registry : Capability.registry;
  enforce_caps : bool;
  long_ipc : long_ipc;
}

let register_msg_limit = 32
let ipc_buffer_size = 8192

let create ?(enforce_caps = false) ?(long_ipc = Shared_copy) kernel =
  {
    kernel;
    endpoints = [];
    next_id = 1;
    ipc_buffers = Hashtbl.create 8;
    cap_registry = Capability.create_registry ();
    enforce_caps;
    long_ipc;
  }

let caps t = t.cap_registry

let register t server ?(cores = []) handler =
  let id = t.next_id in
  let ep =
    {
      id;
      server;
      handler;
      cores;
      stats = Breakdown.create ();
      calls = 0;
      root_cap =
        Capability.mint t.cap_registry ~owner:server.Proc.pid ~target:id
          ~rights:Capability.all_rights ~badge:0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.endpoints <- ep :: t.endpoints;
  ep

let grant_send t ep client =
  Capability.derive t.cap_registry ep.root_cap ~new_owner:client.Proc.pid
    ~badge:client.Proc.pid Capability.send_only

let buffer_va t proc =
  match Hashtbl.find_opt t.ipc_buffers proc.Proc.pid with
  | Some va -> va
  | None ->
    let va = Kernel.map_anon t.kernel proc ipc_buffer_size in
    Hashtbl.replace t.ipc_buffers proc.Proc.pid va;
    va

let costs t = Costs_table.for_variant t.kernel.Kernel.config.Config.variant

let variant_slug t =
  match t.kernel.Kernel.config.Config.variant with
  | Config.Sel4 -> "sel4"
  | Config.Fiasco -> "fiasco"
  | Config.Zircon -> "zircon"
  | Config.Linux -> "linux"

(* Trace-span name of one IPC leg: the per-kernel phase the paper names
   in §6.3 (seL4 fast/slowpath, Fiasco fastpath-with-DRQ, Zircon's
   channel path, Linux's UDS path). *)
let leg_name t ~fast =
  match (t.kernel.Kernel.config.Config.variant, fast) with
  | Config.Sel4, true -> "sel4.fastpath"
  | Config.Sel4, false -> "sel4.slowpath"
  | Config.Fiasco, true -> "fiasco.fastpath.drq"
  | Config.Fiasco, false -> "fiasco.slowpath"
  | Config.Zircon, _ -> "zircon.channel"
  | Config.Linux, _ -> "linux.uds"

(* Measure the cycles a closure consumes on [core]. *)
let timed t ~core f =
  let c = Kernel.cpu t.kernel ~core in
  let before = Cpu.cycles c in
  let r = f () in
  (r, Cpu.cycles c - before)

(* Copy [data] from the current address space's IPC buffer area into the
   kernel's view and/or the peer buffer, charging real memory accesses.
   [vcpu] must have the owning process mapped. *)
let guest_write t ~core ~proc data =
  let va = buffer_va t proc in
  Kernel.context_switch t.kernel ~core proc;
  Sky_mmu.Translate.write_bytes
    (Kernel.vcpu t.kernel ~core)
    (Kernel.mem t.kernel) ~va data

let guest_read t ~core ~proc len =
  let va = buffer_va t proc in
  Kernel.context_switch t.kernel ~core proc;
  Sky_mmu.Translate.read_bytes
    (Kernel.vcpu t.kernel ~core)
    (Kernel.mem t.kernel) ~va ~len

(* Kernel-buffer bounce for Zircon's unoptimized double copy: the second
   pass streams through a kernel heap buffer. *)
let kernel_bounce t ~core len =
  let c = Kernel.cpu t.kernel ~core in
  let base = t.kernel.Kernel.kernel_data_pa + 65536 in
  let line = 64 in
  for l = 0 to ((max len 1) - 1) / line do
    (* write then read back *)
    Memsys.access c Memsys.Data (base + (l * line));
    Memsys.access c Memsys.Data (base + (l * line))
  done

(* Temporary mapping (L4's long-IPC optimization, SS8.1): instead of
   bouncing through a shared buffer, the kernel maps the sender's pages
   into the receiver's space for the duration of the transfer. Costs one
   PTE install + one INVLPG per page at teardown. *)
let temp_map_page_cost = 150

(* Transfer [data] from [src] process to [dst] process on [core]:
   register transfer when small, through memory otherwise. The default
   shared-buffer path performs the SS8.1 "two memory copies" (sender ->
   shared, shared -> receiver); [Temp_map] replaces the second copy with
   per-page mapping work. Returns the measured copy cycles. *)
let transfer t ~core ~src ~dst data =
  if Bytes.length data <= register_msg_limit then 0
  else begin
    let len = Bytes.length data in
    let _, cycles =
      timed t ~core (fun () ->
          (* Copy 1: the sender's data reaches kernel-visible memory. *)
          guest_write t ~core ~proc:src data;
          if (costs t).Costs_table.double_copy then kernel_bounce t ~core len;
          match t.long_ipc with
          | Shared_copy ->
            (* Copy 2: receiver-private copy out of the shared buffer. *)
            ignore (guest_read t ~core ~proc:dst len);
            guest_write t ~core ~proc:dst data
          | Temp_map ->
            (* Map sender pages into the receiver, single read pass,
               unmap + INVLPG. *)
            let pages = (len + 4095) / 4096 in
            Cpu.charge (Kernel.cpu t.kernel ~core) (pages * temp_map_page_cost);
            ignore (guest_read t ~core ~proc:dst len))
    in
    cycles
  end

(* One direction of an IPC on a single core: kernel entry, logic, message
   transfer, switch to [target], kernel exit. *)
let leg t ~core ~from_proc ~to_proc ~fast ~cross data (bd : Breakdown.t) =
  (* Fault site "ipc.leg": the kernel-mediated transfer dies mid-leg
     (fires only inside a mediated-call scope, e.g. the slowpath
     fallback of a revoked SkyBridge binding). *)
  if Sky_faults.Fault.is_enabled () then
    Sky_faults.Fault.inject ~core "ipc.leg";
  Sky_trace.Trace.span ~core ~cat:"other" (leg_name t ~fast) @@ fun () ->
  let k = t.kernel in
  let cost = costs t in
  let c = Kernel.cpu k ~core in
  let syscall_cycles = Costs.syscall + (2 * Costs.swapgs) + Costs.sysret in
  (* Entry *)
  let _, entry_cycles = timed t ~core (fun () -> Kernel.kernel_entry k ~core) in
  (* Software path: logic + optional scheduler. *)
  let logic = if fast then cost.Costs_table.fast_logic else cost.Costs_table.slow_logic in
  Cpu.charge c logic;
  bd.Breakdown.other <- bd.Breakdown.other + logic;
  Kernel.touch_kernel_text k ~core
    ~bytes:(if fast then cost.Costs_table.text_fast else cost.Costs_table.text_slow)
    ~off:4096;
  Kernel.touch_kernel_data k ~core ~bytes:cost.Costs_table.data_touch ~off:0;
  if not fast then begin
    Sky_trace.Trace.span ~core ~cat:"sched" "schedule" (fun () ->
        Cpu.charge c cost.Costs_table.sched);
    bd.Breakdown.sched <- bd.Breakdown.sched + cost.Costs_table.sched;
    Kernel.touch_kernel_text k ~core ~bytes:2048 ~off:65536
  end;
  if cross then begin
    Cpu.charge c cost.Costs_table.cross_extra;
    bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.cross_extra
  end;
  (* Message transfer (also performs the context switch to the target as
     a side effect of addressing both buffers). *)
  let copy_cycles =
    Sky_trace.Trace.span ~core ~cat:"copy" "ipc.copy" (fun () ->
        transfer t ~core ~src:from_proc ~dst:to_proc data)
  in
  bd.Breakdown.copy <- bd.Breakdown.copy + copy_cycles;
  (* Address-space switch to the target (no-op if transfer already
     switched). *)
  let _, ctx_cycles =
    timed t ~core (fun () -> Kernel.context_switch k ~core to_proc)
  in
  bd.Breakdown.ctx <- bd.Breakdown.ctx + ctx_cycles;
  (* Exit *)
  let _, exit_cycles = timed t ~core (fun () -> Kernel.kernel_exit k ~core) in
  ignore (entry_cycles, exit_cycles);
  bd.Breakdown.syscall <- bd.Breakdown.syscall + syscall_cycles;
  if t.kernel.Kernel.config.Config.kpti then
    (* kernel_entry/exit charged two extra CR3 writes; attribute them to
       the context-switch category. *)
    bd.Breakdown.ctx <- bd.Breakdown.ctx + (2 * Costs.cr3_write)

let run_handler ep ~core msg =
  (* Handler executes in the server's address space in user mode. *)
  ep.handler ~core msg

(* Local call: request leg, handler, reply leg, all on [core]. *)
let local_call t ~core ~client ep ~fast msg =
  let bd = ep.stats in
  leg t ~core ~from_proc:client ~to_proc:ep.server ~fast ~cross:false msg bd;
  let reply = run_handler ep ~core msg in
  leg t ~core ~from_proc:ep.server ~to_proc:client ~fast ~cross:false reply bd;
  reply

(* Cross-core call: the client traps, IPIs the server core, the server
   core picks the request up, runs the handler, and IPIs back. The
   client's elapsed time covers the whole round trip; the server core's
   clock also advances, which is what serializes concurrent callers of a
   single-threaded server. *)
let cross_call t ~core ~client ep ~server_core msg =
  Sky_trace.Trace.span ~core ~cat:"other" (variant_slug t ^ ".cross") @@ fun () ->
  let k = t.kernel in
  let bd = ep.stats in
  let cost = costs t in
  let ccpu = Kernel.cpu k ~core and scpu = Kernel.cpu k ~core:server_core in
  (* The server core's TLB-refill cycles belong to this call too; the
     client core's delta is taken by [call] around the whole dispatch. *)
  let swalk0 = Pmu.read (Cpu.pmu scpu) Pmu.Walk_cycles in
  (* Client side: trap, queue the message, kick the server core. *)
  Kernel.kernel_entry k ~core;
  Cpu.charge ccpu cost.Costs_table.slow_logic;
  bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.slow_logic;
  Kernel.touch_kernel_text k ~core ~bytes:cost.Costs_table.text_slow ~off:4096;
  Kernel.send_ipi k ~from_core:core ~to_core:server_core;
  bd.Breakdown.ipi <- bd.Breakdown.ipi + Costs.ipi;
  (* Server core: interrupt entry, schedule the server thread, copy the
     message in, run the handler. *)
  Kernel.kernel_entry k ~core:server_core;
  Sky_trace.Trace.span ~core:server_core ~cat:"sched" "schedule" (fun () ->
      Cpu.charge scpu (cost.Costs_table.sched + cost.Costs_table.cross_extra));
  bd.Breakdown.sched <- bd.Breakdown.sched + cost.Costs_table.sched;
  bd.Breakdown.other <- bd.Breakdown.other + cost.Costs_table.cross_extra;
  let copy1 =
    Sky_trace.Trace.span ~core:server_core ~cat:"copy" "ipc.copy" (fun () ->
        transfer t ~core:server_core ~src:client ~dst:ep.server msg)
  in
  let _, ctx1 =
    timed t ~core:server_core (fun () ->
        Kernel.context_switch k ~core:server_core ep.server)
  in
  Kernel.kernel_exit k ~core:server_core;
  let reply = run_handler ep ~core:server_core msg in
  (* Server replies: trap, copy out, IPI the client back. *)
  Kernel.kernel_entry k ~core:server_core;
  let copy2 =
    Sky_trace.Trace.span ~core:server_core ~cat:"copy" "ipc.copy" (fun () ->
        transfer t ~core:server_core ~src:ep.server ~dst:client reply)
  in
  Kernel.send_ipi k ~from_core:server_core ~to_core:core;
  bd.Breakdown.ipi <- bd.Breakdown.ipi + Costs.ipi;
  Kernel.kernel_exit k ~core:server_core;
  (* Client resumes once the reply IPI lands. *)
  Cpu.advance_to ccpu (Cpu.cycles scpu);
  let _, ctx2 =
    timed t ~core (fun () -> Kernel.context_switch k ~core client)
  in
  Kernel.kernel_exit k ~core;
  bd.Breakdown.copy <- bd.Breakdown.copy + copy1 + copy2;
  bd.Breakdown.ctx <- bd.Breakdown.ctx + ctx1 + ctx2;
  bd.Breakdown.syscall <-
    bd.Breakdown.syscall + (2 * (Costs.syscall + (2 * Costs.swapgs) + Costs.sysret));
  bd.Breakdown.walk <-
    bd.Breakdown.walk + (Pmu.read (Cpu.pmu scpu) Pmu.Walk_cycles - swalk0);
  reply

let call t ~core ~client ep msg =
  (* Capability enforcement (part of the fastpath's 98-cycle logic). *)
  if
    t.enforce_caps
    && not
         (Capability.check t.cap_registry ~pid:client.Proc.pid ~target:ep.id
            ~need:{ Capability.send = true; recv = false; grant = false })
  then
    raise
      (Capability.Cap_denied
         { pid = client.Proc.pid; target = ep.id; reason = "no send capability" });
  ep.calls <- ep.calls + 1;
  let cost = costs t in
  let local = ep.cores = [] || List.mem core ep.cores in
  (* The roundtrip span feeds the per-kernel latency histogram
     ("<kernel>.roundtrip") read by `skybench trace`. *)
  Sky_trace.Trace.span ~core ~cat:"ipc" (variant_slug t ^ ".roundtrip")
  @@ fun () ->
  (* Attribute the calling core's TLB-refill cycles during this call to
     the breakdown's walk column (cross-cutting; see {!Breakdown}). *)
  let cpmu = Cpu.pmu (Kernel.cpu t.kernel ~core) in
  let walk0 = Pmu.read cpmu Pmu.Walk_cycles in
  let finish reply =
    ep.stats.Breakdown.walk <-
      ep.stats.Breakdown.walk + (Pmu.read cpmu Pmu.Walk_cycles - walk0);
    reply
  in
  if local then begin
    let fast =
      cost.Costs_table.has_fastpath && Bytes.length msg <= register_msg_limit
    in
    finish (local_call t ~core ~client ep ~fast msg)
  end
  else begin
    let server_core =
      match ep.cores with
      | c :: _ -> c
      | [] -> assert false
    in
    finish (cross_call t ~core ~client ep ~server_core msg)
  end
