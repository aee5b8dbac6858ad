(* A tour of the microkernel substrate the SkyBridge reproduction is
   built on: capabilities with revocation, asynchronous notifications,
   the two §8.1 scheduling policies, and the temporary-mapping long-IPC
   option — the pieces a downstream user composes their own systems from.

   Run with:  dune exec examples/microkernel_primitives.exe *)

open Sky_ukernel
open Sky_kernels

let () =
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let kernel = Kernel.create machine in

  (* --- capabilities ------------------------------------------------ *)
  print_endline "capabilities (seL4-style, enforced on the IPC path)";
  let ipc = Ipc.create ~enforce_caps:true kernel in
  let server = Kernel.spawn kernel ~name:"files" in
  let alice = Kernel.spawn kernel ~name:"alice" in
  let mallory = Kernel.spawn kernel ~name:"mallory" in
  let ep = Ipc.register ipc server (fun ~core:_ m -> m) in
  let alice_cap = Ipc.grant_send ipc ep alice in
  Kernel.context_switch kernel ~core:0 alice;
  ignore (Ipc.call ipc ~core:0 ~client:alice ep (Bytes.of_string "ok"));
  Printf.printf "  alice (badge %d) called the server with her capability\n"
    (Capability.badge alice_cap);
  (try ignore (Ipc.call ipc ~core:0 ~client:mallory ep Bytes.empty)
   with Capability.Cap_denied _ ->
     print_endline "  mallory without a capability: denied");
  Capability.revoke (Ipc.caps ipc) ep.Ipc.root_cap;
  (try ignore (Ipc.call ipc ~core:0 ~client:alice ep Bytes.empty)
   with Capability.Cap_denied _ ->
     print_endline "  after revoking the root's children, alice is cut off too\n");

  (* --- notifications ----------------------------------------------- *)
  print_endline "asynchronous notifications (badged, coalescing)";
  let irq = Notification.create kernel in
  Notification.signal irq ~core:1 ~badge:0b001;
  Notification.signal irq ~core:1 ~badge:0b100;
  Printf.printf "  two signals from core 1 coalesce: wait() = %#o\n"
    (Notification.wait irq ~core:0);
  (try ignore (Notification.wait irq ~core:0)
   with Notification.Would_block ->
     print_endline "  further wait() would block (word consumed)\n");

  (* --- scheduling policies (SS8.1) ---------------------------------- *)
  print_endline "scheduling: lazy vs Benno under interrupt churn";
  let cpu = Sky_sim.Machine.core machine 2 in
  List.iter
    (fun policy ->
      let s = Scheduler.create policy in
      let threads = List.init 16 (fun i -> Scheduler.spawn_thread s ~tid:i) in
      List.iteri (fun i th -> if i < 15 then Scheduler.block s cpu th) threads;
      let before = Scheduler.examined s in
      ignore (Scheduler.pick s cpu);
      Printf.printf "  %-16s pick examined %2d queue entries\n"
        (Scheduler.policy_name policy)
        (Scheduler.examined s - before))
    [ Scheduler.Lazy_scheduling; Scheduler.Benno ];
  print_newline ();

  (* --- long IPC transports ------------------------------------------ *)
  print_endline "long IPC: shared-buffer double copy vs temporary mapping (8 KiB)";
  List.iter
    (fun (name, long_ipc) ->
      let k = Kernel.create (Sky_sim.Machine.create ~cores:2 ~mem_mib:64 ()) in
      let ipc = Ipc.create ~long_ipc k in
      let c = Kernel.spawn k ~name:"c" and s = Kernel.spawn k ~name:"s" in
      let ep = Ipc.register ipc s (fun ~core:_ _ -> Bytes.create 8) in
      Kernel.context_switch k ~core:0 c;
      let msg = Bytes.create 8192 in
      for _ = 1 to 20 do
        ignore (Ipc.call ipc ~core:0 ~client:c ep msg)
      done;
      let cc = Kernel.cpu k ~core:0 in
      let t0 = Sky_sim.Cpu.cycles cc in
      for _ = 1 to 100 do
        ignore (Ipc.call ipc ~core:0 ~client:c ep msg)
      done;
      Printf.printf "  %-12s %5d cycles/roundtrip\n" name
        ((Sky_sim.Cpu.cycles cc - t0) / 100))
    [ ("Shared_copy", Ipc.Shared_copy); ("Temp_map", Ipc.Temp_map) ]
