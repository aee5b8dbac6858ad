(* The full benchmark harness.

   Phase 1 regenerates every table and figure of the paper's motivation
   and evaluation sections (the numbers that matter — simulated cycles,
   printed as paper-vs-ours tables).

   Phase 2 registers one Bechamel [Test.make] per table/figure: each
   test wraps the hot operation that the corresponding experiment
   exercises, so `bench/main.exe` also reports how fast the *simulator
   itself* runs on the host. *)

open Bechamel
open Bechamel.Toolkit

(* ------------------------------------------------------------------ *)
(* Phase 1: reproduce the paper                                        *)
(* ------------------------------------------------------------------ *)

let reproduce () =
  print_endline "SkyBridge (EuroSys'19) reproduction - all tables and figures";
  print_endline "=============================================================";
  print_newline ();
  List.iter
    (fun e ->
      Sky_harness.Tbl.print (e.Sky_experiments.Registry.run ()).Sky_harness.Artifact.table;
      print_newline ())
    Sky_experiments.Registry.all

(* ------------------------------------------------------------------ *)
(* Phase 2: Bechamel micro-benchmarks (host-side speed of each
   experiment's hot path)                                              *)
(* ------------------------------------------------------------------ *)

(* Pre-built environments so Test.make measures the steady state. *)

let staged f =
  (* Build the environment once, return a closure Bechamel can hammer. *)
  Staged.stage (f ())

let ipc_env variant =
  let open Sky_ukernel in
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let kernel = Kernel.create ~config:(Config.default variant) machine in
  let ipc = Sky_kernels.Ipc.create kernel in
  let client = Kernel.spawn kernel ~name:"client" in
  let server = Kernel.spawn kernel ~name:"server" in
  let ep = Sky_kernels.Ipc.register ipc server (fun ~core:_ m -> m) in
  Kernel.context_switch kernel ~core:0 client;
  let msg = Bytes.create 8 in
  fun () -> ignore (Sky_kernels.Ipc.call ipc ~core:0 ~client ep msg)

let skybridge_env () =
  let open Sky_ukernel in
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  let sb = Sky_core.Subkernel.init kernel in
  let client = Kernel.spawn kernel ~name:"client" in
  let server = Kernel.spawn kernel ~name:"server" in
  let sid = Sky_core.Subkernel.register_server sb server (fun ~core:_ m -> m) in
  Sky_core.Subkernel.register_client_to_server sb client ~server_id:sid;
  Kernel.context_switch kernel ~core:0 client;
  let msg = Bytes.create 8 in
  fun () ->
    ignore (Sky_core.Subkernel.direct_server_call sb ~core:0 ~client ~server_id:sid msg)

let pipeline_env config =
  let open Sky_ukernel in
  let machine = Sky_sim.Machine.create ~cores:4 ~mem_mib:128 () in
  let kernel = Kernel.create machine in
  let p =
    match config with
    | Sky_kvstore.Pipeline.Skybridge ->
      let sb = Sky_core.Subkernel.init kernel in
      Sky_kvstore.Pipeline.create ~sb kernel config
    | _ -> Sky_kvstore.Pipeline.create kernel config
  in
  fun () -> ignore (Sky_kvstore.Pipeline.run p ~core:0 ~ops:2 ~len:64)

let db_env transport =
  let stack = Sky_experiments.Stack.build ~transport () in
  let db = stack.Sky_experiments.Stack.db in
  let key = ref 0 in
  fun () ->
    incr key;
    Sky_sqldb.Db.insert db ~core:0 ~key:!key ~value:(Bytes.make 100 'v')

let ycsb_env () =
  let stack =
    Sky_experiments.Stack.build ~transport:(Sky_experiments.Stack.Ipc { st = false }) ()
  in
  let wl =
    Sky_ycsb.Workload.create stack.Sky_experiments.Stack.kernel
      stack.Sky_experiments.Stack.db ~records:200 ~value_size:100
  in
  Sky_ycsb.Workload.load wl ~core:0;
  fun () ->
    ignore (Sky_ycsb.Workload.run wl ~kind:Sky_ycsb.Workload.A ~threads:1 ~ops_per_thread:4)

let corpus_env () = fun () -> ignore (Sky_rewriter.Corpus.run ~scale:4096 ())

let table2_env () =
  let open Sky_ukernel in
  let machine = Sky_sim.Machine.create ~cores:1 ~mem_mib:32 () in
  let kernel = Kernel.create machine in
  fun () ->
    Kernel.kernel_entry kernel ~core:0;
    Kernel.kernel_exit kernel ~core:0

let table1_env () =
  let p = pipeline_env Sky_kvstore.Pipeline.Ipc_local in
  fun () -> p ()

let tests =
  [
    Test.make ~name:"table1:kv-op-ipc" (staged table1_env);
    Test.make ~name:"table2:noop-syscall" (staged table2_env);
    Test.make ~name:"fig2:kv-op-baseline"
      (staged (fun () -> pipeline_env Sky_kvstore.Pipeline.Baseline));
    Test.make ~name:"fig7:ipc-roundtrip-sel4"
      (staged (fun () -> ipc_env Sky_ukernel.Config.Sel4));
    Test.make ~name:"fig7:ipc-roundtrip-zircon"
      (staged (fun () -> ipc_env Sky_ukernel.Config.Zircon));
    Test.make ~name:"fig7+fig8:skybridge-direct-call" (staged skybridge_env);
    Test.make ~name:"table4:db-insert-mt"
      (staged (fun () -> db_env (Sky_experiments.Stack.Ipc { st = false })));
    Test.make ~name:"table4:db-insert-skybridge"
      (staged (fun () -> db_env Sky_experiments.Stack.Skybridge));
    Test.make ~name:"fig9-11:ycsb-batch" (staged ycsb_env);
    Test.make ~name:"table5:rootkernel-noop"
      (staged (fun () ->
           let open Sky_ukernel in
           let machine = Sky_sim.Machine.create ~cores:1 ~mem_mib:64 () in
           let kernel = Kernel.create machine in
           let sb = Sky_core.Subkernel.init kernel in
           let root = Sky_core.Subkernel.rootkernel sb in
           fun () -> assert (Sky_core.Rootkernel.total_vm_exits root = 0)));
    Test.make ~name:"table6:corpus-scan" (staged corpus_env);
    Test.make ~name:"ablation:vmfunc-novpid"
      (staged (fun () ->
           let open Sky_ukernel in
           let machine = Sky_sim.Machine.create ~cores:1 ~mem_mib:64 () in
           let kernel = Kernel.create machine in
           let sb = Sky_core.Subkernel.init ~vpid:false kernel in
           ignore sb;
           let vcpu = Kernel.vcpu kernel ~core:0 in
           fun () -> Sky_mmu.Vmfunc.execute vcpu ~func:0 ~index:0));
  ]

let run_bechamel () =
  print_endline "Bechamel: host-side speed of each experiment's hot path";
  print_endline "--------------------------------------------------------";
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.2) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Hashtbl.to_seq_values
        |> List.of_seq
        |> List.map (Analyze.one ols Instance.monotonic_clock)
      in
      List.iter
        (fun result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            let name = Test.Elt.name (List.hd (Test.elements test)) in
            Printf.printf "%-34s %12.0f ns/run\n%!" name est;
            collected := (name, est) :: !collected
          | _ -> ())
        results)
    tests;
  (* Archive the host-side numbers alongside the simulated-cycle BENCH
     artifacts (these are host-dependent, so no determinism gate). *)
  let open Sky_trace.Json in
  let j =
    to_string
      (Obj
         [
           ("bench", String "bechamel");
           ( "results",
             List
               (List.rev_map
                  (fun (name, est) ->
                    Obj [ ("name", String name); ("ns_per_run", Float est) ])
                  !collected) );
         ])
  in
  let path = Sky_harness.Artifact.write ~name:"bechamel" j in
  Printf.printf "wrote %s\n%!" path

let () =
  reproduce ();
  run_bechamel ()
