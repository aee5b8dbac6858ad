(* The quantum-scheduler determinism sweep.

   Property: for a random cluster configuration — shard count, workers
   per shard, quantum size, workload seed, fault-storm seed, isolation
   backend — the parallel engine (OCaml domains, barrier at quantum
   boundaries) produces a byte-identical Cluster_web digest to the
   sequential engine, and chunking itself is invisible (two different
   quanta agree once the boundary-dependent gossip log is excluded).

   The digest covers per-core cycle counters, the full PMU vector,
   cache/TLB footprints, serving counters, latency percentiles, fired
   faults and the trace-stream hash, so "byte-identical" here is the
   machine-state + PMU + trace equivalence the issue demands. *)

open Sky_net
module Fault = Sky_faults.Fault
module Backend = Sky_core.Backend

type config = {
  g_shards : int;
  g_workers : int;
  g_quantum : int;
  g_alt_quantum : int;
  g_seed : int;
  g_storm_seed : int;
  g_backend : Backend.kind;
}

let show_config g =
  Printf.sprintf "{shards=%d workers=%d quantum=%d alt=%d seed=%d storm=%d %s}"
    g.g_shards g.g_workers g.g_quantum g.g_alt_quantum g.g_seed g.g_storm_seed
    (Backend.name g.g_backend)

let config_gen =
  QCheck.Gen.(
    let* g_shards = int_range 1 3 in
    let* g_workers = int_range 1 3 in
    let* g_quantum = int_range 2_000 60_000 in
    let* g_alt_quantum = int_range 2_000 60_000 in
    let* g_seed = int_range 0 10_000 in
    let* g_storm_seed = int_range 0 10_000 in
    let+ g_backend = oneofl Backend.all in
    { g_shards; g_workers; g_quantum; g_alt_quantum; g_seed; g_storm_seed;
      g_backend })

let config_arb = QCheck.make ~print:show_config config_gen

(* A random-but-deterministic per-shard storm: the schedule is a pure
   function of (storm seed, shard), so both clusters in a comparison arm
   identically. Roughly half the shards get faults. *)
let storm ~storm_seed ~shard =
  let h = Hashtbl.hash (storm_seed, shard) in
  if h land 1 = 0 then begin
    Fault.reset ~seed:(storm_seed + shard) ();
    Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Crash
      (Fault.At_hit (3 + (h mod 17)));
    if h land 2 = 0 then
      Fault.arm ~budget:1 ~site:"server.httpd" ~kind:Fault.Hang
        (Fault.At_hit (5 + (h mod 11)))
  end

let build g ~quantum =
  Cluster_web.build ~seed:g.g_seed ~quantum ~conns:6 ~requests_per_conn:2
    ~prepare:(fun ~shard -> storm ~storm_seed:g.g_storm_seed ~shard)
    ~shards:g.g_shards ~workers:g.g_workers ~transport:Web.Skybridge ()

let seq_vs_par =
  QCheck.Test.make
    ~name:
      "random cluster config: Seq and Par digests byte-identical (state, \
       PMU, trace, faults)"
    ~count:12 config_arb
    (fun g ->
      Backend.with_default g.g_backend @@ fun () ->
      let seq = build g ~quantum:g.g_quantum in
      ignore (Cluster_web.run seq Sky_sim.Quantum.Seq);
      let par = build g ~quantum:g.g_quantum in
      ignore
        (Cluster_web.run par
           (Sky_sim.Quantum.Par { jobs = 1 + (g.g_seed mod 3) }));
      Cluster_web.digest seq = Cluster_web.digest par)

let quantum_invariance =
  QCheck.Test.make
    ~name:
      "random cluster config: two quantum sizes agree up to the gossip log"
    ~count:8 config_arb
    (fun g ->
      Backend.with_default g.g_backend @@ fun () ->
      let a = build g ~quantum:g.g_quantum in
      ignore (Cluster_web.run a Sky_sim.Quantum.Seq);
      let b = build g ~quantum:g.g_alt_quantum in
      ignore (Cluster_web.run b (Sky_sim.Quantum.Par { jobs = 2 }));
      Cluster_web.digest ~gossip:false a = Cluster_web.digest ~gossip:false b)

(* Deterministic (non-random) anchor: the scale configuration used by
   `skybench parallel`'s speedup phase must digest-match engines too —
   16 simulated cores across 4 shards. *)
let scale_anchor () =
  let mk () =
    Cluster_web.build ~seed:7 ~quantum:50_000 ~conns:8 ~requests_per_conn:2
      ~shards:4 ~workers:4 ~transport:Web.Skybridge ()
  in
  let seq = mk () in
  ignore (Cluster_web.run seq Sky_sim.Quantum.Seq);
  let par = mk () in
  ignore (Cluster_web.run par (Sky_sim.Quantum.Par { jobs = 4 }));
  Alcotest.(check bool)
    "4x4 scale cluster: Seq = Par4 digest" true
    (Cluster_web.digest seq = Cluster_web.digest par)

(* The --jobs replica harness must both pass on identical replicas and
   actually detect divergence. *)
let replica_harness () =
  let v =
    Sky_experiments.Par_harness.replicate ~jobs:3 ~render:string_of_int
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "identical replicas pass" 42 v;
  let diverged =
    let n = Atomic.make 0 in
    match
      Sky_experiments.Par_harness.replicate ~jobs:2 ~render:string_of_int
        (fun () -> Atomic.fetch_and_add n 1)
    with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "divergent replicas detected" true diverged

(* The speedup verdict, rendered exactly as BENCH_parallel.json carries
   it: a waiver without a second domain or a host clock, else the bar
   0.65x per domain (up to 2x), met at equality. *)
let speedup_verdict () =
  let module X = Sky_experiments.Exp_parallel in
  let module Gate = Sky_harness.Gate in
  let check name want ~domains ~jobs ~seq_seconds ~par_seconds =
    let g = X.gate_of ~domains ~jobs ~seq_seconds ~par_seconds in
    Alcotest.(check string) name want (X.verdict g);
    Alcotest.(check bool) (name ^ ": fails only below the bar")
      (String.starts_with ~prefix:"fail" want)
      (Gate.failed [ g ])
  in
  check "one domain" "waived:single-host-domain" ~domains:1 ~jobs:1
    ~seq_seconds:1.0 ~par_seconds:1.0;
  check "no host clock" "waived:no-host-clock" ~domains:2 ~jobs:2
    ~seq_seconds:0.0 ~par_seconds:0.0;
  check "below the bar" "fail:<1.30x" ~domains:2 ~jobs:2 ~seq_seconds:1.29
    ~par_seconds:1.0;
  check "at the bar" "pass:>=1.30x" ~domains:2 ~jobs:2 ~seq_seconds:1.3
    ~par_seconds:1.0;
  check "capped at 2x" "pass:>=2.00x" ~domains:8 ~jobs:4 ~seq_seconds:2.0
    ~par_seconds:1.0;
  check "jobs below domains" "fail:<1.95x" ~domains:4 ~jobs:3 ~seq_seconds:1.9
    ~par_seconds:1.0

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ("equivalence", qc [ seq_vs_par; quantum_invariance ]);
      ( "anchors",
        [
          t "scale cluster digest" scale_anchor;
          t "replica harness" replica_harness;
          t "speedup verdict" speedup_verdict;
        ] );
    ]
