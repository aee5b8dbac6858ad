(** Simulated-layer counters, read from outside through the counters the
    simulator already exposes ({!Sky_sim.Cpu} caches and TLBs, the
    {!Sky_sim.Pmu}, {!Sky_core.Subkernel.stats}) and from the cycle
    tracer's category table. A snapshot is taken at each end of the
    deterministic sample; metrics are differences of two snapshots. *)

module Cpu = Sky_sim.Cpu
module Cache = Sky_sim.Cache
module Tlb = Sky_sim.Tlb
module Pmu = Sky_sim.Pmu
module B = Sky_kernels.Breakdown

let pmu_events =
  Pmu.[ Psc_hit; Psc_miss; Ept_walk_cache_hit; Ept_walk_cache_miss; Hot_line_hit;
        Walk_cycles; Vm_exit ]

type snap = {
  l1i : int * int;  (** hits, misses *)
  l1d : int * int;
  l2 : int * int;
  l3 : int * int;
  itlb : int * int;
  dtlb : int * int;
  pmu : int list;  (** [pmu_events], summed over cores *)
  sk : B.t;  (** Subkernel breakdown (all zero without a Subkernel) *)
}

let cache c = (Cache.hits c, Cache.misses c)
let tlb t = (Tlb.hits t, Tlb.misses t)
let add2 (a, b) (c, d) = (a + c, b + d)
let sub2 (a, b) (c, d) = (a - c, b - d)

let snap ?sb machine =
  let n = Sky_sim.Machine.n_cores machine in
  let sum f = List.fold_left (fun acc i -> add2 acc (f (Sky_sim.Machine.core machine i))) (0, 0) (List.init n Fun.id) in
  let pmu =
    List.map
      (fun ev ->
        List.fold_left
          (fun acc i -> acc + Pmu.read (Cpu.pmu (Sky_sim.Machine.core machine i)) ev)
          0 (List.init n Fun.id))
      pmu_events
  in
  let sk = B.create () in
  Option.iter (fun sb -> B.add sk (Sky_core.Subkernel.stats sb)) sb;
  {
    l1i = sum (fun c -> cache (Cpu.l1i c));
    l1d = sum (fun c -> cache (Cpu.l1d c));
    l2 = sum (fun c -> cache (Cpu.l2 c));
    (* The L3 is shared: count it once. *)
    l3 = cache (Cpu.l3 (Sky_sim.Machine.core machine 0));
    itlb = sum (fun c -> tlb (Cpu.itlb c));
    dtlb = sum (fun c -> tlb (Cpu.dtlb c));
    pmu;
    sk;
  }

let zero =
  {
    l1i = (0, 0); l1d = (0, 0); l2 = (0, 0); l3 = (0, 0); itlb = (0, 0);
    dtlb = (0, 0); pmu = List.map (fun _ -> 0) pmu_events; sk = B.create ();
  }

let diff a b =
  let sk = B.create () in
  B.add sk a.sk;
  let s = b.sk in
  sk.B.vmfunc <- sk.B.vmfunc - s.B.vmfunc;
  sk.B.syscall <- sk.B.syscall - s.B.syscall;
  sk.B.ctx <- sk.B.ctx - s.B.ctx;
  sk.B.ipi <- sk.B.ipi - s.B.ipi;
  sk.B.copy <- sk.B.copy - s.B.copy;
  sk.B.sched <- sk.B.sched - s.B.sched;
  sk.B.other <- sk.B.other - s.B.other;
  sk.B.walk <- sk.B.walk - s.B.walk;
  {
    l1i = sub2 a.l1i b.l1i; l1d = sub2 a.l1d b.l1d; l2 = sub2 a.l2 b.l2;
    l3 = sub2 a.l3 b.l3; itlb = sub2 a.itlb b.itlb; dtlb = sub2 a.dtlb b.dtlb;
    pmu = List.map2 ( - ) a.pmu b.pmu; sk;
  }

(** Sum of two deltas (a sample that spans several machines). *)
let plus a b =
  let sk = B.create () in
  B.add sk a.sk;
  B.add sk b.sk;
  {
    l1i = add2 a.l1i b.l1i; l1d = add2 a.l1d b.l1d; l2 = add2 a.l2 b.l2;
    l3 = add2 a.l3 b.l3; itlb = add2 a.itlb b.itlb; dtlb = add2 a.dtlb b.dtlb;
    pmu = List.map2 ( + ) a.pmu b.pmu; sk;
  }

let pmu s ev =
  let rec go evs vs =
    match (evs, vs) with
    | e :: _, v :: _ when e = ev -> v
    | _ :: evs, _ :: vs -> go evs vs
    | _ -> 0
  in
  go pmu_events s.pmu

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let miss_ratio (h, m) = ratio m (h + m)
let hit_ratio (h, m) = ratio h (h + m)
let accesses s = fst s.l1i + snd s.l1i + fst s.l1d + snd s.l1d

(** Per-layer metrics every workload derives from a sample delta. *)
let metrics ~ops s =
  let per x = ratio x ops in
  [
    ("sim.accesses_per_op", per (accesses s));
    ("sim.l1i.miss_ratio", miss_ratio s.l1i);
    ("sim.l1d.miss_ratio", miss_ratio s.l1d);
    ("sim.l2.miss_ratio", miss_ratio s.l2);
    ("sim.l3.miss_ratio", miss_ratio s.l3);
    ("sim.itlb.miss_ratio", miss_ratio s.itlb);
    ("sim.dtlb.miss_ratio", miss_ratio s.dtlb);
    ("sim.psc.hit_ratio", hit_ratio (pmu s Pmu.Psc_hit, pmu s Pmu.Psc_miss));
    ( "sim.ept_wc.hit_ratio",
      hit_ratio (pmu s Pmu.Ept_walk_cache_hit, pmu s Pmu.Ept_walk_cache_miss) );
    ("sim.hotline.hits", float_of_int (pmu s Pmu.Hot_line_hit));
    ("mmu.walk_cycles_per_op", per (pmu s Pmu.Walk_cycles));
    ("core.switch_cycles_per_op", per s.sk.B.vmfunc);
    ("core.copy_cycles_per_op", per s.sk.B.copy);
    ("core.vm_exits_per_op", per (pmu s Pmu.Vm_exit));
  ]

(** The cycle tracer's category table: the share of charged cycles with
    no span open, and the kernel categories per op. *)
let trace_metrics ~ops cats =
  let get c = try List.assoc c cats with Not_found -> 0 in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 cats in
  [
    ("trace.untracked_pct", 100.0 *. ratio (get "untracked") total);
    ("kernels.syscall_cycles_per_op", ratio (get "syscall") ops);
    ("kernels.ctx_cycles_per_op", ratio (get "ctx") ops);
    ("kernels.ipi_cycles_per_op", ratio (get "ipi") ops);
    ("kernels.sched_cycles_per_op", ratio (get "sched") ops);
  ]
