(* Unit and property tests for the physical-memory and machine-simulator
   substrates (lib/mem, lib/sim). *)

open Sky_mem
open Sky_sim

let mem () = Phys_mem.create ~frames:64

(* ------------------------------------------------------------------ *)
(* Phys_mem                                                            *)
(* ------------------------------------------------------------------ *)

let test_u8_roundtrip () =
  let m = mem () in
  Phys_mem.write_u8 m 0 0xab;
  Phys_mem.write_u8 m 4097 0xcd;
  Alcotest.(check int) "byte 0" 0xab (Phys_mem.read_u8 m 0);
  Alcotest.(check int) "byte 4097" 0xcd (Phys_mem.read_u8 m 4097);
  Alcotest.(check int) "untouched is zero" 0 (Phys_mem.read_u8 m 100)

let test_u64_roundtrip () =
  let m = mem () in
  Phys_mem.write_u64 m 8 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Phys_mem.read_u64 m 8);
  (* little-endian byte order *)
  Alcotest.(check int) "low byte" 0x88 (Phys_mem.read_u8 m 8);
  Alcotest.(check int) "high byte" 0x11 (Phys_mem.read_u8 m 15)

let test_u64_alignment () =
  let m = mem () in
  Alcotest.check_raises "unaligned read"
    (Invalid_argument "Phys_mem.read_u64: unaligned 0x9") (fun () ->
      ignore (Phys_mem.read_u64 m 9))

let test_out_of_range () =
  let m = mem () in
  let size = Phys_mem.size_bytes m in
  (try
     ignore (Phys_mem.read_u8 m size);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    Phys_mem.write_u8 m (-1) 0;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_bytes_span_frames () =
  let m = mem () in
  let data = Bytes.init 9000 (fun i -> Char.chr (i land 0xff)) in
  Phys_mem.write_bytes m 100 data;
  let back = Phys_mem.read_bytes m 100 9000 in
  Alcotest.(check bool) "spanning blit roundtrips" true (Bytes.equal data back)

let test_lazy_frames () =
  let m = Phys_mem.create ~frames:1024 in
  Alcotest.(check int) "no frames touched" 0 (Phys_mem.touched_frames m);
  Phys_mem.write_u8 m 0 1;
  Phys_mem.write_u8 m (5 * 4096) 1;
  Alcotest.(check int) "two frames touched" 2 (Phys_mem.touched_frames m)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"phys_mem blit roundtrips at random offsets"
    ~count:100
    QCheck.(pair (int_bound 20000) (string_of_size (Gen.int_range 1 5000)))
    (fun (off, s) ->
      let m = mem () in
      Phys_mem.write_bytes m off (Bytes.of_string s);
      Bytes.to_string (Phys_mem.read_bytes m off (String.length s)) = s)

(* ------------------------------------------------------------------ *)
(* Frame_alloc                                                         *)
(* ------------------------------------------------------------------ *)

let test_alloc_distinct () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f1 = Frame_alloc.alloc_frame a in
  let f2 = Frame_alloc.alloc_frame a in
  Alcotest.(check bool) "distinct frames" true (f1 <> f2);
  Alcotest.(check int) "aligned" 0 (f1 land 4095);
  Alcotest.(check int) "in use" 2 (Frame_alloc.in_use a)

let test_alloc_zeroed () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f = Frame_alloc.alloc_frame a in
  Phys_mem.write_u8 m f 7;
  Frame_alloc.free_frame a f;
  let f' = Frame_alloc.alloc_frame a in
  Alcotest.(check int) "same frame reused" f f';
  Alcotest.(check int) "zeroed on alloc" 0 (Phys_mem.read_u8 m f')

let test_alloc_contiguous () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let base = Frame_alloc.alloc_frames a ~count:8 in
  Alcotest.(check int) "in use" 8 (Frame_alloc.in_use a);
  Frame_alloc.free_frames a ~pa:base ~count:8;
  Alcotest.(check int) "all freed" 0 (Frame_alloc.in_use a)

let test_reserve () =
  let m = mem () in
  let a = Frame_alloc.create m in
  Frame_alloc.reserve a ~first_frame:0 ~count:10;
  let f = Frame_alloc.alloc_frame a in
  Alcotest.(check bool) "skips reserved" true (Phys_mem.frame_of_addr f >= 10);
  Alcotest.check_raises "cannot free reserved"
    (Invalid_argument "Frame_alloc: freeing reserved frame 0") (fun () ->
      Frame_alloc.free_frame a 0)

let test_exhaustion () =
  let m = mem () in
  let a = Frame_alloc.create m in
  for _ = 1 to 64 do
    ignore (Frame_alloc.alloc_frame a)
  done;
  try
    ignore (Frame_alloc.alloc_frame a);
    Alcotest.fail "expected Out_of_memory"
  with Frame_alloc.Out_of_memory -> ()

let test_double_free () =
  let m = mem () in
  let a = Frame_alloc.create m in
  let f = Frame_alloc.alloc_frame a in
  Frame_alloc.free_frame a f;
  try
    Frame_alloc.free_frame a f;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocated runs never overlap" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range 1 5))
    (fun counts ->
      let m = Phys_mem.create ~frames:256 in
      let a = Frame_alloc.create m in
      let allocs =
        List.filter_map
          (fun c ->
            try Some (Frame_alloc.alloc_frames a ~count:c, c)
            with Frame_alloc.Out_of_memory -> None)
          counts
      in
      let covered = Hashtbl.create 64 in
      List.for_all
        (fun (base, c) ->
          let ok = ref true in
          for i = 0 to c - 1 do
            let f = Phys_mem.frame_of_addr base + i in
            if Hashtbl.mem covered f then ok := false;
            Hashtbl.replace covered f ()
          done;
          !ok)
        allocs)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let small_cache () =
  Cache.create ~size_bytes:(4 * 64 * 2) ~ways:2 ~line_bytes:64
(* 4 sets, 2 ways *)

let test_cache_hit_after_access () =
  let c = small_cache () in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x1000);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x1030)

let test_cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines in the same set (stride = sets * line = 256). *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  ignore (Cache.access c 0);
  (* 0 is MRU *)
  ignore (Cache.access c 512);
  (* evicts 256 *)
  Alcotest.(check bool) "0 still present" true (Cache.probe c 0);
  Alcotest.(check bool) "256 evicted" false (Cache.probe c 256);
  Alcotest.(check bool) "512 present" true (Cache.probe c 512)

let test_cache_stats () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache.hits c + Cache.misses c);
  Alcotest.(check bool) "contents survive reset" true (Cache.probe c 0)

let test_cache_geometry_validation () =
  try
    ignore (Cache.create ~size_bytes:100 ~ways:3 ~line_bytes:64);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let prop_cache_capacity =
  QCheck.Test.make ~name:"working set <= capacity always hits after warmup"
    ~count:30
    QCheck.(int_range 1 8)
    (fun lines ->
      let c = small_cache () in
      (* [lines] distinct lines all mapping to different sets where
         possible; warm up twice, then every access hits. *)
      let addrs = List.init lines (fun i -> i * 64) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      List.for_all (fun a -> Cache.access c a) addrs)

(* The run call is the same [n] accesses: for a random geometry and a
   random run (cold or after random warm-up), the hit/miss sequence, the
   missed lines in order, both counters, and the LRU state all match.
   LRU state is compared through a follow-up access sequence, whose
   evictions expose the stamps. The next level fed by [access_missed]
   is checked the same way. *)
let prop_cache_run_exact =
  let gen =
    QCheck.Gen.(
      let* ways = int_range 1 16 in
      let* sets_log = int_range 0 6 in
      let* warm = oneof [ return []; list_size (int_range 0 200) (int_bound 255) ] in
      let* start = int_bound 255 in
      let* n = int_range 1 Cache.run_max in
      let* follow = list_size (int_range 0 100) (int_bound 255) in
      return (ways, sets_log, warm, start, n, follow))
  in
  let print (ways, sets_log, warm, start, n, follow) =
    Printf.sprintf "ways=%d sets=%d warm=%d start=%d n=%d follow=%d" ways
      (1 lsl sets_log) (List.length warm) start n (List.length follow)
  in
  QCheck.Test.make ~name:"Cache run call = n accesses" ~count:300
    (QCheck.make ~print gen)
    (fun (ways, sets_log, warm, start, n, follow) ->
      let mk () =
        Cache.create ~size_bytes:((1 lsl sets_log) * ways * 64) ~ways
          ~line_bytes:64
      in
      let ref1 = mk () and ref2 = mk () and run1 = mk () and run2 = mk () in
      List.iter
        (fun l ->
          List.iter (fun c -> ignore (Cache.access c (l * 64))) [ ref1; ref2; run1; run2 ])
        warm;
      (* Reference: n single accesses; misses feed the second level. *)
      let ref_hits = List.init n (fun i -> Cache.access ref1 ((start + i) * 64)) in
      let ref_missed =
        List.concat (List.mapi (fun i h -> if h then [] else [ (start + i) * 64 ]) ref_hits)
      in
      let ref_missed2 = List.filter (fun pa -> not (Cache.access ref2 pa)) ref_missed in
      (* Run path. *)
      let m = Cache.access_run run1 ~pa:(start * 64) ~n in
      let run_missed = List.init m (Cache.missed run1) in
      let run_hits = List.init n (fun i -> not (List.mem ((start + i) * 64) run_missed)) in
      let m2 = Cache.access_missed run2 ~src:run1 ~n:m in
      let run_missed2 = List.init m2 (Cache.missed run2) in
      let counters c = (Cache.hits c, Cache.misses c) in
      let follow_up c = List.map (fun l -> Cache.access c (l * 64)) follow in
      run_hits = ref_hits && run_missed = ref_missed && run_missed2 = ref_missed2
      && counters run1 = counters ref1
      && counters run2 = counters ref2
      && follow_up run1 = follow_up ref1
      && follow_up run2 = follow_up ref2)

let test_cache_run_bounds () =
  let c = small_cache () in
  Alcotest.check_raises "longer than run_max"
    (Invalid_argument "Cache.access_run: n > run_max") (fun () ->
      ignore (Cache.access_run c ~pa:0 ~n:(Cache.run_max + 1)));
  Alcotest.(check int) "rejected run touched nothing" 0 (Cache.hits c + Cache.misses c)

(* ------------------------------------------------------------------ *)
(* Tlb                                                                 *)
(* ------------------------------------------------------------------ *)

let tlb () = Tlb.create ~entries:8 ~ways:2

(* Insert a user-writable entry; look one up as [Some ppn] or [None]. *)
let insert t ~asid ~vpn ppn = Tlb.insert t ~asid ~vpn ~ppn ~writable:true ~user:true

let lookup t ~asid ~vpn =
  let i = Tlb.lookup t ~asid ~vpn in
  if i < 0 then None else Some (Tlb.ppn t i)

let test_tlb_insert_lookup () =
  let t = tlb () in
  Alcotest.(check bool) "miss first" true (lookup t ~asid:1 ~vpn:5 = None);
  insert t ~asid:1 ~vpn:5 42;
  (match lookup t ~asid:1 ~vpn:5 with
  | Some ppn -> Alcotest.(check int) "ppn" 42 ppn
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "other asid misses" true (lookup t ~asid:2 ~vpn:5 = None)

let test_tlb_flush_asid () =
  let t = tlb () in
  insert t ~asid:1 ~vpn:1 1;
  insert t ~asid:2 ~vpn:1 2;
  Tlb.flush_asid t ~asid:1;
  Alcotest.(check bool) "asid1 flushed" true (lookup t ~asid:1 ~vpn:1 = None);
  Alcotest.(check bool) "asid2 kept" true (lookup t ~asid:2 ~vpn:1 <> None)

let test_tlb_flush_all () =
  let t = tlb () in
  insert t ~asid:1 ~vpn:1 1;
  Tlb.flush_all t;
  Alcotest.(check bool) "flushed" true (lookup t ~asid:1 ~vpn:1 = None)

let test_tlb_eviction () =
  let t = tlb () in
  (* 4 sets x 2 ways; vpns 0,4,8 share set 0. *)
  insert t ~asid:0 ~vpn:0 0;
  insert t ~asid:0 ~vpn:4 4;
  ignore (lookup t ~asid:0 ~vpn:0);
  insert t ~asid:0 ~vpn:8 8;
  Alcotest.(check bool) "lru (vpn 4) evicted" true (lookup t ~asid:0 ~vpn:4 = None);
  Alcotest.(check bool) "mru kept" true (lookup t ~asid:0 ~vpn:0 <> None)

(* ------------------------------------------------------------------ *)
(* Cpu / Machine / Memsys                                              *)
(* ------------------------------------------------------------------ *)

let test_cpu_charge () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Cpu.charge c 100;
  Cpu.charge c 50;
  Alcotest.(check int) "cycles accumulate" 150 (Cpu.cycles c);
  Cpu.advance_to c 120;
  Alcotest.(check int) "advance_to never goes back" 150 (Cpu.cycles c);
  Cpu.advance_to c 500;
  Alcotest.(check int) "advance_to goes forward" 500 (Cpu.cycles c)

let test_machine_sync () =
  let machine = Machine.create ~cores:3 ~mem_mib:16 () in
  Cpu.charge (Machine.core machine 1) 1000;
  Alcotest.(check int) "max across cores" 1000 (Machine.max_cycles machine);
  Machine.sync_cores machine;
  Alcotest.(check int) "core 0 advanced" 1000 (Cpu.cycles (Machine.core machine 0))

let test_memsys_latencies () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Memsys.access c Memsys.Data 0x4000;
  Alcotest.(check int) "cold access costs DRAM" Costs.lat_dram (Cpu.cycles c);
  Memsys.access c Memsys.Data 0x4000;
  Alcotest.(check int) "then L1"
    (Costs.lat_dram + Costs.lat_l1)
    (Cpu.cycles c)

let test_memsys_l2_fill () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  (* Fill L1d (32 KiB, 512 lines) beyond capacity with a 64 KiB sweep;
     then the first line should still be in L2 (256 KiB). *)
  for i = 0 to 1023 do
    Memsys.access c Memsys.Data (i * 64)
  done;
  let before = Cpu.cycles c in
  Memsys.access c Memsys.Data 0;
  let lat = Cpu.cycles c - before in
  Alcotest.(check int) "L1 evicted, L2 hit" Costs.lat_l2 lat

let test_footprint_counters () =
  let machine = Machine.create ~cores:1 ~mem_mib:16 () in
  let c = Machine.core machine 0 in
  Memsys.access c Memsys.Insn 0;
  Memsys.access c Memsys.Data 4096;
  let fp = Cpu.footprint c in
  Alcotest.(check int) "l1i miss" 1 fp.Cpu.l1i_miss;
  Alcotest.(check int) "l1d miss" 1 fp.Cpu.l1d_miss;
  Alcotest.(check int) "both fell through l2" 2 fp.Cpu.l2_miss

(* [touch_range] against the per-line loop it replaces. A range is
   (insn?, state-only?, pa, len); lengths reach past two 64-line
   chunks. *)
let line_loop c kind ~pa ~len f =
  if len > 0 then
    for l = pa / 64 to (pa + len - 1) / 64 do
      f c kind (l * 64)
    done

let ref_access_state_only c kind pa =
  let l1 = match kind with Memsys.Insn -> Cpu.l1i c | Memsys.Data -> Cpu.l1d c in
  if not (Cache.access l1 pa) then
    if not (Cache.access (Cpu.l2 c) pa) then ignore (Cache.access (Cpu.l3 c) pa)

let ref_touch c (insn, state_only, pa, len) =
  let kind = if insn then Memsys.Insn else Memsys.Data in
  line_loop c kind ~pa ~len (if state_only then ref_access_state_only else Memsys.access)

let run_touch c (insn, state_only, pa, len) =
  let kind = if insn then Memsys.Insn else Memsys.Data in
  if state_only then Memsys.touch_range_state_only c kind ~pa ~len
  else Memsys.touch_range c kind ~pa ~len

let gen_ranges =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (quad bool (map (fun k -> k = 0) (int_bound 3))
         (int_bound (512 * 1024))
         (oneof [ int_bound 130; int_bound (140 * 64) ])))

let print_ranges rs =
  String.concat ";"
    (List.map (fun (i, s, pa, len) -> Printf.sprintf "(%b,%b,%#x,%d)" i s pa len) rs)

(* Cycles, every cache's counters, and presence of every line the
   ranges could have touched. *)
let memsys_state c ranges =
  let caches = [ Cpu.l1i c; Cpu.l1d c; Cpu.l2 c; Cpu.l3 c ] in
  let lines =
    List.concat_map
      (fun (_, _, pa, len) -> List.init ((len + 127) / 64) (fun i -> (pa / 64) + i))
      ranges
  in
  ( Cpu.cycles c,
    List.map (fun k -> (Cache.hits k, Cache.misses k)) caches,
    List.map (fun l -> List.map (fun k -> Cache.probe k (l * 64)) caches) lines )

let prop_touch_range_exact =
  QCheck.Test.make ~name:"touch_range = per-line access loop" ~count:100
    (QCheck.make ~print:print_ranges gen_ranges)
    (fun ranges ->
      let final touch =
        let machine = Machine.create ~cores:1 ~mem_mib:16 () in
        let c = Machine.core machine 0 in
        List.iter (touch c) ranges;
        memsys_state c ranges
      in
      final run_touch = final ref_touch)

(* With the fault engine on, a [Prob] arm and an [At_cycle] arm on
   "sim.cycle" see the same checks: the same fault fires at the same
   line, with the same cycles, counters, cache contents and fired log.
   The cycle target is drawn inside the ranges' total, so it lands
   mid-range. *)
let prop_touch_range_faults =
  let gen =
    QCheck.Gen.(
      let* ranges = gen_ranges in
      let* frac = float_bound_exclusive 1.0 in
      let* seed = int_bound 1000 in
      let* p = oneof [ return 0.0; float_range 0.001 0.05 ] in
      return (ranges, frac, seed, p))
  in
  let print (ranges, frac, seed, p) =
    Printf.sprintf "%s frac=%.3f seed=%d p=%.3f" (print_ranges ranges) frac seed p
  in
  QCheck.Test.make ~name:"touch_range = per-line loop under sim.cycle faults"
    ~count:100 (QCheck.make ~print gen)
    (fun (ranges, frac, seed, p) ->
      let total =
        let machine = Machine.create ~cores:1 ~mem_mib:16 () in
        let c = Machine.core machine 0 in
        List.iter (ref_touch c) ranges;
        Cpu.cycles c
      in
      let target = int_of_float (frac *. float_of_int total) in
      let final touch =
        Sky_faults.Fault.with_engine (Sky_faults.Fault.fresh_engine ()) @@ fun () ->
        let machine = Machine.create ~cores:1 ~mem_mib:16 () in
        let c = Machine.core machine 0 in
        Sky_faults.Fault.reset ~seed ();
        Fun.protect ~finally:Sky_faults.Fault.disable @@ fun () ->
        Sky_faults.Fault.set_clock (fun _ -> Cpu.cycles c);
        Sky_faults.Fault.arm ~site:"sim.cycle" ~kind:Sky_faults.Fault.Crash
          (Sky_faults.Fault.Prob p);
        Sky_faults.Fault.arm ~site:"sim.cycle" ~kind:Sky_faults.Fault.Hang
          (Sky_faults.Fault.At_cycle target);
        let outcome =
          Sky_faults.Fault.with_scope (fun () ->
              match List.iter (touch c) ranges with
              | () -> None
              | exception Sky_faults.Fault.Injected { kind; _ } -> Some kind)
        in
        (outcome, memsys_state c ranges, Sky_faults.Fault.fired ())
      in
      let ((outcome, _, _) as run) = final run_touch in
      (total = 0 || outcome <> None) && run = final ref_touch)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 10 (fun _ -> Rng.next a) in
  let ys = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:200 QCheck.int (fun seed ->
      let r = Rng.create ~seed in
      let f = Rng.float r in
      f >= 0.0 && f < 1.0)

(* ------------------------------------------------------------------ *)
(* Pmu                                                                 *)
(* ------------------------------------------------------------------ *)

let all_events =
  [
    Pmu.Ipi_sent; Pmu.Vm_exit; Pmu.Vmfunc_exec; Pmu.Syscall_exec;
    Pmu.Cr3_write; Pmu.Ipc_roundtrip; Pmu.Instruction;
  ]

let test_pmu_roundtrip () =
  let p = Pmu.create () in
  List.iter
    (fun ev -> Alcotest.(check int) "fresh is zero" 0 (Pmu.read p ev))
    all_events;
  Pmu.count p Pmu.Vmfunc_exec;
  Pmu.count p Pmu.Vmfunc_exec;
  Pmu.add p Pmu.Vmfunc_exec 40;
  Alcotest.(check int) "count + add accumulate" 42 (Pmu.read p Pmu.Vmfunc_exec)

let test_pmu_independent () =
  let p = Pmu.create () in
  List.iteri (fun i ev -> Pmu.add p ev (i + 1)) all_events;
  List.iteri
    (fun i ev ->
      Alcotest.(check int) (Pmu.name ev) (i + 1) (Pmu.read p ev))
    all_events;
  (* Two PMUs never share counters. *)
  let q = Pmu.create () in
  Alcotest.(check int) "fresh pmu untouched" 0 (Pmu.read q Pmu.Ipi_sent)

let test_pmu_reset () =
  let p = Pmu.create () in
  List.iter (fun ev -> Pmu.add p ev 7) all_events;
  Pmu.reset p;
  List.iter
    (fun ev -> Alcotest.(check int) "zero after reset" 0 (Pmu.read p ev))
    all_events

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "mem_sim"
    [
      ( "phys_mem",
        [
          Alcotest.test_case "u8 roundtrip" `Quick test_u8_roundtrip;
          Alcotest.test_case "u64 roundtrip LE" `Quick test_u64_roundtrip;
          Alcotest.test_case "u64 alignment enforced" `Quick test_u64_alignment;
          Alcotest.test_case "range checks" `Quick test_out_of_range;
          Alcotest.test_case "byte blits span frames" `Quick test_bytes_span_frames;
          Alcotest.test_case "frames materialize lazily" `Quick test_lazy_frames;
        ]
        @ qc [ prop_bytes_roundtrip ] );
      ( "frame_alloc",
        [
          Alcotest.test_case "distinct frames" `Quick test_alloc_distinct;
          Alcotest.test_case "frames zeroed on alloc" `Quick test_alloc_zeroed;
          Alcotest.test_case "contiguous runs" `Quick test_alloc_contiguous;
          Alcotest.test_case "reserved ranges" `Quick test_reserve;
          Alcotest.test_case "exhaustion raises" `Quick test_exhaustion;
          Alcotest.test_case "double free detected" `Quick test_double_free;
        ]
        @ qc [ prop_alloc_no_overlap ] );
      ( "cache",
        [
          Alcotest.test_case "hit after access" `Quick test_cache_hit_after_access;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "geometry validated" `Quick test_cache_geometry_validation;
          Alcotest.test_case "run length bounded" `Quick test_cache_run_bounds;
        ]
        @ qc [ prop_cache_capacity; prop_cache_run_exact ] );
      ( "tlb",
        [
          Alcotest.test_case "insert/lookup with asid" `Quick test_tlb_insert_lookup;
          Alcotest.test_case "flush_asid selective" `Quick test_tlb_flush_asid;
          Alcotest.test_case "flush_all" `Quick test_tlb_flush_all;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_eviction;
        ] );
      ( "cpu_machine",
        [
          Alcotest.test_case "cycle charging" `Quick test_cpu_charge;
          Alcotest.test_case "core sync barrier" `Quick test_machine_sync;
          Alcotest.test_case "memsys latencies" `Quick test_memsys_latencies;
          Alcotest.test_case "L2 backstop" `Quick test_memsys_l2_fill;
          Alcotest.test_case "footprint counters" `Quick test_footprint_counters;
        ]
        @ qc [ prop_touch_range_exact; prop_touch_range_faults ] );
      ( "pmu",
        [
          Alcotest.test_case "count/add/read roundtrip" `Quick test_pmu_roundtrip;
          Alcotest.test_case "events independent" `Quick test_pmu_independent;
          Alcotest.test_case "reset" `Quick test_pmu_reset;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds respected" `Quick test_rng_bounds;
        ]
        @ qc [ prop_rng_float_range ] );
    ]
