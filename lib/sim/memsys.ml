type kind = Insn | Data

let[@inline] l1_of cpu = function Insn -> Cpu.l1i cpu | Data -> Cpu.l1d cpu

let access cpu kind pa =
  if Cache.access (l1_of cpu kind) pa then Cpu.charge cpu Costs.lat_l1
  else if Cache.access (Cpu.l2 cpu) pa then Cpu.charge cpu Costs.lat_l2
  else if Cache.access (Cpu.l3 cpu) pa then Cpu.charge cpu Costs.lat_l3
  else Cpu.charge cpu Costs.lat_dram

(* Ranges: every cache in the hierarchy has 64-byte lines. *)
let line_shift = 6

(* The run path. A range goes through the hierarchy in chunks of at most
   [Cache.run_max] lines: L1 takes the whole chunk in one call, L2 takes
   the lines L1 missed, L3 the lines L2 missed. Each level still sees
   exactly the access sequence the per-line loop gave it (L1 every line
   in order, L2 L1's misses in order, L3 L2's misses in order) and each
   level has its own LRU clock and counters, so contents, stamps and
   counts are bit-identical. L2 and L3 are not even read while L1 hits.
   Returns the chunk latencies summed from the per-level miss counts:
   lines that hit L1 cost [lat_l1], each level missed adds the step to
   the next level's latency. *)
let below_l1 cpu l1 m1 =
  let l2 = Cpu.l2 cpu in
  let m2 = Cache.access_missed l2 ~src:l1 ~n:m1 in
  let extra = m1 * (Costs.lat_l2 - Costs.lat_l1) in
  if m2 = 0 then extra
  else
    let m3 = Cache.access_missed (Cpu.l3 cpu) ~src:l2 ~n:m2 in
    extra
    + (m2 * (Costs.lat_l3 - Costs.lat_l2))
    + (m3 * (Costs.lat_dram - Costs.lat_l3))

let rec run cpu l1 pa n acc =
  let k = if n > Cache.run_max then Cache.run_max else n in
  let m1 = Cache.access_run l1 ~pa ~n:k in
  let acc = acc + (k * Costs.lat_l1) + if m1 = 0 then 0 else below_l1 cpu l1 m1 in
  if n = k then acc else run cpu l1 (pa + (k lsl line_shift)) (n - k) acc

let access_state_only cpu kind pa =
  if not (Cache.access (l1_of cpu kind) pa) then
    if not (Cache.access (Cpu.l2 cpu) pa) then ignore (Cache.access (Cpu.l3 cpu) pa)

(* A one-line range is one [access]: the run path only pays for itself
   from two lines up. *)
let touch_range_state_only cpu kind ~pa ~len =
  if len > 0 then begin
    let first = pa lsr line_shift and last = (pa + len - 1) lsr line_shift in
    if first = last then access_state_only cpu kind pa
    else ignore (run cpu (l1_of cpu kind) (first lsl line_shift) (last - first + 1) 0)
  end

let access_uncached cpu = Cpu.charge cpu Costs.lat_dram

(* One charge of the summed latency is what the per-line charges add up
   to: the core clock and the tracer's per-category sums only add. The
   fault engine is the exception. Its "sim.cycle" site counts every
   charge, [Prob] arms draw once per charge and an [At_cycle] arm fires
   mid-range before the later lines are touched, so while it is on a
   range is a per-line loop of [access]. *)
let touch_range cpu kind ~pa ~len =
  if len > 0 then begin
    let first = pa lsr line_shift and last = (pa + len - 1) lsr line_shift in
    if first = last then access cpu kind pa
    else if Sky_faults.Fault.is_enabled () then
      for l = first to last do
        access cpu kind (l lsl line_shift)
      done
    else Cpu.charge cpu (run cpu (l1_of cpu kind) (first lsl line_shift) (last - first + 1) 0)
  end

(* Host-side hot lines: a flat direct-mapped memo over the most recent
   TLB hits, keyed by (core, i/d-side, VPN low bits). A probe that
   revalidates its remembered TLB slot (same live (asid, vpn) — ASIDs
   encode PCID and EPTP root, so a hit is also correct across processes
   and EPTP switches) reproduces the exact observable state of a TLB
   hit while skipping the set scan and the surrounding walk machinery
   in the translation layer. Pure host-speed optimization: simulated
   cycles, counters and LRU state are bit-identical.

   Lines hold an OCaml pointer to the owning Tlb.t, compared physically
   on probe, so stale lines from a torn-down machine can never match a
   new machine's structures. Fault-injection scope entry clears all
   lines (registered below) so chaos runs exercise the full path and
   stay bit-identical whether or not lines were warm. *)
module Hotline = struct
  (* An empty line holds its table's [none] sentinel, a TLB no core
     owns, so [probe]'s physical compare fails before the slot ([-1])
     is used; lines need no [option] boxes. *)
  type line = {
    mutable h_tlb : Tlb.t;
    mutable h_slot : int;
    mutable h_asid : int;
    mutable h_vpn : int;
  }

  let max_cores = 64
  let lines_per_side = 16

  type table = { lines : line array; none : Tlb.t }

  let fresh_table () : table =
    let none = Tlb.create ~name:"hotline.none" ~entries:1 ~ways:1 in
    {
      lines =
        Array.init (max_cores * 2 * lines_per_side) (fun _ ->
            { h_tlb = none; h_slot = -1; h_asid = 0; h_vpn = 0 });
      none;
    }

  (* The memo table is scoped like {!Accel}'s epoch: single-machine runs
     share the process-wide default, parallel shards each bind their own
     ({!with_table}, domain-local) so a fault-scope entry or warm-up in
     one shard never drops another shard's lines — hot-line hits are a
     PMU-visible event, so cross-shard clears would make counters depend
     on shard interleaving. *)
  let default_table = fresh_table ()

  let scoped = Atomic.make 0

  let table_key : table Domain.DLS.key =
    Domain.DLS.new_key (fun () -> default_table)

  let current_table () =
    if Atomic.get scoped = 0 then default_table else Domain.DLS.get table_key

  let with_table tb f =
    let prev = Domain.DLS.get table_key in
    Domain.DLS.set table_key tb;
    Atomic.incr scoped;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set table_key prev;
        Atomic.decr scoped)
      f

  let line_for ~core ~insn ~vpn =
    let side = if insn then 1 else 0 in
    let core = core land (max_cores - 1) in
    (current_table ()).lines.(((core * 2) + side) * lines_per_side
                              + (vpn land (lines_per_side - 1)))

  let probe line ~tlb ~asid ~vpn =
    if line.h_tlb == tlb && line.h_asid = asid && line.h_vpn = vpn
       && Tlb.slot_hit tlb line.h_slot ~asid ~vpn
    then line.h_slot
    else -1

  let record line ~tlb ~slot ~asid ~vpn =
    line.h_tlb <- tlb;
    line.h_slot <- slot;
    line.h_asid <- asid;
    line.h_vpn <- vpn

  let clear_all () =
    let tb = current_table () in
    Array.iter
      (fun l ->
        l.h_tlb <- tb.none;
        l.h_slot <- -1)
      tb.lines

  (* Chaos determinism: entering a fault-injection scope drops every
     hot line, so the translation layer takes the same code path with
     the same site hooks regardless of prior warm-up. *)
  let () = Sky_faults.Fault.on_scope_enter clear_all
end
