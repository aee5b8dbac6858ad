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
