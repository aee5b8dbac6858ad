type t = {
  sets : int;
  ways : int;
  index_shift : int;
  sets_shift : int; (* log2 sets, precomputed: access is the simulator's hottest loop *)
  tags : int array; (* sets * ways; -1 = invalid *)
  stamps : int array; (* LRU timestamps, parallel to [tags] *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  missed : int array;
      (* Line-aligned PAs the last run call missed, in access order: the
         next level's input. Owned by this cache, never shared, so
         concurrent simulator worlds cannot see each other's runs. *)
}

let run_max = 64

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line not pow2";
  if ways <= 0 then invalid_arg "Cache.create: ways <= 0";
  let lines = size_bytes / line_bytes in
  if lines * line_bytes <> size_bytes || lines mod ways <> 0 then
    invalid_arg "Cache.create: geometry does not divide";
  let sets = lines / ways in
  if not (is_pow2 sets) then invalid_arg "Cache.create: sets not pow2";
  {
    sets;
    ways;
    index_shift = log2 line_bytes;
    sets_shift = log2 sets;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    missed = Array.make run_max 0;
  }

(* Slot search: [-1] for miss. A toplevel function over explicit
   arguments, so a probe builds no closure; [tags] is annotated so the
   comparison is an integer compare, not polymorphic [caml_equal]. *)
let rec find_from (tags : int array) i stop tag =
  if i = stop then -1
  else if tags.(i) = tag then i
  else find_from tags (i + 1) stop tag

let[@inline] find_slot t set tag =
  let base = set * t.ways in
  find_from t.tags base (base + t.ways) tag

(* One access to [line] (a line number, [pa lsr index_shift]): bump the
   LRU clock; on a hit refresh the stamp, on a miss fill the LRU way (or
   an invalid one); count either. Returns [true] on a hit. *)
let[@inline] step t line =
  t.clock <- t.clock + 1;
  let set = line land (t.sets - 1) in
  let tag = line lsr t.sets_shift in
  let slot = find_slot t set tag in
  if slot >= 0 then begin
    t.stamps.(slot) <- t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let base = set * t.ways in
    let victim = ref base in
    for w = 1 to t.ways - 1 do
      if t.stamps.(base + w) < t.stamps.(!victim) then victim := base + w
    done;
    t.tags.(!victim) <- tag;
    t.stamps.(!victim) <- t.clock;
    false
  end

let access t pa = step t (pa lsr t.index_shift)

let access_run t ~pa ~n =
  if n < 0 || n > run_max then invalid_arg "Cache.access_run: n > run_max";
  let line0 = pa lsr t.index_shift in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let line = line0 + i in
    if not (step t line) then begin
      t.missed.(!m) <- line lsl t.index_shift;
      incr m
    end
  done;
  !m

(* [n] is at most [src]'s last miss count, so within [run_max]. *)
let access_missed t ~src ~n =
  let lines = src.missed in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let pa = lines.(i) in
    if not (step t (pa lsr t.index_shift)) then begin
      t.missed.(!m) <- pa;
      incr m
    end
  done;
  !m

let missed t i = t.missed.(i)

let probe t pa =
  let line = pa lsr t.index_shift in
  find_slot t (line land (t.sets - 1)) (line lsr t.sets_shift) >= 0

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
