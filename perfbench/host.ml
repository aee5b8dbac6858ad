(** Host-side clock, allocation counters and the timed window.

    Every host figure the benchmark reports comes from here: monotonic
    nanoseconds (no allocation on read), words allocated on the OCaml
    heap, and GC counts. The window accumulates only the segments the
    workload marks as timed, so rebuilding a fresh machine between rounds
    of a cold-start workload is never billed as serving time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
(* Minor plus directly-allocated major words: everything the program
   allocated, counting a promoted word once. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Host speed on a shared machine drifts between regimes over seconds
   (on a shared 2-vCPU VM the same simulator loop ran anywhere from 1x
   to 1.6x slower from one minute to the next), and the drift swamps
   any change worth detecting. So the benchmark times a fixed reference
   loop -- allocation-heavy, like the simulator, and independent of it --
   every [calibrate_every_ns], and reports host time in reference
   nanoseconds: measured nanoseconds scaled by the loop's nominal time
   over its latest measured time. The loop always runs under the same
   GC parameters ({!reference_gc}), so a change that tunes the
   program's GC moves the program's time and not the reference. Raw
   nanoseconds are kept too and printed next to the result. *)
let reference_nominal_ns = 2_350_000.0
let calibrate_every_ns = 50_000_000
let speed = ref 1.0
let last_calibration = ref min_int

(* The reference loop allocates like the simulator: small blocks, some
   of them live across a minor collection. *)
let reference_loop () =
  let acc = ref 0 in
  for r = 1 to 4 do
    let l = List.init 20_000 (fun i -> (i + r, Some i)) in
    List.iter (fun (a, b) -> match b with Some b -> acc := !acc + a + b | None -> ()) l
  done;
  ignore (Sys.opaque_identity !acc)

(* The OCaml 5 runtime's default minor heap and space overhead. *)
let reference_gc g = { g with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* The loop starts from an empty minor heap, so the collections it runs
   promote its own blocks, not the simulator's, and its time does not
   grow with the simulator's heap. The program's GC parameters are
   restored afterwards (setting them to what they already are costs
   nothing). *)
let calibrate () =
  let saved = Gc.get () in
  Gc.set (reference_gc saved);
  Gc.minor ();
  let t0 = now_ns () in
  reference_loop ();
  let t1 = now_ns () in
  Gc.set saved;
  speed := reference_nominal_ns /. float_of_int (Int.max 1 (t1 - t0));
  last_calibration := now_ns ()

let maybe_calibrate () =
  if now_ns () - !last_calibration >= calibrate_every_ns then calibrate ()

(** Reference nanoseconds for [ns] measured nanoseconds just now. *)
let reference ns = float_of_int ns *. !speed

(** Set-up times, in reference and in raw seconds, one entry per set-up. *)
type setups = { mutable ref_s : float list; mutable raw_s : float list }

let setups () = { ref_s = []; raw_s = [] }

(** Run the set-up [f], timing it into [s]. *)
let time_setup s f =
  maybe_calibrate ();
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  s.ref_s <- (reference dt *. 1e-9) :: s.ref_s;
  s.raw_s <- (float_of_int dt *. 1e-9) :: s.raw_s;
  r

type window = {
  mutable ns : int;
  mutable ref_ns : float;
  mutable ops : int;
  mutable words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let window () = { ns = 0; ref_ns = 0.0; ops = 0; words = 0.0; minor_gcs = 0; major_gcs = 0 }

(** Run [f], billing its host time, allocation and GCs to [w]; [f]
    returns the number of ops it completed. *)
let timed w f =
  maybe_calibrate ();
  let g0 = Gc.quick_stat () in
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let ops = f () in
  let t1 = now_ns () in
  let w1 = alloc_words () in
  let g1 = Gc.quick_stat () in
  w.ns <- w.ns + (t1 - t0);
  w.ref_ns <- w.ref_ns +. reference (t1 - t0);
  w.ops <- w.ops + ops;
  w.words <- w.words +. (w1 -. w0);
  w.minor_gcs <- w.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  w.major_gcs <- w.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections)

let ops_per_s w = float_of_int w.ops /. Float.max 1e-9 (w.ref_ns *. 1e-9)
let raw_ops_per_s w = float_of_int w.ops /. Float.max 1e-9 (float_of_int w.ns *. 1e-9)

(** Reference nanoseconds per measured nanosecond over the window. *)
let window_speed w = if w.ns = 0 then 1.0 else w.ref_ns /. float_of_int w.ns
let words_per_op w = w.words /. float_of_int (Int.max 1 w.ops)
let per_kop w n = 1000.0 *. float_of_int n /. float_of_int (Int.max 1 w.ops)

let heap_peak_mib () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(** Exact nearest-rank percentile of a sample ([q] in 0..100). *)
let percentile a q =
  let n = Array.length a in
  let s = Array.copy a in
  Array.sort compare s;
  let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
  s.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median l = percentile (Array.of_list l) 50.0
