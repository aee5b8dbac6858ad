(* The benchmark's own checks:
   - two runs of one seed give identical simulated metrics (every sim_*
     end-to-end value and every per-layer counter and ratio);
   - a traced run gives the same simulated metrics as an untraced one;
   - ipc_pingpong reproduces the cycles per call pinned in
     bench/budgets.json, and paper_err_pct is reproducible.
   Each run measures only a sliver of host time: the simulated metrics
   come from the fixed sample at the start of the window. *)

open Perfbench_lib
module W = Workloads

let workloads =
  [
    ("ipc_pingpong", W.Pingpong.run);
    ("web_closed", W.Web_closed.run);
    ("overload_open", W.Overload.run);
    ("sqlite_ycsb_a", W.Ycsb.run);
  ]

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let sim_view (r : W.result) = (r.W.sim, r.W.layers, r.W.samples, r.W.sample_ops)

let budget_cycles_per_call () =
  let ic = open_in "../bench/budgets.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let key = "\"cycles_per_call\"" in
  let rec find i =
    if String.sub s i (String.length key) = key then i + String.length key else find (i + 1)
  in
  let i = find 0 in
  let j = String.index_from s i ':' + 1 in
  let k = ref j in
  while s.[!k] = ' ' do incr k done;
  let e = ref !k in
  while !e < String.length s && s.[!e] >= '0' && s.[!e] <= '9' do incr e done;
  int_of_string (String.sub s !k (!e - !k))

let () =
  List.iter
    (fun (name, run) ->
      let cfg = { W.seed = 7; seconds = 0.01; trace = false } in
      let a = run cfg in
      let b = run cfg in
      let t = run { cfg with W.trace = true } in
      check (name ^ ": outputs correct") (a.W.failures = [] && b.W.failures = [] && t.W.failures = []);
      check (name ^ ": same seed, same simulated metrics") (sim_view a = sim_view b);
      check (name ^ ": traced = untraced simulated metrics") (sim_view a = sim_view t);
      check (name ^ ": traced run has a category table") (t.W.cats <> []);
      check (name ^ ": traced run has host spans") (t.W.spans <> []);
      if name = "ipc_pingpong" then begin
        let budget = budget_cycles_per_call () in
        check
          (Printf.sprintf "ipc_pingpong: %d cycles/op as pinned in bench/budgets.json" budget)
          (List.assoc "sim_cycles_mean" a.W.sim = float_of_int budget
           && List.assoc "sim_cycles_p50" a.W.sim = float_of_int budget)
      end)
    workloads;
  let e = W.paper_err_pct () in
  check (Printf.sprintf "paper_err_pct %.4f reproducible and nonzero" e) (e > 0.0 && e = W.paper_err_pct ());
  if !failures > 0 then exit 1
