(* perfbench: the repository's benchmark.

     perfbench --workload ipc_pingpong|web_closed|overload_open|sqlite_ycsb_a
               --seed N --seconds S --trace 0|1

   Runs one workload on one domain for S seconds of measured host time
   and checks its outputs. It prints a table of every metric with its
   unit and sample count, then (untraced) a JSON line of the unscaled
   host figures, then, as the last line, one JSON object: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1.
   A traced run also writes perfbench/results/<workload>.trace.json
   (category table, per-span host self time and words). A failed output
   check prints "correct": false with no metrics and exits 1. *)

open Perfbench_lib
module W = Workloads

let workloads =
  [
    ("ipc_pingpong", W.Pingpong.run);
    ("web_closed", W.Web_closed.run);
    ("overload_open", W.Overload.run);
    ("sqlite_ycsb_a", W.Ycsb.run);
  ]

(* Name, unit; mirrors BENCHMARK.json. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("host_ops_per_s", "op/s");
    ("host_words_per_op", "words/op");
    ("host_heap_peak_mib", "MiB");
    ("sim_cycles_p50", "cycles");
    ("sim_cycles_p99", "cycles");
    ("sim_ops_per_s", "op/sim-s");
    ("ok_ratio", "ratio");
    ("paper_err_pct", "%");
  ]

let per_layer =
  [
    ("sim.accesses_per_op", "count/op");
    ("sim.host_ns_per_access", "ns");
    ("sim.l1i.miss_ratio", "ratio");
    ("sim.l1d.miss_ratio", "ratio");
    ("sim.l2.miss_ratio", "ratio");
    ("sim.l3.miss_ratio", "ratio");
    ("sim.itlb.miss_ratio", "ratio");
    ("sim.dtlb.miss_ratio", "ratio");
    ("sim.psc.hit_ratio", "ratio");
    ("sim.ept_wc.hit_ratio", "ratio");
    ("sim.hotline.hits", "count");
    ("mmu.walk_cycles_per_op", "cycles/op");
    ("mmu.translate.host_ns", "ns");
    ("mmu.translate.words", "words");
    ("core.call.host_ns_self", "ns");
    ("core.call.words_self", "words");
    ("core.switch_cycles_per_op", "cycles/op");
    ("core.copy_cycles_per_op", "cycles/op");
    ("core.vm_exits_per_op", "count/op");
    ("core.retry.success_ratio", "ratio");
    ("core.restarts", "count");
    ("core.eptp_evictions", "count");
    ("kernels.syscall_cycles_per_op", "cycles/op");
    ("kernels.ctx_cycles_per_op", "cycles/op");
    ("kernels.ipi_cycles_per_op", "cycles/op");
    ("kernels.sched_cycles_per_op", "cycles/op");
    ("net.nic.irqs_per_op", "count/op");
    ("net.httpd.steals_per_op", "count/op");
    ("net.web.advance.host_ms_p50", "ms");
    ("net.web.advance.host_ms_p99", "ms");
    ("net.nic.dropped", "count");
    ("net.httpd.shed_queue", "count");
    ("net.httpd.shed_expired", "count");
    ("net.httpd.ops_per_batch", "count");
    ("max_rate_under_slo", "op/sim-s");
    ("net.openloop.gap4240.p99_cycles", "cycles");
    ("net.openloop.gap2120.p99_cycles", "cycles");
    ("net.openloop.gap1413.p99_cycles", "cycles");
    ("net.openloop.gap1060.p99_cycles", "cycles");
    ("mesh.cache_hit_ratio", "ratio");
    ("xv6fs.bcache.hit_ratio", "ratio");
    ("xv6fs.log.commits_per_op", "count/op");
    ("sqldb.pager.hit_ratio", "ratio");
    ("sqldb.pager.writes_per_op", "count/op");
    ("sqldb.query.host_us_p50", "us");
    ("sqldb.update.host_us_p50", "us");
    ("blockdev.reads_per_op", "count/op");
    ("blockdev.writes_per_op", "count/op");
    ("faults.injected", "count");
    ("faults.recovered", "count");
    ("host.minor_gcs_per_kop", "count/kop");
    ("host.major_gcs_per_kop", "count/kop");
    ("trace.untracked_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* ---- metrics ---- *)

(* Span times are measured nanoseconds; [speed] converts them to
   reference nanoseconds like every other host time. *)
let span_metrics ~speed (spans : Spans.agg list) =
  let find name = List.find_opt (fun a -> a.Spans.a_name = name) spans in
  let per_unit name f =
    match find name with
    | Some a -> f a /. float_of_int (Int.max 1 a.Spans.a_units)
    | None -> 0.0
  in
  let pct name q scale =
    match find name with
    | Some a -> speed *. Host.percentile a.Spans.a_durs q /. scale
    | None -> 0.0
  in
  [
    ("mmu.translate.host_ns", per_unit "mmu.translate" (fun a -> speed *. float_of_int a.Spans.a_ns));
    ("mmu.translate.words", per_unit "mmu.translate" (fun a -> a.Spans.a_words));
    ("core.call.host_ns_self", per_unit "core.call" (fun a -> speed *. float_of_int a.Spans.a_self_ns));
    ("core.call.words_self", per_unit "core.call" (fun a -> a.Spans.a_self_words));
    ("net.web.advance.host_ms_p50", pct "net.web.advance" 50.0 1e6);
    ("net.web.advance.host_ms_p99", pct "net.web.advance" 99.0 1e6);
    ("sqldb.query.host_us_p50", pct "sqldb.query" 50.0 1e3);
    ("sqldb.update.host_us_p50", pct "sqldb.update" 50.0 1e3);
  ]

let ns_per_op w = w.Host.ref_ns /. float_of_int (Int.max 1 w.Host.ops)

let layer_values (r : W.result) =
  let w = r.W.window in
  let plain = w.W.plain_w in
  let accesses = try List.assoc "sim.accesses_per_op" r.W.layers with Not_found -> 0.0 in
  r.W.layers
  @ Layers.trace_metrics ~ops:r.W.sample_ops r.W.cats
  @ span_metrics ~speed:(Host.window_speed w.W.spans_w) r.W.spans
  @ [
      ("sim.host_ns_per_access", if accesses > 0.0 then ns_per_op plain /. accesses else 0.0);
      ("host.minor_gcs_per_kop", Host.per_kop plain plain.Host.minor_gcs);
      ("host.major_gcs_per_kop", Host.per_kop plain plain.Host.major_gcs);
      ("trace.overhead_pct", 100.0 *. ((ns_per_op w.W.spans_w /. ns_per_op plain) -. 1.0));
    ]

let e2e_values (r : W.result) ~paper_err =
  let plain = r.W.window.W.plain_w in
  [
    ("setup_s", Host.median r.W.setup.Host.ref_s);
    ("host_ops_per_s", Host.ops_per_s plain);
    ("host_words_per_op", Host.words_per_op plain);
    ("host_heap_peak_mib", Host.heap_peak_mib ());
    ("paper_err_pct", paper_err);
  ]
  @ r.W.sim

(* ---- output ---- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_str s = "\"" ^ String.escaped s ^ "\""

let metrics_json names values =
  String.concat ","
    (List.map
       (fun (name, unit) ->
         let v = try List.assoc name values with Not_found -> 0.0 in
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str name) (json_num v) (json_str unit))
       names)

let print_table ~title names values ~note =
  Printf.printf "== %s ==\n" title;
  List.iter
    (fun (name, unit) ->
      let v = try List.assoc name values with Not_found -> 0.0 in
      Printf.printf "  %-34s %18.6g %s\n" name v unit)
    names;
  List.iter (Printf.printf "  note: %s\n") note

let trace_file ~workload ~seed (r : W.result) layers =
  let w = r.W.window in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 r.W.cats in
  let cat (c, v) =
    Printf.sprintf "{\"category\":%s,\"cycles\":%d,\"pct\":%s}" (json_str c) v
      (json_num (100.0 *. Layers.ratio v total))
  in
  let span a =
    let u = float_of_int (Int.max 1 a.Spans.a_units) in
    Printf.sprintf
      "{\"name\":%s,\"spans\":%d,\"units\":%d,\"host_ns\":%d,\"self_ns\":%d,\"words\":%s,\"self_words\":%s,\"self_ns_per_unit\":%s,\"self_words_per_unit\":%s}"
      (json_str a.Spans.a_name) a.Spans.a_spans a.Spans.a_units a.Spans.a_ns a.Spans.a_self_ns
      (json_num a.Spans.a_words) (json_num a.Spans.a_self_words)
      (json_num (float_of_int a.Spans.a_self_ns /. u))
      (json_num (a.Spans.a_self_words /. u))
  in
  let win name (x : Host.window) =
    Printf.sprintf "%s:{\"ops\":%d,\"host_ns\":%d,\"reference_ns\":%s,\"words\":%s}"
      (json_str name) x.Host.ops x.Host.ns (json_num x.Host.ref_ns) (json_num x.Host.words)
  in
  String.concat ""
    [
      "{\"workload\":"; json_str workload; ",\"seed\":"; string_of_int seed;
      ",\"sample_ops\":"; string_of_int r.W.sample_ops;
      ",\"windows\":{"; win "sample_cycle_tracer" w.W.sample_w; ","; win "spans" w.W.spans_w; ",";
      win "plain" w.W.plain_w; "}";
      ",\"categories\":["; String.concat "," (List.map cat r.W.cats); "]";
      ",\"spans\":["; String.concat "," (List.map span r.W.spans); "]";
      ",\"ops_traced\":"; string_of_int (Spans.ops_traced ());
      ",\"dropped_spans\":"; string_of_int !Spans.dropped;
      ",\"per_layer\":{"; metrics_json per_layer layers; "}}\n";
    ]

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let usage () =
  prerr_endline
    "usage: perfbench --workload <ipc_pingpong|web_closed|overload_open|sqlite_ycsb_a> \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl -> seed := int_of_string_opt v; parse tl
    | "--seconds" :: v :: tl ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse tl
    | "--trace" :: ("0" | "1" as v) :: tl -> trace := v = "1"; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run = match List.assoc_opt !workload workloads with Some f -> f | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  (* The model check runs before set-up and outside the timed window. *)
  let paper_err = W.paper_err_pct () in
  let r = run { W.seed; seconds = !seconds; trace = !trace } in
  let correct = r.W.failures = [] in
  Printf.printf "workload %s  seed %d  ops %d  failed %d  set-ups %d\n" !workload seed
    r.W.attempted r.W.failed (List.length r.W.setup.Host.ref_s);
  List.iter (Printf.printf "CHECK FAILED: %s\n") r.W.failures;
  let names, values =
    if !trace then begin
      let layers = layer_values r in
      let dir = Filename.concat "perfbench" "results" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (!workload ^ ".trace.json") in
      write_file path (trace_file ~workload:!workload ~seed r layers);
      print_table ~title:"per-layer (traced run)" per_layer layers
        ~note:
          [
            Printf.sprintf "simulated counters over the %d-op sample; wrote %s" r.W.sample_ops path;
          ];
      (per_layer, layers)
    end
    else begin
      let values = e2e_values r ~paper_err in
      print_table ~title:"end to end (untraced run)" end_to_end values
        ~note:
          [
            Printf.sprintf
              "sim_* over a deterministic sample of %d ops (%d latency samples); host_* over %d ops in %.2f s"
              r.W.sample_ops r.W.samples r.W.window.W.plain_w.Host.ops
              (float_of_int r.W.window.W.plain_w.Host.ns *. 1e-9);
            "host seconds are reference seconds (see Host); the line below gives the unscaled figures";
          ];
      (* Unscaled host figures, so a comparison can check that the
         reference scaling neither made nor hid a change. *)
      Printf.printf "{\"raw\":{\"host_ops_per_s\":%s,\"setup_s\":%s,\"reference_s_per_s\":%s}}\n"
        (json_num (Host.raw_ops_per_s r.W.window.W.plain_w))
        (json_num (Host.median r.W.setup.Host.raw_s))
        (json_num (Host.window_speed r.W.window.W.plain_w));
      (end_to_end, values)
    end
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    (Int.max 1 r.W.attempted) r.W.failed
    (if correct then metrics_json names values else "");
  if not correct then exit 1
