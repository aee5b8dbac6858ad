(** The four workloads. Each one sets up, then runs a timed window of
    ops for [seconds] of measured host time, checking every op's output.

    Two clocks:
    - Simulated metrics come from a fixed, deterministic sample at the
      start of the window (the first ops, or the first rounds of a
      cold-start workload), so they are identical across runs of one
      seed, and between traced and untraced runs.
    - Host metrics come from the whole window.

    In a traced run the sample runs under the program's cycle tracer;
    the rest of the window alternates between a part with the
    benchmark's host spans on and a plain part with both off (see
    {!drive}). *)

module Cpu = Sky_sim.Cpu
module Machine = Sky_sim.Machine
module Subkernel = Sky_core.Subkernel
module Web = Sky_net.Web
module Httpd = Sky_net.Httpd
module Openloop = Sky_net.Openloop
module Loadgen = Sky_net.Loadgen
module Histogram = Sky_trace.Histogram
module Trace = Sky_trace.Trace

type cfg = { seed : int; seconds : float; trace : bool }

(* ---- the SLO of the open-loop ladder ---- *)

let slo_p99_cycles = 50_000
let slo_goodput = 0.99
let slo_drain = 0.10
let ops_per_sim_s ~ops ~cycles = Sky_sim.Costs.ops_per_sec ~ops ~cycles:(Int.max 1 cycles)

(* ---- the timed window ---- *)

type window = {
  sample_w : Host.window;  (** the sample, cycle tracer on (traced runs) *)
  spans_w : Host.window;  (** host spans on, cycle tracer off *)
  plain_w : Host.window;  (** everything off; the sample too when untraced *)
}

type phase = Sample | Spanned | Plain

let measured w = float_of_int (w.sample_w.Host.ns + w.spans_w.Host.ns + w.plain_w.Host.ns) *. 1e-9

(* Cycles the tracer charged while the benchmark rebuilt a machine in
   the middle of the sample; they are set-up, not serving, and are taken
   out of the category table. *)
let excluded : (string * int) list ref = ref []

let enter phase cfg =
  if cfg.trace && phase = Sample then begin
    Trace.enable ~ring_capacity:1024 ();
    excluded := []
  end
  else Trace.disable ();
  if phase = Spanned then Spans.start () else Spans.stop ()

(** [rebuild setup f] runs the set-up [f] between rounds: timed into
    [setup], and kept out of the tracer's category table. *)
let rebuild setup f =
  let before = if Trace.is_enabled () then Trace.categories () else [] in
  let r = Host.time_setup setup f in
  if Trace.is_enabled () then
    List.iter
      (fun (c, v) ->
        let v0 = try List.assoc c before with Not_found -> 0 in
        let e = try List.assoc c !excluded with Not_found -> 0 in
        excluded := (c, e + v - v0) :: List.remove_assoc c !excluded)
      (Trace.categories ());
  r

(** The category table of the sample (empty when not tracing). *)
let sample_cats cfg =
  if not cfg.trace then []
  else
    List.filter_map
      (fun (c, v) ->
        let v = v - (try List.assoc c !excluded with Not_found -> 0) in
        if v > 0 then Some (c, v) else None)
      (Trace.categories ())

(** Run [chunk] (timed; returns ops done) after [prepare] (untimed) until
    the sample is complete and [seconds] of host time are measured,
    stopping only [at_boundary] (between rounds of a round-based
    workload, so the window never ends on a partial round). A traced run
    first runs the sample under the cycle tracer. After it, whole units
    of work ([unit_index] of the next chunk: a round, a ladder pass, or
    by default the chunk itself) alternate between host spans (even
    units) and a plain part (odd units). So neither tracer inflates the
    other's host figures, and both parts cover the same mix of work,
    which makes the plain part the baseline for the spans' overhead. *)
let drive ?unit_index ?(at_boundary = fun () -> true) cfg ~sample_done ~prepare ~chunk =
  let w = { sample_w = Host.window (); spans_w = Host.window (); plain_w = Host.window () } in
  let chunks = ref 0 in
  let unit_index = Option.value unit_index ~default:(fun () -> !chunks) in
  let phase () =
    if not (sample_done ()) then Sample
    else if cfg.trace && unit_index () land 1 = 0 then Spanned
    else Plain
  in
  let finished () =
    sample_done () && measured w >= cfg.seconds
    && ((not cfg.trace) || (w.spans_w.Host.ops > 0 && w.plain_w.Host.ops > 0))
    && at_boundary ()
  in
  Spans.reset ();
  let current = ref None in
  while not (finished ()) do
    prepare ();
    let p = phase () in
    if !current <> Some p then begin
      enter p cfg;
      current := Some p
    end;
    Host.timed
      (match p with
       | Sample when cfg.trace -> w.sample_w
       | Spanned -> w.spans_w
       | Sample | Plain -> w.plain_w)
      chunk;
    incr chunks
  done;
  prepare ();
  enter Plain { cfg with trace = false };
  w

type result = {
  attempted : int;  (** ops run in the window *)
  failures : string list;  (** failed output checks, one line each *)
  failed : int;  (** ops whose output check failed *)
  setup : Host.setups;  (** one entry per set-up *)
  window : window;
  sim : (string * float) list;  (** deterministic end-to-end metrics *)
  samples : int;  (** latency samples behind sim_cycles_p50/p99 *)
  sample_ops : int;  (** ops in the deterministic sample *)
  layers : (string * float) list;  (** deterministic per-layer metrics *)
  spans : Spans.agg list;
  cats : (string * int) list;  (** cycle-tracer categories over the sample *)
}

(* Set the rig up [n] times from a collected heap (the last one is
   kept), timing each into [setup]. *)
let setups n setup build =
  let last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.full_major ();
    Host.calibrate ();
    last := Some (Host.time_setup setup build)
  done;
  Option.get !last

(* Percentile of a bucketed latency histogram, interpolated linearly
   inside the bucket that holds the rank, so a small shift of the
   distribution moves it a little instead of a whole bucket. *)
let hist_pct h q =
  let n = Histogram.count h in
  if n = 0 then 0.0
  else begin
    let rank = Float.max 1.0 (q /. 100.0 *. float_of_int n) in
    let counts = h.Histogram.counts in
    let rec go i seen =
      let c = counts.(i) in
      if float_of_int (seen + c) >= rank || i = Array.length counts - 1 then begin
        let lo = if i = 0 then 0 else Histogram.bucket_value (i - 1) + 1 in
        let hi = Histogram.bucket_value i in
        let frac = if c = 0 then 1.0 else (rank -. float_of_int seen) /. float_of_int c in
        float_of_int lo +. (frac *. float_of_int (hi - lo + 1))
      end
      else go (i + 1) (seen + c)
    in
    go 0 0
  end

(* ---- the model check: Figure 7 against the paper ---- *)

(* Largest relative error of the "ours" column against "paper" over the
   public Figure 7 table, in percent. *)
let paper_err_pct () =
  let t = Sky_experiments.Exp_fig7.run () in
  let col name =
    let rec idx i = function
      | h :: _ when h = name -> i
      | _ :: tl -> idx (i + 1) tl
      | [] -> failwith ("fig7 table has no column " ^ name)
    in
    idx 0 t.Sky_harness.Tbl.header
  in
  let paper = col "paper" and ours = col "ours" in
  let num s = float_of_string (String.concat "" (String.split_on_char ',' s)) in
  List.fold_left
    (fun acc row ->
      let p = num (List.nth row paper) and o = num (List.nth row ours) in
      Float.max acc (100.0 *. Float.abs (o -. p) /. p))
    0.0 t.Sky_harness.Tbl.rows

(* ================================================================== *)
(* ipc_pingpong                                                        *)
(* ================================================================== *)

module Pingpong = struct
  let ws_pages = 96
  let server_pages = 4
  let warm_ops = 50
  let sample_ops = 1000
  let chunk_ops = 50

  type rig = {
    sb : Subkernel.t;
    client : Sky_ukernel.Proc.t;
    sid : int;
    vcpu : Sky_mmu.Vcpu.t;
    mem : Sky_mem.Phys_mem.t;
    cpu : Cpu.t;
    machine : Machine.t;
    client_ws : int;
    msgs : bytes array;
  }

  let sweep r =
    Spans.span ~units:ws_pages "mmu.translate" (fun () ->
        for page = 0 to ws_pages - 1 do
          ignore (Sky_mmu.Translate.read_u64 r.vcpu r.mem ~va:(r.client_ws + (page * 4096)))
        done)

  (* One op: the client sweeps its working set, then calls the server
     with a seeded message. Returns simulated cycles and whether the
     reply equals the message and the Subkernel counted one call. *)
  let op r i =
    Spans.set_op i;
    let msg = r.msgs.(i land (Array.length r.msgs - 1)) in
    let c0 = Cpu.cycles r.cpu in
    sweep r;
    let calls0 = Subkernel.calls r.sb in
    let reply =
      Spans.span "core.call" (fun () ->
          Subkernel.direct_server_call r.sb ~core:0 ~client:r.client ~server_id:r.sid msg)
    in
    (Cpu.cycles r.cpu - c0, Bytes.equal reply msg && Subkernel.calls r.sb = calls0 + 1)

  (* Exp_pingpong's rig, built here so the benchmark owns every call it
     times: a 96-page client working set (beyond the 64-entry dTLB)
     against a server that touches 4 pages of its own. *)
  let build ~seed () =
    let open Sky_ukernel in
    let machine = Machine.create ~cores:2 ~mem_mib:128 () in
    let kernel = Kernel.create machine in
    let sb = Subkernel.init kernel in
    let client = Kernel.spawn kernel ~name:"client" in
    let server = Kernel.spawn kernel ~name:"server" in
    let vcpu = Kernel.vcpu kernel ~core:0 in
    let mem = Kernel.mem kernel in
    let client_ws = Kernel.map_anon kernel client (ws_pages * 4096) in
    let server_ws = Kernel.map_anon kernel server (server_pages * 4096) in
    let handler ~core:_ m =
      Spans.span "bench.handler" (fun () ->
          Spans.span ~units:server_pages "mmu.translate" (fun () ->
              for page = 0 to server_pages - 1 do
                ignore (Sky_mmu.Translate.read_u64 vcpu mem ~va:(server_ws + (page * 4096)))
              done);
          m)
    in
    let sid = Subkernel.register_server sb server handler in
    Subkernel.register_client_to_server sb client ~server_id:sid;
    Kernel.context_switch kernel ~core:0 client;
    Sky_mmu.Vcpu.set_mode vcpu Sky_mmu.Vcpu.User;
    let rng = Sky_sim.Rng.create ~seed in
    let r =
      {
        sb; client; sid; vcpu; mem; machine; client_ws;
        cpu = Kernel.cpu kernel ~core:0;
        msgs = Array.init 256 (fun _ -> Sky_sim.Rng.bytes rng 8);
      }
    in
    for i = 1 to warm_ops do
      ignore (op r (-i))
    done;
    r

  let run cfg =
    let setup = Host.setups () in
    let r = setups 15 setup (build ~seed:cfg.seed) in
    let lat = Array.make sample_ops 0 in
    let n = ref 0 and failed = ref 0 and sample_failed = ref 0 in
    let s0 = Layers.snap ~sb:r.sb r.machine in
    let sample = ref None and cats = ref [] in
    let sample_done () = !n >= sample_ops in
    let prepare () =
      if sample_done () && !sample = None then begin
        sample := Some (Layers.diff (Layers.snap ~sb:r.sb r.machine) s0);
        cats := sample_cats cfg
      end
    in
    let chunk () =
      for _ = 1 to chunk_ops do
        let cyc, ok = op r !n in
        if !n < sample_ops then begin
          lat.(!n) <- cyc;
          if not ok then incr sample_failed
        end;
        if not ok then incr failed;
        incr n
      done;
      chunk_ops
    in
    let w = drive cfg ~sample_done ~prepare ~chunk in
    let sample = Option.get !sample in
    let ok_ratio = float_of_int (sample_ops - !sample_failed) /. float_of_int sample_ops in
    let total = Array.fold_left ( + ) 0 lat in
    let rate = ops_per_sim_s ~ops:sample_ops ~cycles:total in
    {
      attempted = !n;
      failed = !failed;
      failures =
        (if !failed > 0 then
           [ Printf.sprintf "%d calls: reply differs from message or Subkernel.calls did not advance once" !failed ]
         else []);
      setup;
      window = w;
      sim =
        [
          ("sim_cycles_p50", float_of_int (Host.percentile lat 50.0));
          ("sim_cycles_p99", float_of_int (Host.percentile lat 99.0));
          ("sim_cycles_mean", float_of_int (total / sample_ops));
          ("sim_ops_per_s", rate);
          ("ok_ratio", ok_ratio);
        ];
      samples = sample_ops;
      sample_ops;
      layers = Layers.metrics ~ops:sample_ops sample;
      spans = Spans.aggregate ();
      cats = !cats;
    }
end

(* ================================================================== *)
(* web_closed                                                          *)
(* ================================================================== *)

module Web_closed = struct
  (* The 4-worker point of [skybench web]'s default curve: 16 cores,
     [Web.default_conns] connections of [Web.default_requests_per_conn]
     requests, driven in the slices [Cluster_web] advances a shard by.
     Slicing does not change what is simulated. *)
  let cores = 16
  let workers = 4
  let conns = Web.default_conns
  let requests_per_conn = Web.default_requests_per_conn
  let slice_cycles = Sky_sim.Quantum.default_quantum

  (* The sample pools this many cold rounds, each with its own seed
     derived from the run's, so its tail percentiles rest on many
     cold starts rather than one. *)
  let sample_rounds = 64
  let round_seed seed k = seed + (k * 1_000_003)

  type inst = {
    t : Web.t;
    sess : Web.session;
    mutable until : int;
    mutable done_ : bool;
    s0 : Layers.snap;
    fs0 : int * int;
    mesh0 : int * int;
  }

  let fs_counts t = (Sky_xv6fs.Fs.cache_hits (Web.fs t), Sky_xv6fs.Fs.cache_misses (Web.fs t))

  let mesh_counts t =
    match Web.mesh t with
    | Some m -> (Sky_mesh.Mesh.cache_hits m, Sky_mesh.Mesh.resolves m)
    | None -> (0, 0)

  let machine t = (Web.kernel t).Sky_ukernel.Kernel.machine
  let snap t = Layers.snap ?sb:(Web.subkernel t) (machine t)

  (* A fresh, cold stack: built, then armed; nothing has been served. *)
  let build ~seed () =
    let t =
      Web.build ~seed ~cores ~conns ~requests_per_conn ~workers
        ~transport:Web.Skybridge ()
    in
    let sess = Web.start_run t in
    {
      t; sess; until = Cpu.cycles (Machine.core (machine t) 0); done_ = false; s0 = snap t;
      fs0 = fs_counts t; mesh0 = mesh_counts t;
    }

  (* What a finished round adds to the sample. *)
  type pooled = {
    h : Histogram.t;
    mutable responses : int;
    mutable expected : int;
    mutable errors : int;
    mutable elapsed : int;
    mutable delta : Layers.snap;
    mutable fs : int * int;
    mutable mesh : int * int;
    mutable irqs : int;
    mutable steals : int;
  }

  let add pool i =
    let lg = Web.loadgen i.t in
    let nic = Web.nic i.t in
    Histogram.merge ~into:pool.h (Loadgen.latencies lg);
    pool.responses <- pool.responses + Loadgen.responses lg;
    pool.expected <- pool.expected + Loadgen.expected lg;
    pool.errors <- pool.errors + Loadgen.errors lg;
    pool.elapsed <- pool.elapsed + Web.elapsed i.t;
    pool.delta <- Layers.plus pool.delta (Layers.diff (snap i.t) i.s0);
    pool.fs <- Layers.add2 pool.fs (Layers.sub2 (fs_counts i.t) i.fs0);
    pool.mesh <- Layers.add2 pool.mesh (Layers.sub2 (mesh_counts i.t) i.mesh0);
    pool.irqs <-
      pool.irqs
      + List.fold_left ( + ) 0
          (List.init (Sky_net.Nic.n_queues nic) (fun q -> Sky_net.Nic.irqs_raised nic ~queue:q));
    pool.steals <- pool.steals + Httpd.steals (Web.httpd i.t)

  let run cfg =
    let setup = Host.setups () in
    let cur = ref (setups 9 setup (build ~seed:(round_seed cfg.seed 0))) in
    let rounds = ref 0 and served = ref 0 and failures = ref [] and failed = ref 0 in
    let pool =
      {
        h = Histogram.create (); responses = 0; expected = 0; errors = 0; elapsed = 0;
        delta = Layers.zero; fs = (0, 0); mesh = (0, 0); irqs = 0; steals = 0;
      }
    in
    let cats = ref [] in
    let sample_done () = !rounds >= sample_rounds in
    let finish_round i =
      let lg = Web.loadgen i.t in
      let errors = Loadgen.errors lg and responses = Loadgen.responses lg in
      let expected = Loadgen.expected lg in
      if errors <> 0 || responses <> expected then begin
        failed := !failed + errors + (expected - responses);
        failures :=
          Printf.sprintf "round %d: Loadgen.errors %d, responses %d of %d expected" !rounds errors
            responses expected
          :: !failures
      end;
      if !rounds < sample_rounds then add pool i;
      incr rounds;
      if !rounds = sample_rounds then cats := sample_cats cfg
    in
    let prepare () =
      if !cur.done_ then begin
        finish_round !cur;
        cur := rebuild setup (build ~seed:(round_seed cfg.seed !rounds))
      end
    in
    let chunk () =
      let i = !cur in
      Spans.set_op !rounds;
      i.until <- i.until + slice_cycles;
      let before = Loadgen.responses (Web.loadgen i.t) in
      (match Spans.span "net.web.advance" (fun () -> Web.advance i.t i.sess ~until:i.until) with
       | `Done -> i.done_ <- true
       | `Paused -> ());
      let n = Loadgen.responses (Web.loadgen i.t) - before in
      served := !served + n;
      n
    in
    let w =
      drive cfg ~unit_index:(fun () -> !rounds) ~at_boundary:(fun () -> !cur.done_) ~sample_done
        ~prepare ~chunk
    in
    let per x = Layers.ratio x pool.responses in
    {
      attempted = !served;
      failed = !failed;
      failures = List.rev !failures;
      setup;
      window = w;
      sim =
        [
          ("sim_cycles_p50", hist_pct pool.h 50.0);
          ("sim_cycles_p99", hist_pct pool.h 99.0);
          ("sim_ops_per_s", ops_per_sim_s ~ops:pool.responses ~cycles:pool.elapsed);
          ("ok_ratio", Layers.ratio (pool.responses - pool.errors) pool.expected);
        ];
      samples = Histogram.count pool.h;
      sample_ops = pool.responses;
      layers =
        Layers.metrics ~ops:pool.responses pool.delta
        @ [
            ("net.nic.irqs_per_op", per pool.irqs);
            ("net.httpd.steals_per_op", per pool.steals);
            ("mesh.cache_hit_ratio", Layers.hit_ratio pool.mesh);
            ("xv6fs.bcache.hit_ratio", Layers.hit_ratio pool.fs);
          ];
      spans = Spans.aggregate ();
      cats = !cats;
    }
end

(* ================================================================== *)
(* overload_open                                                       *)
(* ================================================================== *)

module Overload = struct
  module X = Sky_experiments.Exp_overload

  (* Absolute mean inter-arrival gaps, cycles: 0.5x, 1x, 1.5x and 2x the
     closed-loop saturation of 2 workers (about 2,120 cycles/request),
     fixed here so a parent and a change are offered identical arrivals.
     The last point repeats the top rate under a crash/hang storm. *)
  let gaps = [ 4240; 2120; 1413; 1060 ]
  let ladder = List.map (fun g -> (g, false)) gaps @ [ (1060, true) ]
  let reference_gap = 2120
  let top_gap = 1060
  let workers = 2
  let tenants = 32
  let arrivals = 8000
  let queue_cap = 8
  let batch_max = 4
  let ttl = 12 * queue_cap * workers * reference_gap

  (* The sample pools the first [sample_rounds] passes over the ladder,
     each pass with its own seed derived from the run's. *)
  let sample_rounds = 4
  let round_seed seed k = seed + (k * 1_000_003)

  type point = {
    gap : int;
    storm : bool;
    o : Web.open_t;
    start : int;  (** cycle the arrival clock started from *)
    s0 : Layers.snap;
    mutable ran : bool;
  }

  let snap o = Layers.snap ?sb:o.Web.o_sb o.Web.o_machine

  (* Point [k] of the run: pass [k / 5], rung [k mod 5]. *)
  let build ~seed k =
    let gap, storm = List.nth ladder (k mod List.length ladder) in
    let seed = round_seed seed (k / List.length ladder) in
    let o =
      X.build_point ~seed ~workers ~tenants ~total:arrivals ~ttl ~queue_cap ~batch_max
        ~mean_gap:gap
    in
    if storm then X.storm ~seed ~total:arrivals;
    Machine.sync_cores o.Web.o_machine;
    {
      gap; storm; o; start = Cpu.cycles (Machine.core o.Web.o_machine 0); s0 = snap o;
      ran = false;
    }

  (* One rung of the ladder, pooled over the sample's passes. *)
  type rung = {
    h : Histogram.t;  (** arrival-to-response latency of goodput *)
    mutable offered : int;
    mutable ok : int;
    mutable elapsed : int;
    mutable window : int;  (** first to last arrival, cycles *)
    mutable drain : int;  (** last arrival to last response, cycles *)
    mutable shed_queue : int;
    mutable shed_expired : int;
    mutable batches : int;
    mutable batched_ops : int;
    mutable dropped : int;
    mutable evictions : int;
    mutable delta : Layers.snap;
  }

  let rung () =
    {
      h = Histogram.create (); offered = 0; ok = 0; elapsed = 0; window = 0; drain = 0;
      shed_queue = 0; shed_expired = 0; batches = 0; batched_ops = 0; dropped = 0;
      evictions = 0; delta = Layers.zero;
    }

  let meets_slo r =
    hist_pct r.h 99.0 <= float_of_int slo_p99_cycles
    && float_of_int r.ok >= slo_goodput *. float_of_int r.offered
    && float_of_int r.drain <= slo_drain *. float_of_int r.window

  (* The output check of a finished point: every arrival accounted for,
     nothing corrupt, and no call lost on the storm point. *)
  let check pt =
    let p = X.point_of ~mult:0.0 ~mean_gap:pt.gap pt.o in
    let lost = match pt.o.Web.o_rstats with Some s when pt.storm -> s.Sky_core.Retry.lost | _ -> 0 in
    if p.X.p_accounted && p.X.p_corrupt = 0 && lost = 0 then None
    else
      Some
        (Printf.sprintf
           "gap %d%s: offered %d, goodput %d + shed %d + shed_wire %d + unservable %d + corrupt %d, lost_calls %d"
           pt.gap (if pt.storm then " storm" else "") p.X.p_offered p.X.p_ok p.X.p_shed
           p.X.p_shed_wire p.X.p_unservable p.X.p_corrupt lost)

  (* Pool a finished point into its rung. *)
  let pool pt r =
    let o = pt.o in
    let p = X.point_of ~mult:0.0 ~mean_gap:pt.gap o in
    let last_arrival = Cpu.cycles (Machine.core o.Web.o_machine workers) in
    Histogram.merge ~into:r.h (Openloop.latencies o.Web.o_ol);
    r.offered <- r.offered + p.X.p_offered;
    r.ok <- r.ok + p.X.p_ok;
    r.elapsed <- r.elapsed + o.Web.o_elapsed;
    r.window <- r.window + (last_arrival - pt.start);
    r.drain <- r.drain + (pt.start + o.Web.o_elapsed - last_arrival);
    r.shed_queue <- r.shed_queue + p.X.p_shed_queue;
    r.shed_expired <- r.shed_expired + p.X.p_shed_expired;
    r.batches <- r.batches + p.X.p_batches;
    r.batched_ops <- r.batched_ops + p.X.p_batched_ops;
    r.dropped <- r.dropped + Sky_net.Nic.dropped o.Web.o_nic;
    r.evictions <- r.evictions + (match o.Web.o_sb with Some sb -> Subkernel.evictions sb | None -> 0);
    r.delta <- Layers.plus r.delta (Layers.diff (snap o) pt.s0)

  (* The storm points' recovery census, pooled. *)
  type storm = { mutable fired : int; mutable recovered : int; mutable lost : int; mutable restarts : int }

  let run cfg =
    let rungs = List.map (fun key -> (key, rung ())) ladder in
    let census = { fired = 0; recovered = 0; lost = 0; restarts = 0 } in
    let setup = Host.setups () in
    let cur = ref (setups 9 setup (fun () -> build ~seed:cfg.seed 0)) and k = ref 0 in
    let offered = ref 0 and failed = ref 0 and failures = ref [] and cats = ref [] in
    let sample_points = sample_rounds * List.length ladder in
    let sample_done () = !k >= sample_points in
    let prepare () =
      let pt = !cur in
      if pt.ran then begin
        Option.iter
          (fun msg ->
            incr failed;
            failures := msg :: !failures)
          (check pt);
        if !k < sample_points then begin
          pool pt (List.assoc (pt.gap, pt.storm) rungs);
          if pt.storm then begin
            let s = Option.get pt.o.Web.o_rstats in
            census.fired <-
              census.fired + List.fold_left (fun a (_, n) -> a + n) 0 (Sky_faults.Fault.fired_counts ());
            census.recovered <- census.recovered + s.Sky_core.Retry.retried_ok;
            census.lost <- census.lost + s.Sky_core.Retry.lost;
            census.restarts <- census.restarts + s.Sky_core.Retry.restarts + Httpd.restarts pt.o.Web.o_httpd
          end
        end;
        if pt.storm then Sky_faults.Fault.disable ();
        incr k;
        if !k = sample_points then cats := sample_cats cfg;
        cur := rebuild setup (fun () -> build ~seed:cfg.seed !k)
      end
    in
    let chunk () =
      let pt = !cur in
      Spans.set_op !k;
      Spans.span "net.openloop.run" (fun () -> Web.run_open pt.o);
      pt.ran <- true;
      let n = Openloop.offered pt.o.Web.o_ol in
      offered := !offered + n;
      n
    in
    let at_boundary () = !cur.ran && (!k + 1) mod List.length ladder = 0 in
    let pass () = !k / List.length ladder in
    let w = drive cfg ~unit_index:pass ~at_boundary ~sample_done ~prepare ~chunk in
    if !cur.storm then Sky_faults.Fault.disable ();
    let find gap = List.assoc (gap, false) rungs in
    let all = List.map snd rungs in
    let sum f = List.fold_left (fun a r -> a + f r) 0 all in
    let reference = find reference_gap and top = find top_gap in
    let ops = sum (fun r -> r.offered) in
    let max_rate =
      List.fold_left
        (fun a g -> if meets_slo (find g) then Float.max a (ops_per_sim_s ~ops:1 ~cycles:g) else a)
        0.0 gaps
    in
    {
      attempted = !offered;
      failed = !failed;
      failures = List.rev !failures;
      setup;
      window = w;
      sim =
        [
          ("sim_cycles_p50", hist_pct reference.h 50.0);
          ("sim_cycles_p99", hist_pct reference.h 99.0);
          ("sim_ops_per_s", ops_per_sim_s ~ops:top.ok ~cycles:top.elapsed);
          ("ok_ratio", Layers.ratio (sum (fun r -> r.ok)) ops);
        ];
      samples = Histogram.count reference.h;
      sample_ops = ops;
      layers =
        Layers.metrics ~ops (List.fold_left (fun a r -> Layers.plus a r.delta) Layers.zero all)
        @ [
            ("max_rate_under_slo", max_rate);
            ("net.nic.dropped", float_of_int (sum (fun r -> r.dropped)));
            ("net.httpd.shed_queue", float_of_int (sum (fun r -> r.shed_queue)));
            ("net.httpd.shed_expired", float_of_int (sum (fun r -> r.shed_expired)));
            ("net.httpd.ops_per_batch", Layers.ratio (sum (fun r -> r.batched_ops)) (sum (fun r -> r.batches)));
            ("faults.injected", float_of_int census.fired);
            ("faults.recovered", float_of_int census.recovered);
            ("core.retry.success_ratio", Layers.ratio census.recovered (census.recovered + census.lost));
            ("core.restarts", float_of_int census.restarts);
            ("core.eptp_evictions", float_of_int (sum (fun r -> r.evictions)));
          ]
        @ List.map
            (fun g -> (Printf.sprintf "net.openloop.gap%d.p99_cycles" g, hist_pct (find g).h 99.0))
            gaps;
      spans = Spans.aggregate ();
      cats = !cats;
    }
end

(* ================================================================== *)
(* sqlite_ycsb_a                                                       *)
(* ================================================================== *)

module Ycsb = struct
  module Db = Sky_sqldb.Db
  module Pager = Sky_sqldb.Pager
  module Fs = Sky_xv6fs.Fs

  let records = 1000  (* about 110 table pages against 32 pager slots *)
  let value_size = 100
  let warm_ops = 200
  let sample_ops = 1000
  let chunk_ops = 10

  type rig = {
    stack : Sky_experiments.Stack.t;
    shadow : bytes array;  (** last value written to each key *)
    zipf : Sky_ycsb.Zipf.t;
    mix : Sky_sim.Rng.t;  (** which op of a pair goes first *)
    mutable next_read : bool option;  (** the second op of a pair *)
    values : Sky_sim.Rng.t;
    cpu : Cpu.t;
  }

  (* Reads and updates come in pairs, in seeded order, so every sample is
     exactly 50/50: with a bimodal cost, a sample that drew a few more
     reads than updates would otherwise move the median from one mode
     to the other. *)
  let next_is_read r =
    match r.next_read with
    | Some read ->
      r.next_read <- None;
      read
    | None ->
      let read = Sky_sim.Rng.bool r.mix in
      r.next_read <- Some (not read);
      read

  (* One YCSB-A op, checked against the shadow map: a query must return
     the last value written to its key; an update must find its key. *)
  let op r i =
    Spans.set_op i;
    let db = r.stack.Sky_experiments.Stack.db in
    let key = Sky_ycsb.Zipf.next r.zipf in
    let c0 = Cpu.cycles r.cpu in
    let ok =
      if next_is_read r then
        match Spans.span "sqldb.query" (fun () -> Db.query db ~core:0 ~key) with
        | Some v -> Bytes.equal v r.shadow.(key)
        | None -> false
      else begin
        let value = Sky_sim.Rng.bytes r.values value_size in
        let found = Spans.span "sqldb.update" (fun () -> Db.update db ~core:0 ~key ~value) in
        r.shadow.(key) <- value;
        found
      end
    in
    (Cpu.cycles r.cpu - c0, ok)

  (* SQLite over xv6fs over a RAM disk, seL4 personality, SkyBridge
     transport; [records] loaded, then [warm_ops] ops. *)
  let build ~seed () =
    let stack =
      Sky_experiments.Stack.build ~variant:Sky_ukernel.Config.Sel4
        ~transport:Sky_experiments.Stack.Skybridge ~value_size ()
    in
    let rng = Sky_sim.Rng.create ~seed in
    let shadow = Array.init records (fun _ -> Sky_sim.Rng.bytes rng value_size) in
    Array.iteri
      (fun key value -> Db.insert stack.Sky_experiments.Stack.db ~core:0 ~key ~value)
      shadow;
    let r =
      {
        stack; shadow;
        zipf = Sky_ycsb.Zipf.create ~items:records (Sky_sim.Rng.split rng);
        mix = Sky_sim.Rng.split rng;
        next_read = None;
        values = Sky_sim.Rng.split rng;
        cpu = Sky_sim.Machine.core stack.Sky_experiments.Stack.machine 0;
      }
    in
    for i = 1 to warm_ops do
      ignore (op r (-i))
    done;
    r

  type counts = { ph : int; pm : int; pw : int; bh : int; bm : int; commits : int; dr : int; dw : int }

  let counts r =
    let st = r.stack in
    let pager = Db.pager st.Sky_experiments.Stack.db and fs = Sky_experiments.Stack.fs st in
    let rd = st.Sky_experiments.Stack.ramdisk in
    {
      ph = Pager.hits pager; pm = Pager.misses pager; pw = Pager.page_writes pager;
      bh = Fs.cache_hits fs; bm = Fs.cache_misses fs; commits = Fs.log_commits fs;
      dr = Sky_blockdev.Ramdisk.reads rd; dw = Sky_blockdev.Ramdisk.writes rd;
    }

  let run cfg =
    let setup = Host.setups () in
    let r = setups 9 setup (build ~seed:cfg.seed) in
    let machine = r.stack.Sky_experiments.Stack.machine and sb = r.stack.Sky_experiments.Stack.sb in
    let lat = Array.make sample_ops 0 in
    let n = ref 0 and failed = ref 0 and sample_failed = ref 0 in
    let s0 = Layers.snap ?sb machine and c0 = counts r in
    let sample = ref None in
    let sample_done () = !n >= sample_ops in
    let prepare () =
      if sample_done () && !sample = None then
        sample := Some (Layers.diff (Layers.snap ?sb machine) s0, counts r, sample_cats cfg)
    in
    let chunk () =
      for _ = 1 to chunk_ops do
        let cyc, ok = op r !n in
        if !n < sample_ops then begin
          lat.(!n) <- cyc;
          if not ok then incr sample_failed
        end;
        if not ok then incr failed;
        incr n
      done;
      chunk_ops
    in
    let w = drive cfg ~sample_done ~prepare ~chunk in
    let delta, c1, cats = Option.get !sample in
    let total = Array.fold_left ( + ) 0 lat in
    let per x = Layers.ratio x sample_ops in
    {
      attempted = !n;
      failed = !failed;
      failures =
        (if !failed > 0 then
           [ Printf.sprintf "%d ops: a query missed the last value written, or an update missed its key" !failed ]
         else []);
      setup;
      window = w;
      sim =
        [
          ("sim_cycles_p50", float_of_int (Host.percentile lat 50.0));
          ("sim_cycles_p99", float_of_int (Host.percentile lat 99.0));
          ("sim_ops_per_s", ops_per_sim_s ~ops:sample_ops ~cycles:total);
          ("ok_ratio", float_of_int (sample_ops - !sample_failed) /. float_of_int sample_ops);
        ];
      samples = sample_ops;
      sample_ops;
      layers =
        Layers.metrics ~ops:sample_ops delta
        @ [
            ("sqldb.pager.hit_ratio", Layers.hit_ratio (c1.ph - c0.ph, c1.pm - c0.pm));
            ("sqldb.pager.writes_per_op", per (c1.pw - c0.pw));
            ("xv6fs.bcache.hit_ratio", Layers.hit_ratio (c1.bh - c0.bh, c1.bm - c0.bm));
            ("xv6fs.log.commits_per_op", per (c1.commits - c0.commits));
            ("blockdev.reads_per_op", per (c1.dr - c0.dr));
            ("blockdev.writes_per_op", per (c1.dw - c0.dw));
          ];
      spans = Spans.aggregate ();
      cats;
    }
end
