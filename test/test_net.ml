(* Tests for the lib/net subsystem: NIC rings + RSS + coalesced IRQs,
   the HTTP-ish codec, the interleaved multi-core run loop, and the
   end-to-end web stack (SkyBridge vs slowpath IPC, determinism, and
   crash-safe worker recovery). *)

open Sky_sim
open Sky_ukernel
open Sky_net
module Fault = Sky_faults.Fault

let with_faults f = Fun.protect ~finally:Fault.disable f

let make ?(cores = 4) () =
  let machine = Machine.create ~cores ~mem_mib:64 () in
  let kernel = Kernel.create machine in
  (kernel, machine)

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_roundtrip () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:2 in
  let flow =
    (* find a flow RSS steers to queue 0 *)
    let rec go f = if Nic.queue_of_flow nic f = 0 then f else go (f + 1) in
    go 1
  in
  let payload = Bytes.of_string "GET /kv/hello" in
  Nic.deliver nic ~flow ~seq:0 ~payload ~at:5_000;
  Alcotest.(check int) "queued" 1 (Nic.rx_level nic ~queue:0);
  Alcotest.(check int) "other queue empty" 0 (Nic.rx_level nic ~queue:1);
  (match Nic.rx nic ~queue:0 ~core:0 with
  | None -> Alcotest.fail "expected a packet"
  | Some pkt ->
    Alcotest.(check int) "flow" flow pkt.Nic.flow;
    Alcotest.(check int) "seq" 0 pkt.Nic.seq;
    Alcotest.(check bytes) "payload survives the rings" payload pkt.Nic.payload;
    Alcotest.(check bool) "consumer advanced to delivery time" true
      (Cpu.cycles (Kernel.cpu k ~core:0) >= 5_000));
  Alcotest.(check bool) "drained" true (Nic.rx nic ~queue:0 ~core:0 = None)

let test_nic_rss_spreads () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:4 in
  let counts = Array.make 4 0 in
  for flow = 0 to 1023 do
    let q = Nic.queue_of_flow nic flow in
    counts.(q) <- counts.(q) + 1
  done;
  Array.iteri
    (fun q c ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %d gets a fair share (%d)" q c)
        true
        (c > 150 && c < 360))
    counts

let test_nic_irq_coalescing () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:1 in
  for seq = 0 to 2 do
    Nic.deliver nic ~flow:1 ~seq ~payload:(Bytes.of_string "x") ~at:0
  done;
  Alcotest.(check int) "burst into empty ring raises one IRQ" 1
    (Nic.irqs_raised nic ~queue:0);
  while Nic.rx nic ~queue:0 ~core:0 <> None do () done;
  Nic.deliver nic ~flow:1 ~seq:3 ~payload:(Bytes.of_string "y") ~at:0;
  Alcotest.(check int) "empty->non-empty edge raises again" 2
    (Nic.irqs_raised nic ~queue:0)

let test_nic_ring_full_drops () =
  let k, _ = make () in
  let nic = Nic.create k ~queues:1 in
  for seq = 0 to Nic.ring_entries + 4 do
    Nic.deliver nic ~flow:1 ~seq ~payload:(Bytes.of_string "x") ~at:0
  done;
  Alcotest.(check int) "overflow counted, not raised" 5 (Nic.dropped nic);
  Alcotest.(check int) "ring holds capacity" Nic.ring_entries
    (Nic.rx_level nic ~queue:0)

(* ------------------------------------------------------------------ *)
(* HTTP codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_http_roundtrip () =
  let reqs =
    [
      Http.Kv_get "alpha";
      Http.Kv_put ("k1", Bytes.of_string "some value with spaces");
      Http.Fs_get "web0.html";
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request roundtrips" true
        (Http.parse_request (Http.serialize_request r) = r))
    reqs;
  let resp = Http.ok (Bytes.of_string "body bytes") in
  let back = Http.parse_response (Http.serialize_response resp) in
  Alcotest.(check int) "status" 200 back.Http.status;
  Alcotest.(check bytes) "body" resp.Http.body back.Http.body;
  List.iter
    (fun junk ->
      try
        ignore (Http.parse_request (Bytes.of_string junk));
        Alcotest.fail ("accepted junk: " ^ junk)
      with Http.Bad_request _ -> ())
    [ "DELETE /kv/x"; "GET /kv/"; "PUT /kv/nokey"; "" ]

let gen_text =
  QCheck.Gen.(string_size ~gen:(oneof [ char; oneofl [ ' '; '/'; 'k'; 'v' ] ]) (int_bound 24))

let gen_http_request =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Http.Kv_get k) gen_text;
        map2 (fun k v -> Http.Kv_put (k, Bytes.of_string v)) gen_text gen_text;
        map (fun n -> Http.Fs_get n) gen_text;
      ])

let prop_http_request_roundtrip =
  QCheck.Test.make ~name:"http parse . serialize = id" ~count:500
    (QCheck.make gen_http_request)
    (fun r ->
      match Http.serialize_request r with
      | b -> Http.parse_request b = r
      | exception Invalid_argument _ -> true)

(* Noise, or noise behind a prefix the parsers branch on. *)
let gen_http_junk =
  QCheck.Gen.(
    map2 (fun p s -> Bytes.of_string (p ^ s))
      (oneofl [ ""; "GET /kv/"; "PUT /kv/"; "GET /fs/"; "TTL"; "TTL-"; "200 "; "4" ])
      gen_text)

let prop_http_parsers_total =
  QCheck.Test.make ~name:"http parsers raise only Bad_request" ~count:500
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) gen_http_junk)
    (fun b ->
      let only_bad f = match f b with _ -> true | exception Http.Bad_request _ -> true in
      only_bad (fun b -> ignore (Http.parse_request b))
      && only_bad (fun b -> ignore (Http.parse_response b))
      && only_bad (fun b -> ignore (Http.split_ttl b)))

(* The requests that used not to round-trip are refused at the encoder. *)
let test_http_encoder_rejects () =
  List.iter
    (fun r ->
      match Http.serialize_request r with
      | b -> Alcotest.failf "serialized %S" (Bytes.to_string b)
      | exception Invalid_argument _ -> ())
    [
      Http.Kv_put ("a b", Bytes.of_string "v");
      Http.Kv_put ("", Bytes.of_string "v");
      Http.Kv_get "";
      Http.Fs_get "";
    ]

(* The web KV backend answers any bytes; a request that does not decode
   gets the empty reply. *)
let prop_web_kv_any_bytes =
  QCheck.Test.make ~name:"web kv handler answers any bytes" ~count:300
    (QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b))
       QCheck.Gen.(
         map2 (fun c s -> Bytes.of_string (String.make 1 c ^ s))
           (oneofl [ 'I'; 'Q'; 'B'; 'X' ])
           (string_size ~gen:char (int_bound 48))))
    (fun msg ->
      let k, machine = make ~cores:1 () in
      let handler = Web.kv_backend k (Sky_kvstore.Kv_server.create machine) in
      let reply = handler ~core:0 msg in
      Sky_kvstore.Kv_wire.decode msg <> None || Bytes.length reply = 0)

(* ------------------------------------------------------------------ *)
(* Interleaved run loop                                                *)
(* ------------------------------------------------------------------ *)

let test_interleave_orders_by_virtual_time () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  let order = ref [] in
  let left = [| 3; 3 |] in
  Machine.interleave machine ~cores:[ 0; 1 ] ~step:(fun ~core ->
      if left.(core) = 0 then Machine.Done
      else begin
        left.(core) <- left.(core) - 1;
        order := core :: !order;
        (* core 0 is slow: it should run once per two core-1 steps *)
        Cpu.charge (Machine.core machine core) (if core = 0 then 1000 else 500);
        Machine.Progress
      end);
  Alcotest.(check (list int)) "behind core always runs first"
    [ 0; 1; 0; 1; 1; 0 ]
    (List.rev (List.filteri (fun i _ -> i < 6) (List.rev !order)))

let test_interleave_stuck () =
  let machine = Machine.create ~cores:2 ~mem_mib:16 () in
  try
    Machine.interleave machine ~cores:[ 0; 1 ] ~step:(fun ~core:_ -> Machine.Idle);
    Alcotest.fail "expected Stuck"
  with Machine.Stuck _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end web stack                                                *)
(* ------------------------------------------------------------------ *)

let small ?(seed = 7) ?(workers = 2) transport =
  Web.build ~seed ~cores:4 ~conns:8 ~requests_per_conn:3 ~workers ~transport ()

let test_web_smoke () =
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered" (Loadgen.expected lg)
    (Loadgen.responses lg);
  Alcotest.(check int) "no validation errors" 0 (Loadgen.errors lg);
  Alcotest.(check int) "httpd served them" (Loadgen.expected lg)
    (Httpd.served (Web.httpd t));
  Alcotest.(check bool) "positive throughput" true (Web.throughput t > 0.0);
  (match Web.subkernel t with
  | None -> Alcotest.fail "skybridge stack has a subkernel"
  | Some sb -> Alcotest.(check int) "clean audit" 0
      (List.length (Sky_core.Subkernel.audit sb)));
  (* both workers actually served traffic *)
  Alcotest.(check bool) "worker 0 busy" true (Httpd.worker_served (Web.httpd t) 0 > 0);
  Alcotest.(check bool) "worker 1 busy" true (Httpd.worker_served (Web.httpd t) 1 > 0)

let test_web_slowpath_and_gap () =
  let sky = small Web.Skybridge in
  Web.run sky;
  let ipc = small Web.Ipc_slowpath in
  Web.run ipc;
  Alcotest.(check int) "slowpath answers everything too"
    (Loadgen.expected (Web.loadgen ipc))
    (Loadgen.responses (Web.loadgen ipc));
  Alcotest.(check int) "slowpath validation clean" 0 (Loadgen.errors (Web.loadgen ipc));
  Alcotest.(check bool)
    (Printf.sprintf "SkyBridge beats slowpath IPC (%.0f vs %.0f req/s)"
       (Web.throughput sky) (Web.throughput ipc))
    true
    (Web.throughput sky > Web.throughput ipc)

let test_web_deterministic () =
  let run () =
    let t = small ~seed:11 Web.Skybridge in
    Web.run t;
    let h = Loadgen.latencies (Web.loadgen t) in
    ( Web.elapsed t,
      Loadgen.responses (Web.loadgen t),
      Sky_trace.Histogram.p50 h,
      Sky_trace.Histogram.p99 h,
      Sky_trace.Histogram.max_value h )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, bit-identical run" true (a = b)

let test_web_worker_crash_recovery () =
  with_faults @@ fun () ->
  Fault.reset ~seed:3 ();
  Fault.arm ~budget:2 ~site:Httpd.fault_site ~kind:Fault.Crash (Fault.At_hit 4);
  let t = small Web.Skybridge in
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check bool) "workers crashed" true (Httpd.restarts (Web.httpd t) >= 1);
  Alcotest.(check int) "zero lost requests" (Loadgen.expected lg)
    (Loadgen.responses lg);
  Alcotest.(check int) "zero corrupt responses" 0 (Loadgen.errors lg);
  match Web.subkernel t with
  | None -> ()
  | Some sb ->
    Alcotest.(check int) "audit still clean after revoke/rebind" 0
      (List.length (Sky_core.Subkernel.audit sb))

(* A request denied by EVERY receiver must terminate as a counted 403,
   not cycle around the endpoint forever. Revoking the kv:// service
   kills every worker's capability at once; the static files stay
   servable from the worker caches, so the run must finish with exactly
   the KV share of the mix as unservable errors. *)
let test_denied_by_all_terminates () =
  let t = small Web.Skybridge in
  (match Web.mesh t with
  | None -> Alcotest.fail "skybridge stack has a mesh"
  | Some mesh -> ignore (Sky_mesh.Mesh.revoke_service mesh ~core:0 "kv://"));
  Web.run t;
  let lg = Web.loadgen t in
  Alcotest.(check int) "every request answered (served or 403)"
    (Loadgen.expected lg) (Loadgen.responses lg);
  Alcotest.(check bool) "unservable requests counted" true
    (Httpd.unservable (Web.httpd t) > 0);
  Alcotest.(check bool) "denials bounced before terminating" true
    (Httpd.denials (Web.httpd t) > 0);
  Alcotest.(check int) "load generator saw them as errors"
    (Httpd.unservable (Web.httpd t))
    (Loadgen.errors lg)

(* ------------------------------------------------------------------ *)
(* Open-loop generator + admission control                             *)
(* ------------------------------------------------------------------ *)

let accounted ol =
  Openloop.offered ol
  = Openloop.ok ol + Openloop.shed ol + Openloop.shed_wire ol
    + Openloop.unservable ol + Openloop.corrupt ol

let test_openloop_accounting () =
  (* Moderate load: everything served, nothing shed, invariant holds. *)
  let o =
    Web.build_open ~seed:5 ~tenants:8 ~mean_gap:4000 ~total:160 ~workers:2
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "finished" true (Openloop.finished ol);
  Alcotest.(check int) "all offered" 160 (Openloop.offered ol);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors at moderate load" 0 (Openloop.errors ol);
  Alcotest.(check int) "all goodput" 160 (Openloop.ok ol);
  Alcotest.(check bool) "connections churned" true (Openloop.churns ol > 0)

let test_openloop_deterministic () =
  let run () =
    let o =
      Web.build_open ~seed:13 ~tenants:10 ~mean_gap:900 ~total:250 ~workers:2
        ~admission:
          { Httpd.a_queue_cap = Some 4; a_default_ttl = None; a_batch_max = 3 }
        ~transport:Web.Skybridge ()
    in
    Web.run_open o;
    let ol = o.Web.o_ol in
    let h = Openloop.latencies ol in
    ( Openloop.ok ol,
      Openloop.shed ol,
      Openloop.churns ol,
      Sky_trace.Histogram.p50 h,
      Sky_trace.Histogram.p99 h,
      o.Web.o_elapsed )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, bit-identical run" true (a = b)

let test_admission_queue_cap_sheds () =
  (* Far past saturation with a tiny queue bound: overflow sheds as
     typed 503s at demux, and nothing is lost or corrupted. *)
  let o =
    Web.build_open ~seed:9 ~tenants:16 ~mean_gap:250 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 2; a_default_ttl = None; a_batch_max = 1 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "queue-full sheds happened" true
    (Httpd.shed_queue o.Web.o_httpd > 0);
  Alcotest.(check int) "client saw every shed as a 503"
    (Httpd.shed o.Web.o_httpd + Openloop.shed_wire ol)
    (Openloop.shed ol + Openloop.shed_wire ol);
  Alcotest.(check int) "zero corrupt" 0 (Openloop.corrupt ol);
  Alcotest.(check int) "zero unservable" 0 (Openloop.unservable ol)

let test_admission_deadline_sheds () =
  (* A TTL so tight the queue can never be worked off: expired requests
     are shed, admitted ones still validate. *)
  let o =
    Web.build_open ~seed:21 ~tenants:12 ~mean_gap:400 ~total:300 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = None; a_default_ttl = None; a_batch_max = 1 }
      ~ttl:9_000 ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check bool) "deadline sheds happened" true
    (Httpd.shed_expired o.Web.o_httpd > 0);
  Alcotest.(check int) "zero corrupt" 0 (Openloop.corrupt ol);
  Alcotest.(check bool) "some goodput survived" true (Openloop.ok ol > 0)

let test_batching_amortizes () =
  (* Deep queues + batch_max > 1: workers drain several requests per
     quantum and carry their KV ops in one backend crossing. *)
  let o =
    Web.build_open ~seed:17 ~tenants:16 ~mean_gap:400 ~total:400 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 8; a_default_ttl = None; a_batch_max = 4 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  let httpd = o.Web.o_httpd in
  Alcotest.(check bool) "batched crossings happened" true (Httpd.batches httpd > 0);
  Alcotest.(check bool) "each batch carries >= 2 ops" true
    (Httpd.batched_ops httpd >= 2 * Httpd.batches httpd);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero errors: batched replies validate" 0
    (Openloop.errors ol)

let test_openloop_worker_crash_zero_lost () =
  (* The chaos interlock: a worker crash mid-overload parks the live
     batch and replays it — every admitted request still resolves. *)
  with_faults @@ fun () ->
  Fault.reset ~seed:3 ();
  Fault.arm ~budget:2 ~site:Httpd.fault_site ~kind:Fault.Crash (Fault.At_hit 5);
  let o =
    Web.build_open ~seed:29 ~tenants:10 ~mean_gap:1200 ~total:200 ~workers:2
      ~admission:
        { Httpd.a_queue_cap = Some 16; a_default_ttl = None; a_batch_max = 3 }
      ~transport:Web.Skybridge ()
  in
  Web.run_open o;
  let ol = o.Web.o_ol in
  Alcotest.(check bool) "workers crashed" true (Httpd.restarts o.Web.o_httpd >= 1);
  Alcotest.(check bool) "accounting invariant" true (accounted ol);
  Alcotest.(check int) "zero corrupt under crash replay" 0 (Openloop.corrupt ol)

let () =
  Alcotest.run "net"
    [
      ( "nic",
        [
          Alcotest.test_case "roundtrip" `Quick test_nic_roundtrip;
          Alcotest.test_case "rss-spreads" `Quick test_nic_rss_spreads;
          Alcotest.test_case "irq-coalescing" `Quick test_nic_irq_coalescing;
          Alcotest.test_case "ring-full-drops" `Quick test_nic_ring_full_drops;
        ] );
      ( "http",
        [
          Alcotest.test_case "codec" `Quick test_http_roundtrip;
          Alcotest.test_case "encoder rejects" `Quick test_http_encoder_rejects;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_http_request_roundtrip; prop_http_parsers_total ] );
      ( "interleave",
        [
          Alcotest.test_case "virtual-time-order" `Quick
            test_interleave_orders_by_virtual_time;
          Alcotest.test_case "stuck-detection" `Quick test_interleave_stuck;
        ] );
      ( "web",
        [
          Alcotest.test_case "smoke" `Quick test_web_smoke;
          Alcotest.test_case "skybridge-vs-slowpath" `Quick test_web_slowpath_and_gap;
          Alcotest.test_case "deterministic" `Quick test_web_deterministic;
          Alcotest.test_case "worker-crash-recovery" `Quick
            test_web_worker_crash_recovery;
          Alcotest.test_case "denied-by-all-terminates" `Quick
            test_denied_by_all_terminates;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_web_kv_any_bytes ] );
      ( "overload",
        [
          Alcotest.test_case "openloop-accounting" `Quick
            test_openloop_accounting;
          Alcotest.test_case "openloop-deterministic" `Quick
            test_openloop_deterministic;
          Alcotest.test_case "queue-cap-sheds" `Quick
            test_admission_queue_cap_sheds;
          Alcotest.test_case "deadline-sheds" `Quick
            test_admission_deadline_sheds;
          Alcotest.test_case "batching-amortizes" `Quick test_batching_amortizes;
          Alcotest.test_case "crash-zero-lost" `Quick
            test_openloop_worker_crash_zero_lost;
        ] );
    ]
