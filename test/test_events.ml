(* The serving path's event plumbing: notifications, the interleaved run
   loop and the random-number generator.

   Each of them is checked against a reference model kept here as the
   specification — the simplest list-based implementation of the same
   behaviour — and pinned to allocate nothing per event, so a host cost
   that grows with the length of a run shows up as a failed test rather
   than as a slow benchmark. *)

open Sky_sim
open Sky_ukernel
open Sky_kernels

(* ------------------------------------------------------------------ *)
(* Reference notification: every signal kept in a list                 *)
(* ------------------------------------------------------------------ *)

module Ref_notification = struct
  exception Would_block

  type t = {
    kernel : Kernel.t;
    mutable word : int;
    mutable pending : (int * int) list;  (** (virtual time, badge), oldest first *)
    mutable waiters : int list;
    mutable signals : int;
    mutable waits : int;
    mutable ipis : int;
  }

  let create kernel =
    { kernel; word = 0; pending = []; waiters = []; signals = 0; waits = 0; ipis = 0 }

  let signal t ~core ~badge =
    t.signals <- t.signals + 1;
    Kernel.kernel_entry t.kernel ~core;
    let cpu = Kernel.cpu t.kernel ~core in
    Cpu.charge cpu 120;
    t.word <- t.word lor badge;
    t.pending <- t.pending @ [ (Cpu.cycles cpu, badge) ];
    List.iter
      (fun w ->
        if w <> core then begin
          t.ipis <- t.ipis + 1;
          Kernel.send_ipi t.kernel ~from_core:core ~to_core:w
        end)
      t.waiters;
    t.waiters <- [];
    Kernel.kernel_exit t.kernel ~core

  let poll t ~core =
    Kernel.kernel_entry t.kernel ~core;
    Cpu.charge (Kernel.cpu t.kernel ~core) 80;
    let r = if t.word = 0 then None else Some t.word in
    if r <> None then begin
      t.word <- 0;
      t.pending <- []
    end;
    Kernel.kernel_exit t.kernel ~core;
    r

  let wait t ~core =
    t.waits <- t.waits + 1;
    Kernel.kernel_entry t.kernel ~core;
    let cpu = Kernel.cpu t.kernel ~core in
    Cpu.charge cpu 150;
    let deliver () =
      let w = t.word in
      t.word <- 0;
      t.pending <- [];
      t.waiters <- List.filter (fun c -> c <> core) t.waiters;
      Kernel.kernel_exit t.kernel ~core;
      w
    in
    if t.word <> 0 then begin
      (match t.pending with
      | (at, _) :: _ -> Cpu.advance_to cpu at
      | [] -> ());
      deliver ()
    end
    else begin
      if not (List.mem core t.waiters) then t.waiters <- t.waiters @ [ core ];
      Kernel.kernel_exit t.kernel ~core;
      raise Would_block
    end

  let wait_blocking ?(poll = 200) ?(polls = 1) t ~core =
    let cpu = Kernel.cpu t.kernel ~core in
    let rec go n =
      match wait t ~core with
      | w -> Some w
      | exception Would_block ->
        if n <= 0 then None
        else begin
          Cpu.charge cpu poll;
          go (n - 1)
        end
    in
    go polls
end

type nop =
  | Signal of int * int  (** core, badge *)
  | Poll of int
  | Wait of int
  | Wait_blocking of int * int * int  (** core, poll cycles, polls *)
  | Work of int * int  (** core, cycles of unrelated work *)

let show_nop = function
  | Signal (c, b) -> Printf.sprintf "signal(%d,%d)" c b
  | Poll c -> Printf.sprintf "poll(%d)" c
  | Wait c -> Printf.sprintf "wait(%d)" c
  | Wait_blocking (c, p, n) -> Printf.sprintf "wait_blocking(%d,%d,%d)" c p n
  | Work (c, n) -> Printf.sprintf "work(%d,%d)" c n

let gen_nops =
  QCheck.Gen.(
    int_range 1 4 >>= fun cores ->
    let core = int_bound (cores - 1) in
    let op =
      frequency
        [
          (4, map2 (fun c b -> Signal (c, b)) core (oneofl [ 0; 1; 2; 4; 5; 64 ]));
          (2, map (fun c -> Poll c) core);
          (3, map (fun c -> Wait c) core);
          ( 2,
            map3 (fun c p n -> Wait_blocking (c, p, n)) core (int_bound 400) (int_bound 3) );
          (3, map2 (fun c n -> Work (c, n)) core (int_bound 5000));
        ]
    in
    map (fun ops -> (cores, ops)) (list_size (int_range 1 60) op))

let kernel_with ~cores = Kernel.create (Machine.create ~cores ~mem_mib:16 ())

(* After every operation the two sides must agree on what it returned,
   on every core's clock, on the counters and on the waiter list. *)
let observe_cycles k ~cores =
  List.init cores (fun c -> Cpu.cycles (Kernel.cpu k ~core:c))

let prop_notification_matches_reference =
  QCheck.Test.make ~name:"notification = list-based reference" ~count:300
    (QCheck.make
       ~print:(fun (cores, ops) ->
         Printf.sprintf "%d cores: %s" cores (String.concat " " (List.map show_nop ops)))
       gen_nops)
    (fun (cores, ops) ->
      let k = kernel_with ~cores and rk = kernel_with ~cores in
      let n = Notification.create k and r = Ref_notification.create rk in
      let result = function
        | Signal (core, badge) ->
          Notification.signal n ~core ~badge;
          Ref_notification.signal r ~core ~badge;
          true
        | Poll core -> Notification.poll n ~core = Ref_notification.poll r ~core
        | Wait core ->
          let got = try Some (Notification.wait n ~core) with Notification.Would_block -> None in
          let want =
            try Some (Ref_notification.wait r ~core) with Ref_notification.Would_block -> None
          in
          got = want
        | Wait_blocking (core, poll, polls) ->
          Notification.wait_blocking ~poll ~polls n ~core
          = Ref_notification.wait_blocking ~poll ~polls r ~core
        | Work (core, cycles) ->
          Cpu.charge (Kernel.cpu k ~core) cycles;
          Cpu.charge (Kernel.cpu rk ~core) cycles;
          true
      in
      List.for_all
        (fun op ->
          result op
          && observe_cycles k ~cores = observe_cycles rk ~cores
          && Notification.signals n = r.Ref_notification.signals
          && Notification.waits n = r.Ref_notification.waits
          && Notification.ipis n = r.Ref_notification.ipis
          && Notification.waiting_cores n = r.Ref_notification.waiters)
        ops)

(* ------------------------------------------------------------------ *)
(* Reference run loop: live cores and candidates built as lists        *)
(* ------------------------------------------------------------------ *)

module Ref_run = struct
  type run = { cores : int array; finished : bool array; mutable idle_streak : int }

  let start ~cores =
    let cores = Array.of_list cores in
    { cores; finished = Array.make (Array.length cores) false; idle_streak = 0 }

  let run_until t r ~step ~until =
    let cores = r.cores in
    let n = Array.length cores in
    let live () =
      let acc = ref [] in
      for i = n - 1 downto 0 do
        if not r.finished.(i) then acc := i :: !acc
      done;
      !acc
    in
    let cyc j = Cpu.cycles (Machine.core t cores.(j)) in
    let max_idle_streak = 64 * n in
    let rec loop () =
      match live () with
      | [] -> `Done
      | l -> (
        match List.filter (fun j -> cyc j < until) l with
        | [] -> `Paused
        | rl ->
          let i =
            List.fold_left
              (fun best j -> if cyc j < cyc best then j else best)
              (List.hd rl) (List.tl rl)
          in
          let c = cores.(i) in
          let cpu = Machine.core t c in
          let before = Cpu.cycles cpu in
          (match step ~core:c with
          | Machine.Progress -> r.idle_streak <- 0
          | Machine.Done ->
            r.finished.(i) <- true;
            r.idle_streak <- 0
          | Machine.Idle_until ts when ts > before ->
            Cpu.advance_to cpu ts;
            r.idle_streak <- 0
          | Machine.Idle | Machine.Idle_until _ ->
            let next =
              List.fold_left (fun acc j -> if j = i then acc else min acc (cyc j)) max_int l
            in
            if next < max_int then Cpu.advance_to cpu (next + 1) else Cpu.charge cpu 64;
            r.idle_streak <- r.idle_streak + 1;
            if r.idle_streak > max_idle_streak then
              raise
                (Machine.Stuck
                   (Printf.sprintf
                      "Machine.interleave: %d idle steps with no progress (cores stuck at \
                       cycle %d)"
                      r.idle_streak (Cpu.cycles cpu))));
          loop ())
    in
    loop ()
end

(* One core's scripted workload: its actions in order, then either
   [Done] or [Idle] for ever (a lost wakeup, which must end in [Stuck]). *)
type action =
  | A_progress of int  (** cycles charged by the step *)
  | A_idle
  | A_idle_until of int  (** target relative to the core's clock; may lie behind it *)

type script = { actions : action array; then_idle : bool }

let show_action = function
  | A_progress n -> Printf.sprintf "P%d" n
  | A_idle -> "I"
  | A_idle_until d -> Printf.sprintf "U%+d" d

let gen_run =
  QCheck.Gen.(
    let action =
      frequency
        [
          (5, map (fun n -> A_progress n) (int_bound 3000));
          (2, return A_idle);
          (2, map (fun d -> A_idle_until d) (int_range (-500) 4000));
        ]
    in
    let script =
      map2
        (fun actions then_idle -> { actions = Array.of_list actions; then_idle })
        (list_size (int_bound 40) action)
        (frequencyl [ (9, false); (1, true) ])
    in
    int_range 1 4 >>= fun n ->
    triple (list_repeat n script) (list_size (int_range 1 8) (int_range 1 20_000)) (int_bound 3))

let print_run (scripts, slices, first_core) =
  Printf.sprintf "first core %d, slices [%s]: %s" first_core
    (String.concat ";" (List.map string_of_int slices))
    (String.concat " | "
       (List.map
          (fun s ->
            String.concat " " (Array.to_list (Array.map show_action s.actions))
            ^ if s.then_idle then " idle..." else " done")
          scripts))

(* Drive one engine through the scripts under the given [until]
   slicing; the log is every step's (core, cycle) and how the run ended. *)
let drive ~run_until (scripts, slices, first_core) =
  let n = List.length scripts in
  let scripts = Array.of_list scripts in
  let machine = Machine.create ~cores:(first_core + n) ~mem_mib:4 () in
  let next = Array.make (first_core + n) 0 in
  let log = ref [] in
  let step ~core =
    let cpu = Machine.core machine core in
    let now = Cpu.cycles cpu in
    log := (core, now) :: !log;
    let s = scripts.(core - first_core) in
    let k = next.(core) in
    if k >= Array.length s.actions then (if s.then_idle then Machine.Idle else Machine.Done)
    else begin
      next.(core) <- k + 1;
      match s.actions.(k) with
      | A_progress c ->
        Cpu.charge cpu c;
        Machine.Progress
      | A_idle -> Machine.Idle
      | A_idle_until d -> Machine.Idle_until (now + d)
    end
  in
  let cores = List.init n (fun i -> first_core + i) in
  let ending =
    match run_until machine cores ~step slices with
    | () -> "done"
    | exception Machine.Stuck msg -> "stuck: " ^ msg
  in
  (List.rev !log, ending)

(* Quanta of the given lengths, cycling, until the run reports [`Done]. *)
let sliced engine machine cores ~step slices =
  let run_until = engine machine cores in
  let slices = Array.of_list slices in
  let rec go k until =
    match run_until ~step ~until with
    | `Done -> ()
    | `Paused -> go (k + 1) (until + slices.(k mod Array.length slices))
  in
  go 1 slices.(0)

let new_engine machine cores =
  let r = Machine.start_run machine ~cores in
  fun ~step ~until -> Machine.run_until machine r ~step ~until

let ref_engine machine cores =
  let r = Ref_run.start ~cores in
  fun ~step ~until -> Ref_run.run_until machine r ~step ~until

let prop_run_until_matches_reference =
  QCheck.Test.make ~name:"run_until = list-based reference" ~count:500
    (QCheck.make ~print:print_run gen_run)
    (fun case ->
      drive ~run_until:(sliced new_engine) case = drive ~run_until:(sliced ref_engine) case)

(* A lost wakeup on two cores: both engines raise the same [Stuck]. *)
let test_run_reference_covers_stuck () =
  let idle_forever = { actions = [| A_progress 10; A_idle |]; then_idle = true } in
  let case = ([ idle_forever; idle_forever ], [ 100; 7 ], 1) in
  let (_, got) as a = drive ~run_until:(sliced new_engine) case in
  Alcotest.(check bool) "stuck" true (String.length got > 5 && String.sub got 0 5 = "stuck");
  Alcotest.(check bool) "same as reference" true (a = drive ~run_until:(sliced ref_engine) case)

(* ------------------------------------------------------------------ *)
(* Rng: the splitmix64 stream is pinned                                *)
(* ------------------------------------------------------------------ *)

let first8 seed =
  let r = Rng.create ~seed in
  List.init 8 (fun _ -> Rng.next_int64 r)

let test_rng_stream_pinned () =
  let check seed want =
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) want (first8 seed)
  in
  check 0
    [
      -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
      -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
      3207296026000306913L; -4214222208109204676L;
    ];
  check 1
    [
      -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
      8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
      -2262517385565684571L; -8797857673641491083L;
    ];
  check 42
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L;
    ];
  (* A split chain: a child, a grandchild, a second child, the parent. *)
  let r = Rng.create ~seed:7 in
  let a = Rng.split r in
  let b = Rng.split a in
  let c = Rng.split r in
  Alcotest.(check (list int64)) "split chain"
    [ 7378886316209617315L; -8739713840093474481L; -9055334382896554780L; -1830642326893942270L ]
    (List.map Rng.next_int64 [ a; b; c; r ])

(* ------------------------------------------------------------------ *)
(* Allocation pins                                                     *)
(* ------------------------------------------------------------------ *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_no_alloc name f =
  f () (* warm-up *);
  Alcotest.(check (float 0.0)) (name ^ ": minor words") 0.0 (minor_words f)

let test_events_allocate_nothing () =
  Alcotest.(check bool) "tracing off" false (Sky_trace.Trace.is_enabled ());
  Alcotest.(check bool) "faults off" false (Sky_faults.Fault.is_enabled ());
  let k = kernel_with ~cores:2 in
  let n = Notification.create k in
  check_no_alloc "1k signals" (fun () ->
      for i = 1 to 1000 do
        Notification.signal n ~core:(i land 1) ~badge:(i land 7)
      done);
  check_no_alloc "1k signal + wait" (fun () ->
      for i = 1 to 1000 do
        Notification.signal n ~core:1 ~badge:(1 + (i land 7));
        ignore (Notification.wait n ~core:0 : int)
      done);
  (* An empty poll and a registered waiter re-polling: the idle loop. *)
  check_no_alloc "1k empty polls" (fun () ->
      for _ = 1 to 1000 do
        ignore (Notification.poll n ~core:0 : int option)
      done);
  check_no_alloc "1k re-waits while registered" (fun () ->
      for _ = 1 to 1000 do
        match Notification.wait n ~core:0 with
        | _ -> assert false
        | exception Notification.Would_block -> ()
      done);
  let rng = Rng.create ~seed:3 in
  check_no_alloc "10k Rng.next/int/bool" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Rng.next rng + Rng.int rng 97 : int);
        ignore (Rng.bool rng : bool)
      done)

(* A step function that allocates nothing: core [c] charges [c + 1]
   hundred cycles per step for [steps] steps, then goes idle once. *)
let test_run_until_allocates_nothing () =
  let machine = Machine.create ~cores:4 ~mem_mib:4 () in
  let left = Array.make 4 0 in
  let step ~core =
    let k = left.(core) in
    left.(core) <- k - 1;
    if k > 0 then begin
      Cpu.charge (Machine.core machine core) ((core + 1) * 100);
      Machine.Progress
    end
    else if k = 0 then Machine.Idle
    else Machine.Done
  in
  let run () =
    Array.fill left 0 4 2_000;
    let r = Machine.start_run machine ~cores:[ 0; 1; 2; 3 ] in
    minor_words (fun () ->
        match Machine.run_until machine r ~step ~until:max_int with
        | `Done -> ()
        | `Paused -> assert false)
  in
  ignore (run ());
  Alcotest.(check (float 0.0)) "8k run_until steps: minor words" 0.0 (run ())

(* ------------------------------------------------------------------ *)
(* Linearity: host cost per arrival does not grow with the run         *)
(* ------------------------------------------------------------------ *)

(* One overload point at 2x saturation of 2 workers: workers stay busy,
   popping requests without ever waiting on the endpoint's notification,
   so anything kept per signal grows with the run. *)
let words_per_arrival total =
  let workers = 2 and queue_cap = 8 in
  let o =
    Sky_experiments.Exp_overload.build_point ~seed:1 ~workers ~tenants:32 ~total
      ~ttl:(12 * queue_cap * workers * 2120) ~queue_cap ~batch_max:4 ~mean_gap:1060
  in
  Machine.sync_cores o.Sky_net.Web.o_machine;
  minor_words (fun () -> Sky_net.Web.run_open o) /. float_of_int total

let test_overload_host_cost_linear () =
  let n = 400 in
  let small = words_per_arrival n and large = words_per_arrival (4 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "words per arrival: %.0f at %d arrivals, %.0f at %d, within 1.25x" small n
       large (4 * n))
    true
    (large <= 1.25 *. small)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "events"
    [
      ("notification", qc [ prop_notification_matches_reference ]);
      ( "run_until",
        qc [ prop_run_until_matches_reference ]
        @ [ Alcotest.test_case "stuck" `Quick test_run_reference_covers_stuck ] );
      ("rng", [ Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned ]);
      ( "allocation",
        [
          Alcotest.test_case "signal, wait, poll and Rng allocate nothing" `Quick
            test_events_allocate_nothing;
          Alcotest.test_case "run_until allocates nothing" `Quick
            test_run_until_allocates_nothing;
        ] );
      ( "linearity",
        [ Alcotest.test_case "overload words per arrival" `Quick test_overload_host_cost_linear ]
      );
    ]
