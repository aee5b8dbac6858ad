open Sky_sim
open Sky_ukernel

exception Would_block

type t = {
  kernel : Kernel.t;
  mutable word : int;
  mutable first_at : int;
      (** virtual time of the oldest signal since the word was last
          consumed, or [-1] when there is none *)
  mutable waiters : int list;  (** cores blocked in [wait], oldest first *)
  mutable signals : int;
  mutable waits : int;
  mutable ipis : int;
}

let create kernel =
  { kernel; word = 0; first_at = -1; waiters = []; signals = 0; waits = 0; ipis = 0 }

let rec kick t ~core = function
  | [] -> ()
  | w :: rest ->
    if w <> core then begin
      t.ipis <- t.ipis + 1;
      Kernel.send_ipi t.kernel ~from_core:core ~to_core:w
    end;
    kick t ~core rest

let signal t ~core ~badge =
  t.signals <- t.signals + 1;
  Kernel.kernel_entry t.kernel ~core;
  let cpu = Kernel.cpu t.kernel ~core in
  Cpu.charge cpu 120 (* signal fastpath: word update + waiter check *);
  t.word <- t.word lor badge;
  (* [wait] only ever reads the oldest signal's time (the badges are
     already in [word]), so later signals leave it alone. *)
  if t.first_at < 0 then t.first_at <- Cpu.cycles cpu;
  (* Kick every blocked waiter: one IPI per remote core. N signals racing
     a single wait coalesce — the word accumulates, the waiters are only
     woken (and cleared) once. *)
  kick t ~core t.waiters;
  t.waiters <- [];
  Kernel.kernel_exit t.kernel ~core

let poll t ~core =
  Kernel.kernel_entry t.kernel ~core;
  Cpu.charge (Kernel.cpu t.kernel ~core) 80;
  let w = t.word in
  if w <> 0 then begin
    t.word <- 0;
    t.first_at <- -1
  end;
  Kernel.kernel_exit t.kernel ~core;
  if w = 0 then None else Some w

let wait t ~core =
  t.waits <- t.waits + 1;
  Kernel.kernel_entry t.kernel ~core;
  let cpu = Kernel.cpu t.kernel ~core in
  Cpu.charge cpu 150 (* block/unblock bookkeeping *);
  if t.word <> 0 then begin
    (* Something already pending: if it was signalled "later" than our
       current virtual time (a signaler on another core), block until
       its delivery time. A non-zero word always has a [first_at]. *)
    Cpu.advance_to cpu t.first_at;
    let w = t.word in
    t.word <- 0;
    t.first_at <- -1;
    if List.mem core t.waiters then
      t.waiters <- List.filter (fun c -> c <> core) t.waiters;
    Kernel.kernel_exit t.kernel ~core;
    w
  end
  else begin
    if not (List.mem core t.waiters) then t.waiters <- t.waiters @ [ core ];
    Kernel.kernel_exit t.kernel ~core;
    raise Would_block
  end

(* The documented poll loop for IRQ consumers (the NIC driver path): try
   to consume; on empty, stay registered as a waiter and burn [poll]
   cycles per round, up to [polls] rounds. In a single-threaded
   simulation a signal can only arrive between invocations (when the
   signaling core runs), so callers embed this in a run loop — e.g.
   {!Sky_sim.Machine.interleave} — and treat [None] as "idle, let the
   other cores run". *)
let rec retry_wait t ~core ~poll n =
  match wait t ~core with
  | w -> Some w
  | exception Would_block ->
    if n <= 0 then None
    else begin
      Cpu.charge (Kernel.cpu t.kernel ~core) poll;
      retry_wait t ~core ~poll (n - 1)
    end

let wait_blocking ?(poll = 200) ?(polls = 1) t ~core = retry_wait t ~core ~poll polls

let signals t = t.signals
let waits t = t.waits
let ipis t = t.ipis
let waiting_cores t = t.waiters
