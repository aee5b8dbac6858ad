(** Minimal socket/accept layer over the NIC.

    One listener per server; per-queue connection tables demultiplex RX
    packets by flow id. A flow's first packet ([seq = 0]) doubles as SYN
    and first request (TCP-fast-open style): [service] surfaces it as
    [`Accept], charging the three-way-handshake bookkeeping, then the
    request itself. Packets carry whole requests (the load generator
    never fragments), so there is no reassembly — but ordering is
    enforced: a flow's packets are consumed in sequence order. *)

open Sky_ukernel

let accept_cost = 600 (* socket alloc + handshake bookkeeping *)
let demux_cost = 90 (* flow-table lookup per packet *)

type conn = {
  flow : int;
  queue : int;
  mutable rx_seq : int;  (** next expected request sequence *)
  mutable tx_seq : int;  (** next response sequence *)
  mutable requests : int;
}

type t = {
  kernel : Kernel.t;
  nic : Nic.t;
  conns : (int, conn) Hashtbl.t;  (** flow id -> connection *)
  staged : (int, conn * bytes) Hashtbl.t;
      (** per-queue request embedded in a just-accepted SYN *)
}

type event =
  | Accepted of conn
  | Request of conn * bytes

exception Out_of_order of { flow : int; got : int; expected : int }

let create kernel nic =
  { kernel; nic; conns = Hashtbl.create 64; staged = Hashtbl.create 8 }

(* Pop the next RX packet of [queue] and demultiplex it. The [Accepted]
   event precedes the embedded first request: callers get two events for
   a SYN-carrying packet, so the request half is staged per queue. *)
let service t ~queue ~core =
  match Hashtbl.find_opt t.staged queue with
  | Some (c, payload) ->
    Hashtbl.remove t.staged queue;
    Some (Request (c, payload))
  | None -> (
    match Nic.rx t.nic ~queue ~core with
    | None -> None
    | Some pkt ->
      Kernel.user_compute t.kernel ~core ~cycles:demux_cost;
      (match Hashtbl.find_opt t.conns pkt.Nic.flow with
      | None ->
        if pkt.Nic.seq <> 0 then
          raise (Out_of_order { flow = pkt.Nic.flow; got = pkt.Nic.seq; expected = 0 });
        let c = { flow = pkt.Nic.flow; queue; rx_seq = 1; tx_seq = 0; requests = 0 } in
        Hashtbl.add t.conns pkt.Nic.flow c;
        Kernel.user_compute t.kernel ~core ~cycles:accept_cost;
        (* The SYN carries the first request: deliver it on the next
           service pass. *)
        if Bytes.length pkt.Nic.payload > 0 then
          Hashtbl.replace t.staged queue (c, pkt.Nic.payload);
        Some (Accepted c)
      | Some c ->
        if pkt.Nic.seq <> c.rx_seq then
          raise (Out_of_order { flow = pkt.Nic.flow; got = pkt.Nic.seq; expected = c.rx_seq });
        c.rx_seq <- c.rx_seq + 1;
        Some (Request (c, pkt.Nic.payload))))

let reply t c ~core payload =
  c.requests <- c.requests + 1;
  let seq = c.tx_seq in
  c.tx_seq <- seq + 1;
  Nic.tx t.nic ~queue:c.queue ~core ~flow:c.flow ~seq payload
