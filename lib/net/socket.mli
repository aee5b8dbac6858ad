(** Minimal socket/accept layer over the {!Nic}: per-flow connection
    state, SYN-carries-first-request accept (TCP fast open), in-order
    delivery of whole-request packets, and sequenced replies. *)

type conn = {
  flow : int;
  queue : int;
  mutable rx_seq : int;
  mutable tx_seq : int;
  mutable requests : int;  (** requests answered on this connection *)
}

type t

type event =
  | Accepted of conn  (** new flow; its first request follows *)
  | Request of conn * bytes

exception Out_of_order of { flow : int; got : int; expected : int }

val create : Sky_ukernel.Kernel.t -> Nic.t -> t

val service : t -> queue:int -> core:int -> event option
(** Demultiplex the next RX packet of [queue] (charging flow-table and,
    for new flows, accept costs on [core]); [None] when the ring is
    empty. A SYN packet yields [Accepted] now and its embedded request on
    the next call. *)

val reply : t -> conn -> core:int -> bytes -> unit
(** Send one sequenced response packet back down the connection. *)
