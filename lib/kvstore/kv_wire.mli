(** The KV store's wire format, shared by every client and server of
    {!Kv_server}: the Figure-2 pipeline and the web/mesh backends.

    Requests (u16 fields little-endian, byte 1 is padding):
    - ['I'] [0] [klen:u16] key value — insert; the value runs to the end;
    - ['Q'] [0] [klen:u16] key — query;
    - ['B'] [0] [count:u16] then per op ['I'][klen:u16][vlen:u16] key
      value or ['Q'][klen:u16] key — a whole batch in one crossing.

    A single insert is answered ["ok"], a query with the value or the
    empty reply (a miss). A batch is answered [count:u16] then per op, in
    order, ['s'] (stored), ['f'] (not stored), ['m'] (miss) or
    ['v'][len:u16] bytes.

    Encoders raise [Invalid_argument] on a key, value or op count that
    does not fit its u16 field. Decoders are total: bytes that are not
    exactly one well-formed message decode to [None]. *)

type op = Insert of bytes * bytes  (** key, value *) | Query of bytes  (** key *)
type request = Single of op | Batch of op list
type reply = Stored of bool | Value of bytes option

val max_field : int
(** 65,535: the largest key, value or op count the format carries. *)

val encode : request -> bytes
val decode : bytes -> request option

val encode_replies : reply list -> bytes
val decode_replies : bytes -> reply list option

val serve : Kv_server.t -> Sky_sim.Cpu.t -> bytes -> bytes
(** The server side: decode one request and run it against the store.
    Never raises. A malformed request, or one whose insert exceeds
    {!Kv_server.max_kv}, gets the empty reply and touches nothing; a
    batch is checked whole before any op runs. An insert into a full
    table answers the empty reply (single) or ['f'] (batch). *)
