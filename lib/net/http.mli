(** Tiny single-line HTTP-style codec: [GET /kv/<key>],
    [PUT /kv/<key> <value>], [GET /fs/<name>]; responses are
    [<status> <body>]. Pure functions — the server charges parse cycles
    itself. *)

type request =
  | Kv_get of string
  | Kv_put of string * bytes
  | Fs_get of string

type response = { status : int; body : bytes }

exception Bad_request of string

val parse_request : bytes -> request

val serialize_request : request -> bytes
(** [parse_request (serialize_request r) = r] for every [r] it accepts.
    @raise Invalid_argument on an empty key or path, or a PUT key
    containing a space (it would end the key early). *)

val parse_response : bytes -> response
val serialize_response : response -> bytes

val ok : bytes -> response
val not_found : response
val bad_request : response
val server_error : response

val service_unavailable : response
(** 503 — the typed load-shed rejection (queue full, deadline blown). *)

val forbidden : response
(** 403 — the request's capability was denied by every receiver. *)

val with_ttl : ttl:int -> bytes -> bytes
(** Prefix a serialized request with a relative deadline ([TTL<cycles> ]).
    Requests without the prefix are wire-identical to the old format. *)

val split_ttl : bytes -> int option * bytes
(** Strip the TTL prefix, if any, returning the relative deadline and
    the bare request payload. *)
