(** A deliberately tiny HTTP-style request/response codec.

    Requests are single-line, [CRLF]-free, whole-packet:

    - [GET /kv/<key>]          — KV lookup
    - [PUT /kv/<key> <value>]  — KV store (value = rest of line)
    - [GET /fs/<name>]         — read a whole file from the FS backend

    Responses are [<status> <body>] with numeric status (200/404/400/500).
    Parsing and serialization are pure; the server charges cycles for
    them separately (per-byte, like real header parsing). *)

type request =
  | Kv_get of string
  | Kv_put of string * bytes
  | Fs_get of string

type response = { status : int; body : bytes }

exception Bad_request of string

let prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let after p s = String.sub s (String.length p) (String.length s - String.length p)

let parse_request b =
  let s = Bytes.to_string b in
  if prefix "GET /kv/" s then begin
    let key = after "GET /kv/" s in
    if key = "" then raise (Bad_request "empty key");
    Kv_get key
  end
  else if prefix "PUT /kv/" s then begin
    let rest = after "PUT /kv/" s in
    match String.index_opt rest ' ' with
    | None -> raise (Bad_request "PUT without value")
    | Some i ->
      let key = String.sub rest 0 i in
      if key = "" then raise (Bad_request "empty key");
      Kv_put (key, Bytes.of_string (String.sub rest (i + 1) (String.length rest - i - 1)))
  end
  else if prefix "GET /fs/" s then begin
    let name = after "GET /fs/" s in
    if name = "" then raise (Bad_request "empty path");
    Fs_get name
  end
  else raise (Bad_request (if String.length s > 32 then String.sub s 0 32 else s))

(* Only requests that parse back to themselves are serialized: the PUT
   key ends at the first space, and an empty key or path is refused by
   the parser. *)
let serialize_request r =
  (match r with
   | Kv_get "" | Kv_put ("", _) -> invalid_arg "Http.serialize_request: empty key"
   | Fs_get "" -> invalid_arg "Http.serialize_request: empty path"
   | Kv_put (key, _) when String.contains key ' ' ->
     invalid_arg "Http.serialize_request: space in PUT key"
   | Kv_get _ | Kv_put _ | Fs_get _ -> ());
  match r with
  | Kv_get key -> Bytes.of_string ("GET /kv/" ^ key)
  | Kv_put (key, value) ->
    let prefix = "PUT /kv/" ^ key ^ " " in
    let b = Bytes.create (String.length prefix + Bytes.length value) in
    Bytes.blit_string prefix 0 b 0 (String.length prefix);
    Bytes.blit value 0 b (String.length prefix) (Bytes.length value);
    b
  | Fs_get name -> Bytes.of_string ("GET /fs/" ^ name)

let serialize_response { status; body } =
  let head = string_of_int status ^ " " in
  let b = Bytes.create (String.length head + Bytes.length body) in
  Bytes.blit_string head 0 b 0 (String.length head);
  Bytes.blit body 0 b (String.length head) (Bytes.length body);
  b

let parse_response b =
  let s = Bytes.to_string b in
  match String.index_opt s ' ' with
  | None -> raise (Bad_request "malformed response")
  | Some i ->
    let status =
      match int_of_string_opt (String.sub s 0 i) with
      | Some n -> n
      | None -> raise (Bad_request "non-numeric status")
    in
    { status; body = Bytes.sub b (i + 1) (Bytes.length b - i - 1) }

let ok body = { status = 200; body }
let not_found = { status = 404; body = Bytes.empty }
let bad_request = { status = 400; body = Bytes.empty }
let server_error = { status = 500; body = Bytes.empty }
let service_unavailable = { status = 503; body = Bytes.empty }
let forbidden = { status = 403; body = Bytes.empty }

(* ---- deadline propagation ---- *)

(* A request may carry a relative deadline as a [TTL<cycles> ] prefix —
   serialized only when the client sets one, so the plain wire format
   (and every existing trace) is unchanged. The server strips the prefix
   before parsing and converts the TTL to an absolute deadline against
   the request's arrival time. *)

let with_ttl ~ttl payload =
  if ttl <= 0 then invalid_arg "Http.with_ttl";
  Bytes.cat (Bytes.of_string (Printf.sprintf "TTL%d " ttl)) payload

let split_ttl payload =
  let s = Bytes.to_string payload in
  if not (prefix "TTL" s) then (None, payload)
  else
    match String.index_opt s ' ' with
    | None -> (None, payload)
    | Some sp -> (
      match int_of_string_opt (String.sub s 3 (sp - 3)) with
      | Some ttl when ttl > 0 ->
        (Some ttl, Bytes.sub payload (sp + 1) (Bytes.length payload - sp - 1))
      | _ -> (None, payload))
