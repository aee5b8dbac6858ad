type op = Insert of bytes * bytes | Query of bytes
type request = Single of op | Batch of op list
type reply = Stored of bool | Value of bytes option

let max_field = 0xffff

let check what n =
  if n > max_field then
    invalid_arg (Printf.sprintf "Kv_wire: %s of %d exceeds %d" what n max_field)

(* ---- encoding ---- *)

let op_size = function
  | Insert (k, v) ->
    check "key" (Bytes.length k);
    check "value" (Bytes.length v);
    5 + Bytes.length k + Bytes.length v
  | Query k ->
    check "key" (Bytes.length k);
    3 + Bytes.length k

(* Header: opcode, a zero pad byte, one u16. *)
let header c n size =
  let b = Bytes.create size in
  Bytes.set b 0 c;
  Bytes.set b 1 '\000';
  Bytes.set_uint16_le b 2 n;
  b

let put_op b off = function
  | Insert (k, v) ->
    let kl = Bytes.length k and vl = Bytes.length v in
    Bytes.set b off 'I';
    Bytes.set_uint16_le b (off + 1) kl;
    Bytes.set_uint16_le b (off + 3) vl;
    Bytes.blit k 0 b (off + 5) kl;
    Bytes.blit v 0 b (off + 5 + kl) vl;
    off + 5 + kl + vl
  | Query k ->
    let kl = Bytes.length k in
    Bytes.set b off 'Q';
    Bytes.set_uint16_le b (off + 1) kl;
    Bytes.blit k 0 b (off + 3) kl;
    off + 3 + kl

(* A single op is its batch form with the header's pad byte in place of
   the per-op opcode and, for an insert, no value length. *)
let encode = function
  | Single (Insert (k, v) as op) ->
    let b = header 'I' (Bytes.length k) (op_size op - 1) in
    Bytes.blit k 0 b 4 (Bytes.length k);
    Bytes.blit v 0 b (4 + Bytes.length k) (Bytes.length v);
    b
  | Single (Query k as op) ->
    let b = header 'Q' (Bytes.length k) (op_size op + 1) in
    Bytes.blit k 0 b 4 (Bytes.length k);
    b
  | Batch ops ->
    let n = List.length ops in
    check "op count" n;
    let b = header 'B' n (List.fold_left (fun a op -> a + op_size op) 4 ops) in
    ignore (List.fold_left (put_op b) 4 ops);
    b

let reply_size = function
  | Stored _ | Value None -> 1
  | Value (Some v) ->
    check "value" (Bytes.length v);
    3 + Bytes.length v

let encode_replies rs =
  let n = List.length rs in
  check "reply count" n;
  let b = Bytes.create (List.fold_left (fun a r -> a + reply_size r) 2 rs) in
  Bytes.set_uint16_le b 0 n;
  ignore
    (List.fold_left
       (fun off r ->
         match r with
         | Stored ok ->
           Bytes.set b off (if ok then 's' else 'f');
           off + 1
         | Value None ->
           Bytes.set b off 'm';
           off + 1
         | Value (Some v) ->
           Bytes.set b off 'v';
           Bytes.set_uint16_le b (off + 1) (Bytes.length v);
           Bytes.blit v 0 b (off + 3) (Bytes.length v);
           off + 3 + Bytes.length v)
       2 rs);
  b

(* ---- decoding: every read is bounds-checked, so no input raises ---- *)

exception Malformed

let byte b off = if off < Bytes.length b then Bytes.get b off else raise Malformed

let u16 b off =
  if off + 2 <= Bytes.length b then Bytes.get_uint16_le b off else raise Malformed

let sub b off len =
  if off + len <= Bytes.length b then Bytes.sub b off len else raise Malformed

(* [count] items read by [item], which returns the item and the next
   offset; the last item must end exactly at the end of [b]. *)
let items item b off count =
  let rec go off n acc =
    if n = 0 then if off = Bytes.length b then List.rev acc else raise Malformed
    else
      let x, off = item b off in
      go off (n - 1) (x :: acc)
  in
  go off count []

let batch_op b off =
  match byte b off with
  | 'I' ->
    let kl = u16 b (off + 1) and vl = u16 b (off + 3) in
    (Insert (sub b (off + 5) kl, sub b (off + 5 + kl) vl), off + 5 + kl + vl)
  | 'Q' ->
    let kl = u16 b (off + 1) in
    (Query (sub b (off + 3) kl), off + 3 + kl)
  | _ -> raise Malformed

let parse_request b =
  let len = Bytes.length b in
  let n = u16 b 2 in
  match byte b 0 with
  | 'I' ->
    let key = sub b 4 n in
    Single (Insert (key, Bytes.sub b (4 + n) (len - 4 - n)))
  | 'Q' -> if 4 + n = len then Single (Query (Bytes.sub b 4 n)) else raise Malformed
  | 'B' -> Batch (items batch_op b 4 n)
  | _ -> raise Malformed

let reply b off =
  match byte b off with
  | 's' -> (Stored true, off + 1)
  | 'f' -> (Stored false, off + 1)
  | 'm' -> (Value None, off + 1)
  | 'v' ->
    let l = u16 b (off + 1) in
    (Value (Some (sub b (off + 3) l)), off + 3 + l)
  | _ -> raise Malformed

let total f b = match f b with x -> Some x | exception Malformed -> None
let decode = total parse_request
let decode_replies = total (fun b -> items reply b 2 (u16 b 0))

(* ---- the server ---- *)

let fits = function
  | Insert (k, v) -> Bytes.length k <= Kv_server.max_kv && Bytes.length v <= Kv_server.max_kv
  | Query _ -> true

let run kv cpu = function
  | Insert (key, value) -> (
    match Kv_server.insert kv cpu ~key ~value with
    | () -> Stored true
    | exception Kv_server.Table_full -> Stored false)
  | Query key -> Value (Kv_server.query kv cpu ~key)

let serve kv cpu msg =
  match decode msg with
  | Some (Single op) when fits op -> (
    match run kv cpu op with
    | Stored true -> Bytes.of_string "ok"
    | Stored false | Value None -> Bytes.empty
    | Value (Some v) -> v)
  | Some (Batch ops) when List.for_all fits ops ->
    (* One crossing, many operations: the store pays per-op cache
       footprint as usual, but the SkyBridge/IPC transit is amortized. *)
    encode_replies (List.map (run kv cpu) ops)
  | Some _ | None -> Bytes.empty
