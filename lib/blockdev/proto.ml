(** Wire format for block-device requests (the IPC message bytes). *)

type request = Read of int | Write of int * bytes

exception Bad_message of string

let encode_request = function
  | Read blockno ->
    let b = Bytes.create 5 in
    Bytes.set b 0 '\001';
    Bytes.set_int32_le b 1 (Int32.of_int blockno);
    b
  | Write (blockno, data) ->
    if Bytes.length data <> Ramdisk.block_size then
      invalid_arg "Proto.encode_request: bad block length";
    let b = Bytes.create (5 + Ramdisk.block_size) in
    Bytes.set b 0 '\002';
    Bytes.set_int32_le b 1 (Int32.of_int blockno);
    Bytes.blit data 0 b 5 Ramdisk.block_size;
    b

type op = Read_op | Write_op

(* A Write request's block sits at this offset of the message. *)
let write_payload_off = 5

(* Opcode and block number, checked against the message length; a
   Write's block is left in place at [write_payload_off]. *)
let decode_header b =
  if Bytes.length b < 5 then raise (Bad_message "short request");
  let blockno = Int32.to_int (Bytes.get_int32_le b 1) in
  match Bytes.get b 0 with
  | '\001' -> (Read_op, blockno)
  | '\002' ->
    if Bytes.length b < write_payload_off + Ramdisk.block_size then
      raise (Bad_message "short write");
    (Write_op, blockno)
  | c -> raise (Bad_message (Printf.sprintf "bad opcode %d" (Char.code c)))

let decode_request b =
  match decode_header b with
  | Read_op, blockno -> Read blockno
  | Write_op, blockno ->
    Write (blockno, Bytes.sub b write_payload_off Ramdisk.block_size)

let encode_read_reply data =
  if Bytes.length data <> Ramdisk.block_size then
    invalid_arg "Proto.encode_read_reply";
  data

let write_ack = Bytes.of_string "ok"

(* Failure replies are a tag byte and a short reason, so neither a read
   reply (exactly one block) nor [write_ack] can be mistaken for one. *)
let error_tag = '\255'

let error_reply reason = Bytes.of_string (String.make 1 error_tag ^ reason)

(* Why a reply is not what the request called for. *)
let reply_failure reply =
  let n = Bytes.length reply in
  if n > 0 && n < Ramdisk.block_size && Bytes.get reply 0 = error_tag then
    Bytes.sub_string reply 1 (n - 1)
  else Printf.sprintf "malformed reply (%d bytes)" n
