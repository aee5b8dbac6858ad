(** Transport-independent block-device interface.

    The file system talks to whatever this record wraps: the raw RAM disk
    in the same address space (Baseline), an IPC server (the paper's
    evaluated configuration), a SkyBridge server, or a fault-injecting
    wrapper used by the crash-recovery tests. *)

type t = {
  read : core:int -> int -> bytes;
  write : core:int -> int -> bytes -> unit;
  name : string;
}

exception Crash of { writes_completed : int }

exception Disk_error of string
(** The block server refused a request or sent back a malformed reply. *)

(* Same-process access: device work charged on the calling core. *)
let direct kernel rd =
  {
    name = "direct";
    read = (fun ~core blockno -> Ramdisk.read rd (Sky_ukernel.Kernel.cpu kernel ~core) blockno);
    write =
      (fun ~core blockno data ->
        Ramdisk.write rd (Sky_ukernel.Kernel.cpu kernel ~core) blockno data);
  }

(* The IPC server side: decode, execute against the RAM disk on the
   serving core. A Write's block goes from the request message straight
   into the disk. Malformed or out-of-range requests get a failure reply
   and touch nothing. *)
let handler kernel rd : Sky_kernels.Ipc.handler =
 fun ~core msg ->
  let cpu = Sky_ukernel.Kernel.cpu kernel ~core in
  match Proto.decode_header msg with
  | exception Proto.Bad_message m -> Proto.error_reply m
  | _, blockno when not (Ramdisk.in_range rd blockno) ->
    Proto.error_reply (Printf.sprintf "block %d out of range" blockno)
  | Proto.Read_op, blockno -> Proto.encode_read_reply (Ramdisk.read rd cpu blockno)
  | Proto.Write_op, blockno ->
    Ramdisk.write_from rd cpu blockno msg ~off:Proto.write_payload_off;
    Proto.write_ack

(* Client side over any request/reply transport: a read must come back
   as exactly one block and a write as the ack; anything else is a
   [Disk_error]. *)
let over_call ~name call =
  {
    name;
    read =
      (fun ~core blockno ->
        let reply = call ~core (Proto.encode_request (Proto.Read blockno)) in
        if Bytes.length reply <> Ramdisk.block_size then
          raise (Disk_error (Proto.reply_failure reply));
        reply);
    write =
      (fun ~core blockno data ->
        let reply = call ~core (Proto.encode_request (Proto.Write (blockno, data))) in
        if not (Bytes.equal reply Proto.write_ack) then
          raise (Disk_error (Proto.reply_failure reply)));
  }

let over_ipc ipc ~client endpoint =
  over_call ~name:"ipc" (fun ~core msg ->
      Sky_kernels.Ipc.call ipc ~core ~client endpoint msg)

let over_skybridge sb ~client ~server_id =
  over_call ~name:"skybridge" (fun ~core msg ->
      Sky_core.Subkernel.direct_server_call sb ~core ~client ~server_id msg)

(* Crash injection: the machine "loses power" after [fail_after] more
   block writes — mid-transaction crashes for the log-recovery tests. *)
let faulty inner ~fail_after =
  let completed = ref 0 in
  {
    name = "faulty:" ^ inner.name;
    read = inner.read;
    write =
      (fun ~core blockno data ->
        if !fail_after <= 0 then raise (Crash { writes_completed = !completed })
        else begin
          decr fail_after;
          incr completed;
          inner.write ~core blockno data
        end);
  }
