(** RAM-disk block device (§6.5: "We use a RAM disk device to work as the
    block device and the file system communicates with the device with
    IPC").

    Blocks live in simulated physical memory, so device transfers pull
    real cache lines. Block size is 1024 bytes (xv6's BSIZE). *)

let block_size = 1024

type t = {
  mem : Sky_mem.Phys_mem.t;
  base_pa : int;
  nblocks : int;
  mutable reads : int;
  mutable writes : int;
}

let create machine ~nblocks =
  let mem = machine.Sky_sim.Machine.mem in
  let frames = (nblocks * block_size + 4095) / 4096 in
  let base_pa =
    Sky_mem.Frame_alloc.alloc_frames machine.Sky_sim.Machine.alloc ~count:frames
  in
  { mem; base_pa; nblocks; reads = 0; writes = 0 }

let in_range t blockno = blockno >= 0 && blockno < t.nblocks

let check t blockno =
  if not (in_range t blockno) then
    invalid_arg (Printf.sprintf "Ramdisk: block %d out of range" blockno)

(* Per-block device-side work: the block's lines stream through the
   serving core's cache hierarchy. *)
let touch cpu t blockno =
  Sky_sim.Memsys.touch_range cpu Sky_sim.Memsys.Data
    ~pa:(t.base_pa + (blockno * block_size))
    ~len:block_size

let read t cpu blockno =
  check t blockno;
  t.reads <- t.reads + 1;
  touch cpu t blockno;
  Sky_mem.Phys_mem.read_bytes t.mem (t.base_pa + (blockno * block_size)) block_size

let write_from t cpu blockno src ~off =
  check t blockno;
  if off < 0 || off > Bytes.length src - block_size then
    invalid_arg "Ramdisk.write_from: short payload";
  t.writes <- t.writes + 1;
  touch cpu t blockno;
  Sky_mem.Phys_mem.blit_from t.mem ~src ~src_off:off
    ~dst_pa:(t.base_pa + (blockno * block_size))
    ~len:block_size

let write t cpu blockno data =
  if Bytes.length data <> block_size then
    invalid_arg "Ramdisk.write: bad block length";
  write_from t cpu blockno data ~off:0

let nblocks t = t.nblocks
let reads t = t.reads
let writes t = t.writes
