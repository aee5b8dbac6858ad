(** Per-domain allowed-entry-point table for the filtered-syscall
    isolation backend ("syscall as a privilege").

    Where the VMFUNC backend keeps the kernel out of the IPC path
    entirely and the MPK backend gates crossings in user space, the
    filtered-syscall backend routes every cross-domain call through the
    kernel — but a {e filtered} kernel: a client's SYSCALL may only land
    on an entry point that was explicitly granted to it at bind time.
    The filter is checked at trap time, before any context switch, so a
    compromised client probing for other servers' handlers is denied at
    the cheapest possible point. Revocation is a table erase: the next
    trap from that client is denied and falls back to the typed
    [Binding_revoked] error, mirroring the EPTP-slot degeneracy trick of
    the VMFUNC path. *)

type t = {
  allowed : (int * int, int) Hashtbl.t;
      (** (client pid, server id) -> granted entry VA *)
  mutable denials : int;
}

let create () = { allowed = Hashtbl.create 64; denials = 0 }

let allow t ~pid ~server ~entry = Hashtbl.replace t.allowed (pid, server) entry

let revoke t ~pid ~server = Hashtbl.remove t.allowed (pid, server)

(* The trap-time check: charged at Costs.entry_filter_check by the
   caller (the kernel entry path), counted here. *)
let check t ~pid ~server ~entry =
  match Hashtbl.find_opt t.allowed (pid, server) with
  | Some granted when granted = entry -> true
  | _ ->
    t.denials <- t.denials + 1;
    false

let size t = Hashtbl.length t.allowed

let entries t =
  Hashtbl.fold (fun (pid, server) entry acc -> (pid, server, entry) :: acc)
    t.allowed []
  |> List.sort compare

let denials t = t.denials
