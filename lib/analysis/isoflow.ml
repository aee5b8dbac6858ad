(** Isoflow — whole-machine cross-domain reachability analyzer.

    SkyBridge's security argument is ultimately a memory-reachability
    claim: a client that VMFUNCs into a server's EPTP slot must gain
    {e exactly} the mappings the binding granted — no writable aliases,
    no cross-domain W^X, no stale frames left behind by restart/rebind.
    The per-structure auditors ({!Gadget}, {!Ept_check}, {!Tramp_check})
    each judge one layer; this pass judges the {e composition}: for every
    registered domain and every EPTP slot it can reach via VMFUNC, walk
    the guest page tables {e through} that slot's EPT (the CR3-remap
    trick makes slot [k]'s view the server's address space, §4.3) and
    compute the set of physical frames reachable with R/W/X. The
    effective permission of a leaf is the conjunction of both layers:
    readable iff both map it, writable iff PT {e and} EPT allow writes,
    executable iff the PT leaf is not NX {e and} the EPT leaf has the
    execute bit.

    The result is a {e sharing graph} — edges (frame, effective address
    space, {r,w,x}) — over which the least-privilege invariants run,
    with the mesh capability closure as ground truth:

    - [flow.shared-writable] — a frame writable from ≥ 2 address spaces
      must be a registered shared buffer (a live binding's buffer
      frames). Anything else is a writable alias: a revoked binding
      whose buffers were never unmapped, a forged mapping, a kernel bug.
    - [flow.wx-cross] — no frame may be writable in space A and
      executable in space B (A ≠ B): cross-domain code injection even
      when each space is individually W^X.
    - [flow.tramp-identical] — in {e every} view the trampoline VA must
      translate to the one shared trampoline frame, execute-only, with
      byte-identical content: no per-domain divergence of the only
      VMFUNC-bearing page (§4.4).
    - [flow.closure] — every cross-domain view (an EPTP slot whose
      CR3-remap lands in another process's address space) must be
      covered by the [granted] ground truth — the mesh capability
      dependency closure when a mesh is running, the binding registry
      otherwise. EPT-level reachability ⊆ authority.
    - [flow.slot-escape] — no VMFUNC-reachable EPTP slot (per-domain
      installed lists and the live per-core VMCS lists) may point
      outside the EPT roots the domain's bindings entitle it to. In
      particular a registered process must never see the base EPT's
      identity RWX view in a switchable slot.
    - [flow.pkru-escape] — under the MPK backend, a domain's resting
      PKRU view must grant write access to at most its own protection
      key and the shared-buffer key; another domain's key writable at
      rest is the MPK analogue of a leaked EPTP slot.

    A {e differential mode} ({!graph} / {!diff} / {!stale}) snapshots
    the sharing graph before and after a scenario: crash → restart →
    rebind must leave no stale writable edge behind — the chaos/mesh
    gate. *)

open Sky_mmu

type space = {
  s_pid : int;
  s_name : string;
  s_cr3 : int;  (** PT root frame (host-physical = identity GPA) *)
}

type domain = {
  d_pid : int;
  d_name : string;
  d_cr3 : int;  (** the domain's own CR3 (a GPA under the base EPT) *)
  d_slots : (int * int) list;
      (** (EPTP slot index, EPT root PA): the views reachable by VMFUNC
          when this domain runs — slot 0 its own EPT, then one per
          installed binding *)
  d_allowed : int list;
      (** every EPT root a live binding entitles this domain to (its own
          EPT plus each binding EPT, installed or evicted) *)
}

type region = {
  r_name : string;
  r_pa : int;
  r_len : int;  (** bytes; [r_pa, r_pa + r_len) is legitimately shared *)
}

(* The MPK backend's analogue of the EPTP-slot picture: each domain owns
   a protection key and a resting PKRU view. The escape question becomes
   "which keys does a resting view grant?" rather than "which EPT roots
   can a slot reach?". *)
type mpk_domain = {
  m_pid : int;
  m_name : string;
  m_key : int;  (** the protection key tagging this domain's pages *)
  m_view : int;  (** the resting PKRU installed when this domain runs *)
}

type mpk = {
  m_domains : mpk_domain list;
  m_shared_key : int;  (** the key tagging registered shared buffers *)
}

type input = {
  mem : Sky_mem.Phys_mem.t;
  domains : domain list;
  spaces : space list;  (** CR3 → owner, for attributing effective views *)
  shared : region list;  (** the authorized cross-domain writable frames *)
  granted : (int * int) list;
      (** authorized (client pid, effective-space pid) pairs — the
          capability closure ground truth *)
  cores : (string * int option * int list) list;
      (** (core name, running registered pid, non-zero live EPTP slots) *)
  base_root : int;  (** the Rootkernel's base EPT root *)
  trampoline_va : int;
  trampoline_gpa : int;
  trampoline_bytes : bytes;  (** live content of the shared frame *)
  mpk : mpk option;
      (** present when the machine runs the MPK backend — enables
          [flow.pkru-escape] *)
}

(* ---- the composed PT∘EPT walker ---- *)

let ept_translate ~mem ~ept gpa =
  match Ept.walk ~mem ~root_pa:ept ~gpa with
  | Ok { Ept.hpa; _ } -> Some hpa
  | Error (Ept.Ept_not_present _) -> None

let ept_translate_flags ~mem ~ept gpa =
  match Ept.walk ~mem ~root_pa:ept ~gpa with
  | Ok { Ept.hpa; flags; _ } -> Some (hpa, flags)
  | Error (Ept.Ept_not_present _) -> None

type eff = { f_r : bool; f_w : bool; f_x : bool }

let effective (pt : Pte.flags) (ept : Pte.flags) =
  {
    f_r = pt.Pte.present && ept.Pte.present;
    f_w = pt.Pte.writable && ept.Pte.writable;
    (* EPT reading of the bits: bit 2 ("user") = execute *)
    f_x = (not pt.Pte.nx) && ept.Pte.user;
  }

(* Visit every 4 KiB leaf of the guest page table rooted at [cr3_hpa],
   reading every table page and translating every stored pointer through
   [ept] — the walk the hardware performs in non-root mode. EPT holes
   simply truncate reachability (they fault, they do not map). *)
let iter_view ~mem ~ept ~cr3_hpa f =
  let rec go table_hpa level va_base =
    for e = 0 to 511 do
      let v = Sky_mem.Phys_mem.read_u64 mem (table_hpa + (e * 8)) in
      if Pte.is_present v then begin
        let pa, flags = Pte.decode v in
        let va = va_base lor (e lsl (12 + (9 * level))) in
        if level = 0 then (
          match ept_translate_flags ~mem ~ept pa with
          | None -> ()
          | Some (hpa, eflags) ->
            f ~va ~gpa:pa ~hpa ~eff:(effective flags eflags))
        else
          match ept_translate ~mem ~ept pa with
          | None -> ()
          | Some child -> go child (level - 1) va
      end
    done
  in
  go cr3_hpa 3 0

(* Translate a single VA through the composed walk. *)
let walk_view ~mem ~ept ~cr3_hpa va =
  let rec go table_hpa level =
    let e = Page_table.va_index ~level va in
    let v = Sky_mem.Phys_mem.read_u64 mem (table_hpa + (e * 8)) in
    if not (Pte.is_present v) then None
    else
      let pa, flags = Pte.decode v in
      if level = 0 then
        match ept_translate_flags ~mem ~ept pa with
        | None -> None
        | Some (hpa, eflags) -> Some (hpa, effective flags eflags)
      else
        match ept_translate ~mem ~ept pa with
        | None -> None
        | Some child -> go child (level - 1)
  in
  go cr3_hpa 3

(* The effective CR3 of a view: the domain's CR3 GPA pushed through the
   slot's EPT. The identity base EPT leaves it in place; a binding EPT's
   remap turns it into the server's CR3 — the whole §4.3 trick. *)
let effective_cr3 ~mem ~ept cr3_gpa = ept_translate ~mem ~ept cr3_gpa

let space_of inp cr3 =
  List.find_opt (fun s -> s.s_cr3 = cr3) inp.spaces

let space_pid inp cr3 =
  match space_of inp cr3 with Some s -> s.s_pid | None -> -1

let space_name inp pid =
  match List.find_opt (fun s -> s.s_pid = pid) inp.spaces with
  | Some s -> s.s_name
  | None -> Printf.sprintf "pid%d" pid

(* ---- the sharing graph ---- *)

type edge = {
  e_frame : int;  (** host-physical frame base *)
  e_space : int;  (** pid of the effective address space *)
  e_r : bool;
  e_w : bool;
  e_x : bool;
}

type graph = edge list  (* canonical: sorted by (frame, space) *)

(* Distinct (EPT root, effective cr3, effective space) views of a domain
   — dummy slots repeat the own root, so dedupe before walking. *)
let domain_views inp d =
  List.filter_map
    (fun (_, root) ->
      match effective_cr3 ~mem:inp.mem ~ept:root d.d_cr3 with
      | None -> None
      | Some cr3 -> Some (root, cr3, space_pid inp cr3))
    d.d_slots
  |> List.sort_uniq compare

let graph inp =
  let acc = Hashtbl.create 1024 in
  List.iter
    (fun d ->
      List.iter
        (fun (root, cr3, spid) ->
          iter_view ~mem:inp.mem ~ept:root ~cr3_hpa:cr3
            (fun ~va:_ ~gpa:_ ~hpa ~eff ->
              let key = (hpa land lnot 0xfff, spid) in
              let r, w, x =
                match Hashtbl.find_opt acc key with
                | Some rwx -> rwx
                | None -> (false, false, false)
              in
              Hashtbl.replace acc key
                (r || eff.f_r, w || eff.f_w, x || eff.f_x)))
        (domain_views inp d))
    inp.domains;
  Hashtbl.fold
    (fun (frame, spid) (r, w, x) l ->
      { e_frame = frame; e_space = spid; e_r = r; e_w = w; e_x = x } :: l)
    acc []
  |> List.sort compare

let in_shared inp frame =
  List.exists (fun r -> frame >= r.r_pa && frame < r.r_pa + r.r_len) inp.shared

(* ---- the five invariants ---- *)

let check_shared_writable inp g vs =
  let writers = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.e_w then
        let l = Option.value (Hashtbl.find_opt writers e.e_frame) ~default:[] in
        Hashtbl.replace writers e.e_frame (e.e_space :: l))
    g;
  Hashtbl.iter
    (fun frame spaces ->
      let spaces = List.sort_uniq compare spaces in
      if List.length spaces >= 2 && not (in_shared inp frame) then
        vs :=
          Report.v ~addr:frame ~invariant:"flow.shared-writable" ~image:"frame"
            (Printf.sprintf
               "frame writable from %d address spaces (%s) but not a \
                registered shared buffer"
               (List.length spaces)
               (String.concat ", " (List.map (space_name inp) spaces)))
          :: !vs)
    writers

let check_wx_cross inp g vs =
  let by_frame = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let w, x =
        Option.value (Hashtbl.find_opt by_frame e.e_frame) ~default:([], [])
      in
      Hashtbl.replace by_frame e.e_frame
        ((if e.e_w then e.e_space :: w else w),
         if e.e_x then e.e_space :: x else x))
    g;
  Hashtbl.iter
    (fun frame (w, x) ->
      List.iter
        (fun ws ->
          List.iter
            (fun xs ->
              if ws <> xs then
                vs :=
                  Report.v ~addr:frame ~invariant:"flow.wx-cross"
                    ~image:"frame"
                    (Printf.sprintf
                       "frame writable in %s and executable in %s"
                       (space_name inp ws) (space_name inp xs))
                  :: !vs)
            (List.sort_uniq compare x))
        (List.sort_uniq compare w))
    by_frame

let check_trampoline inp vs =
  List.iter
    (fun d ->
      List.iter
        (fun (root, cr3, spid) ->
          let view =
            Printf.sprintf "%s/view:%s" d.d_name (space_name inp spid)
          in
          let fail detail =
            vs :=
              Report.v ~addr:inp.trampoline_va
                ~invariant:"flow.tramp-identical" ~image:view detail
              :: !vs
          in
          match walk_view ~mem:inp.mem ~ept:root ~cr3_hpa:cr3 inp.trampoline_va
          with
          | None -> fail "trampoline va unreachable in this view"
          | Some (hpa, eff) ->
            if not eff.f_x then fail "trampoline not executable in this view";
            if eff.f_w then fail "trampoline writable in this view";
            if hpa land lnot 0xfff <> inp.trampoline_gpa then
              fail
                (Printf.sprintf
                   "trampoline va resolves to frame %#x, not the shared \
                    frame %#x"
                   (hpa land lnot 0xfff) inp.trampoline_gpa)
            else begin
              let n = Bytes.length inp.trampoline_bytes in
              let live = Sky_mem.Phys_mem.read_bytes inp.mem hpa n in
              if not (Bytes.equal live inp.trampoline_bytes) then
                fail "trampoline content diverges in this view"
            end)
        (domain_views inp d))
    inp.domains

let check_closure inp vs =
  List.iter
    (fun d ->
      List.iter
        (fun (_, cr3, spid) ->
          if spid = -1 then
            vs :=
              Report.v ~addr:cr3 ~invariant:"flow.closure" ~image:d.d_name
                (Printf.sprintf
                   "EPTP slot lands in an unattributable address space \
                    (cr3 %#x)"
                   cr3)
              :: !vs
          else if spid <> d.d_pid && not (List.mem (d.d_pid, spid) inp.granted)
          then
            vs :=
              Report.v ~addr:cr3 ~invariant:"flow.closure" ~image:d.d_name
                (Printf.sprintf
                   "reaches %s's address space without a covering grant"
                   (space_name inp spid))
              :: !vs)
        (domain_views inp d))
    inp.domains

let check_slot_escape inp vs =
  let bad image slot root detail =
    vs :=
      Report.v ~addr:root ~invariant:"flow.slot-escape" ~image
        (Printf.sprintf "slot %d: %s" slot detail)
      :: !vs
  in
  List.iter
    (fun d ->
      List.iter
        (fun (slot, root) ->
          if not (List.mem root d.d_allowed) then
            bad d.d_name slot root
              "EPTP slot outside the domain's registered bindings")
        d.d_slots)
    inp.domains;
  List.iter
    (fun (core, pid, slots) ->
      let allowed =
        match pid with
        | Some p -> (
          match List.find_opt (fun d -> d.d_pid = p) inp.domains with
          | Some d -> d.d_allowed
          | None -> [ inp.base_root ])
        | None -> [ inp.base_root ]
      in
      List.iteri
        (fun slot root ->
          if root <> 0 && not (List.mem root allowed) then
            bad core slot root
              "live VMCS EPTP slot outside the running domain's bindings")
        slots)
    inp.cores

(* The MPK analogue of slot-escape: a domain's {e resting} PKRU view may
   grant write access to exactly its own key and the shared-buffer key.
   Write access to another domain's key in the resting view is an escape
   — the elevated server view only ever lives inside the call gate,
   between the paired WRPKRUs, and never rests. Domains sharing a
   (virtualized) key are indistinguishable at the MPK level and are
   skipped; their separation rests on the page-table invariants above. *)
let check_pkru_escape inp vs =
  match inp.mpk with
  | None -> ()
  | Some mpk ->
    List.iter
      (fun d ->
        List.iter
          (fun o ->
            if o.m_pid <> d.m_pid && o.m_key <> d.m_key
               && o.m_key <> mpk.m_shared_key
               && Pkru.allows_write ~pkru:d.m_view ~key:o.m_key
            then
              vs :=
                Report.v ~addr:d.m_view ~invariant:"flow.pkru-escape"
                  ~image:d.m_name
                  (Printf.sprintf
                     "resting PKRU view grants write to %s's key %d"
                     o.m_name o.m_key)
                :: !vs)
          mpk.m_domains)
      mpk.m_domains

let check inp =
  let vs = ref [] in
  let g = graph inp in
  check_shared_writable inp g vs;
  check_wx_cross inp g vs;
  check_trampoline inp vs;
  check_closure inp vs;
  check_slot_escape inp vs;
  check_pkru_escape inp vs;
  Report.sort !vs

(* ---- differential mode ---- *)

type delta = { added : edge list; removed : edge list }

(* Both graphs are canonical (sorted, deduped): merge-walk. *)
let diff ~before ~after =
  let rec go b a added removed =
    match (b, a) with
    | [], [] -> { added = List.rev added; removed = List.rev removed }
    | [], x :: a -> go [] a (x :: added) removed
    | x :: b, [] -> go b [] added (x :: removed)
    | x :: b', y :: a' ->
      let c = compare x y in
      if c = 0 then go b' a' added removed
      else if c < 0 then go b' a added (x :: removed)
      else go b a' (y :: added) removed
  in
  go before after [] []

(* Stale mappings: writable edges the scenario created that no live
   shared region justifies — what crash → restart → rebind must not
   leave behind. *)
let stale ~shared d =
  let covered frame =
    List.exists (fun r -> frame >= r.r_pa && frame < r.r_pa + r.r_len) shared
  in
  List.filter (fun e -> e.e_w && not (covered e.e_frame)) d.added
