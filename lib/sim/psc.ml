(** Paging-structure caches and the EPT walk cache.

    Skylake-class hardware keeps, besides the leaf TLBs, small caches of
    upper-level paging-structure entries (PML4E / PDPTE / PDE) so a TLB
    miss resumes the page walk at the deepest cached level, and a nested
    walk cache so the EPT translations of guest table pages skip the EPT
    walk. All four are the same structure: a set-associative ASID-tagged
    map from an integer key to a non-negative integer payload. We reuse
    {!Tlb}'s storage (payload in the slot's [ppn]) so they inherit its
    LRU policy and its O(1) generation/epoch-based invalidation for
    free. *)

type t = Tlb.t

let create ~entries ~ways = Tlb.create ~entries ~ways

let lookup t ~asid ~key =
  let i = Tlb.lookup t ~asid ~vpn:key in
  if i >= 0 then Tlb.ppn t i else -1

let insert t ~asid ~key value =
  Tlb.insert t ~asid ~vpn:key ~ppn:value ~writable:false ~user:false

let flush_all = Tlb.flush_all
let flush_key t ~key = Tlb.flush_vpn_all_asids t ~vpn:key
let hits = Tlb.hits
let misses = Tlb.misses
let reset_stats = Tlb.reset_stats
