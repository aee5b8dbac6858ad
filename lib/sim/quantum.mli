(** Quantum-synchronized execution of independent simulation lanes
    (shards), sequentially or across OCaml domains.

    Lanes advance privately inside a fixed quantum of simulated cycles
    and synchronize at quantum boundaries; cross-lane interaction is
    deferred to the boundary [commit]. [Seq] and [Par] are
    bit-identical by construction — see the determinism argument in the
    implementation and DESIGN.md. *)

type lane = {
  l_name : string;
  l_advance : until:int -> [ `Paused | `Done ];
      (** Advance this lane's world until its clocks reach the boundary
          ([`Paused]) or its workload completes ([`Done]). Must bind the
          lane's {!Scopes} bundle itself: under [Par] it runs on an
          arbitrary worker domain each quantum. *)
}

type engine =
  | Seq  (** advance lanes in order on the calling domain *)
  | Par of { jobs : int }
      (** advance lanes on [jobs] spawned domains (lane [i] on worker
          [i mod jobs]), joining at each boundary *)

val default_quantum : int
(** 50k simulated cycles: coarse enough to amortize the barrier, fine
    enough that boundary commits (gossip, load rebalance) stay timely. *)

val run :
  ?quantum:int ->
  engine ->
  lanes:lane list ->
  ?commit:(boundary:int -> unit) ->
  unit ->
  int
(** Drive all lanes to completion; returns the number of quanta
    executed. After each quantum's barrier, [commit ~boundary] runs
    single-threaded on the caller — the only place cross-lane state may
    be touched. *)
