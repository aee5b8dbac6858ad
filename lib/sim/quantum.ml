(** Quantum-synchronized execution of independent simulation lanes.

    A {e lane} is a resumable run loop over one shard's private world
    (its own machine, tracer, fault engine — see {!Scopes}): told
    [advance ~until:b], it runs its virtual-time interleave until every
    core's clock reaches the boundary [b], then parks. Because lanes
    share no mutable state below the boundary, each can be advanced on
    its own host domain inside a quantum; the join at the boundary is
    the barrier, and cross-lane interaction happens only in the [commit]
    callback, which runs single-threaded on the caller between quanta.

    Determinism argument, in two halves:
    - {e within a lane}: {!Machine.run_until} parks rather than clamps,
      so chunking a run into quanta replays exactly the unchunked step
      sequence — the boundary never reorders anything.
    - {e across lanes}: during a quantum lanes touch only their own
      world, so host scheduling of the domains is unobservable; [commit]
      visits lanes in a fixed order at a fixed virtual time. Hence
      [Seq] and [Par] (any job count, any host) produce bit-identical
      simulations. *)

type lane = { l_name : string; l_advance : until:int -> [ `Paused | `Done ] }

type engine = Seq | Par of { jobs : int }

let default_quantum = 50_000

let run ?(quantum = default_quantum) engine ~lanes
    ?(commit = fun ~boundary:_ -> ()) () =
  if quantum <= 0 then invalid_arg "Quantum.run: quantum <= 0";
  match lanes with
  | [] -> 0
  | lanes ->
    let lanes = Array.of_list lanes in
    let n = Array.length lanes in
    let finished = Array.make n false in
    (* Lane i is owned by worker [i mod jobs]: a static, host-independent
       partition. Each finished.(i) is written only by i's owner during a
       quantum and read by the caller only after the joins. *)
    let advance_lane ~until i =
      if not finished.(i) then
        match lanes.(i).l_advance ~until with
        | `Done -> finished.(i) <- true
        | `Paused -> ()
    in
    let boundary = ref quantum in
    let quanta = ref 0 in
    while not (Array.for_all Fun.id finished) do
      let until = !boundary in
      (match engine with
      | Seq -> for i = 0 to n - 1 do advance_lane ~until i done
      | Par { jobs } ->
        let jobs = max 1 (min jobs n) in
        if jobs = 1 then for i = 0 to n - 1 do advance_lane ~until i done
        else
          (* Spawn/join per quantum: the join IS the barrier, and domain
             spawn cost is microseconds against quanta of tens of
             thousands of simulated cycles' worth of host work. *)
          Array.init jobs (fun w ->
              Domain.spawn (fun () ->
                  let i = ref w in
                  while !i < n do
                    advance_lane ~until !i;
                    i := !i + jobs
                  done))
          |> Array.iter Domain.join);
      commit ~boundary:until;
      incr quanta;
      boundary := until + quantum
    done;
    !quanta
