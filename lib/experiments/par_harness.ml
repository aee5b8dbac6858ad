(** `--jobs N` replica harness: run the same experiment closure on N
    OCaml domains at once, each inside a fresh {!Sky_sim.Scopes} bundle
    (its own tracer, fault engine and Accel epoch), and
    byte-compare a rendering of every replica's result.

    This is the cheap, always-on form of the parallelism determinism
    gate: any host-global mutable state that leaked out of the scoped
    bundles would let concurrently-running replicas perturb each other
    and diverge — caught here as a hard failure rather than a flaky
    benchmark number. *)

let replicate ~jobs ~render f =
  if jobs <= 1 then f ()
  else begin
    let results =
      Array.init jobs (fun _ ->
          Domain.spawn (fun () ->
              Sky_sim.Scopes.enter
                (Sky_sim.Scopes.fresh ())
                (fun () ->
                  let r = f () in
                  (r, render r))))
      |> Array.map Domain.join
    in
    let r0, d0 = results.(0) in
    Array.iteri
      (fun i (_, d) ->
        if d <> d0 then
          failwith
            (Printf.sprintf
               "--jobs: replica %d diverged from replica 0 (%d vs %d bytes \
                rendered) — a host global leaked between simulator worlds"
               i (String.length d) (String.length d0)))
      results;
    r0
  end
