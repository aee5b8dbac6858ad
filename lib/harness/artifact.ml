(** Benchmark artifacts: every machine-readable result a CI run should
    archive is written as [BENCH_<name>.json] in the working directory,
    so the workflow can glob one pattern and benchmark trajectories can
    be compared across commits. *)

(* What rides next to the payload in the file. [Timed] records the host
   wall-clock seconds of producing it; [Host] carries host context as a
   ready-made JSON value; [Bare] writes the payload alone, so the file
   is itself the byte-determinism witness. Both wrappers keep the
   simulated result byte-deterministic under "result". *)
type wrap = Timed | Host of string | Bare

(* One run of an experiment: the table a reader sees, the payload its
   artifact archives, and the gates it is judged by. *)
type t = { table : Tbl.t; json : string; wrap : wrap; gates : Gate.t list }

let of_table table = { table; json = Tbl.to_json table; wrap = Timed; gates = [] }

let write ~name contents =
  let path = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc contents;
      if not (String.ends_with ~suffix:"\n" contents) then output_char oc '\n');
  path

let save ~name ~host_seconds t =
  let wrapped host = Printf.sprintf "{%s,\"result\":%s}" host (String.trim t.json) in
  write ~name
    (match t.wrap with
    | Timed -> wrapped (Printf.sprintf "\"host_seconds\":%.3f" host_seconds)
    | Host host -> wrapped ("\"host\":" ^ host)
    | Bare -> t.json)
