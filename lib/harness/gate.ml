(** Gates: the verdicts a benchmark run is judged by.

    A gate names what it checks and shows the measurement next to the
    bar it was held to. Its verdict is typed: a gate that cannot mean
    anything on this host says [Waived] with the reason instead of
    passing. A command exits 1 iff one of its gates is [Fail]. *)

type verdict = Pass | Fail | Waived of string

type t = { name : string; measured : string; bar : string; verdict : verdict }

let check ~name ~measured ~bar ok =
  { name; measured; bar; verdict = (if ok then Pass else Fail) }

let verdict_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Waived reason -> "waived:" ^ reason

let to_string g =
  Printf.sprintf "gate %s: %s (measured %s; bar %s)" g.name
    (verdict_string g.verdict) g.measured g.bar

(* Stderr, so a command's stdout stays the byte-deterministic payload. *)
let print g = prerr_endline (to_string g)
let failed gates = List.exists (fun g -> g.verdict = Fail) gates

(* ---- budgets ---- *)

(* Perf budgets, relative to the working directory (the repo root). *)
let budgets = "bench/budgets.json"

type lookup = Budget of int | No_file | No_key

let lookup ?(file = budgets) ~section ~key () =
  if not (Sys.file_exists file) then No_file
  else
    let value =
      match
        Sky_trace.Json.of_string (In_channel.with_open_bin file In_channel.input_all)
      with
      | json ->
        Option.bind
          (Option.bind (Sky_trace.Json.member section json) (Sky_trace.Json.member key))
          Sky_trace.Json.int_value
      | exception Sky_trace.Json.Parse_error _ -> None
    in
    match value with Some b -> Budget b | None -> No_key

(* [measured] passes up to its budget + 2 %. A budget file that is not
   there waives the gate; one that lacks the key fails it. *)
let within_budget ?(file = budgets) ~name ~section ~key ~unit measured =
  let measured_s = Printf.sprintf "%d %s" measured unit in
  match lookup ~file ~section ~key () with
  | No_file ->
    { name; measured = measured_s; bar = "none";
      verdict = Waived (file ^ " not found") }
  | No_key ->
    { name; measured = measured_s;
      bar = Printf.sprintf "%s.%s, missing from %s" section key file;
      verdict = Fail }
  | Budget b ->
    let limit = b * 102 / 100 in
    check ~name ~measured:measured_s
      ~bar:(Printf.sprintf "<= %d (budget %d + 2%%)" limit b)
      (measured <= limit)
