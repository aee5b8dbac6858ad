(** Host-time spans recorded by the benchmark around its own calls into
    each layer's public functions.

    A span has a name, the id of the op it belongs to, its parent (the
    span open when it started), host start/end nanoseconds and minor-heap
    words at start/end. Spans are kept in flat preallocated arrays, so
    recording allocates nothing on the minor heap, and are aggregated
    once when the run ends: a span's self time (and self words) is its
    duration minus what its child spans cover. [units] lets one span
    stand for several calls of the same function (a sweep of
    [Translate.read_u64]s), so per-call figures divide by units, not
    spans. Recording is off unless {!start} was called; it can be
    stopped and started again, and {!reset} forgets what it holds. *)

let on = ref false
let max_spans = 1 lsl 21
let n = ref 0
let dropped = ref 0
let cur_op = ref 0
let names : string array ref = ref [||]
let parent = ref [||]
let op = ref [||]
let units = ref [||]
let t0 = ref [||]
let t1 = ref [||]
let w0 = ref (Float.Array.create 0)
let w1 = ref (Float.Array.create 0)
let stack = Array.make 64 (-1)
let depth = ref 0

(** Forget every recorded span. *)
let reset () =
  n := 0;
  dropped := 0;
  depth := 0

(** Record from now on, keeping what was recorded before. *)
let start () =
  if Array.length !t0 = 0 then begin
    let c = 1 lsl 16 in
    names := Array.make c "";
    parent := Array.make c (-1);
    op := Array.make c 0;
    units := Array.make c 0;
    t0 := Array.make c 0;
    t1 := Array.make c 0;
    w0 := Float.Array.make c 0.0;
    w1 := Float.Array.make c 0.0
  end;
  on := true

let stop () = on := false
let set_op id = cur_op := id

let grow () =
  let c = Array.length !t0 in
  let ext a fill = Array.append a (Array.make c fill) in
  let fext a = Float.Array.append a (Float.Array.make c 0.0) in
  names := ext !names "";
  parent := ext !parent (-1);
  op := ext !op 0;
  units := ext !units 0;
  t0 := ext !t0 0;
  t1 := ext !t1 0;
  w0 := fext !w0;
  w1 := fext !w1

let open_ ~units:u name =
  if !n >= max_spans || !depth >= Array.length stack then begin
    incr dropped;
    -1
  end
  else begin
    if !n >= Array.length !t0 then grow ();
    let i = !n in
    incr n;
    !names.(i) <- name;
    !parent.(i) <- (if !depth > 0 then stack.(!depth - 1) else -1);
    !op.(i) <- !cur_op;
    !units.(i) <- u;
    stack.(!depth) <- i;
    incr depth;
    Float.Array.set !w0 i (Gc.minor_words ());
    !t0.(i) <- Host.now_ns ();
    i
  end

let close i =
  if i >= 0 then begin
    !t1.(i) <- Host.now_ns ();
    Float.Array.set !w1 i (Gc.minor_words ());
    decr depth
  end

let span ?(units = 1) name f =
  if not !on then f ()
  else begin
    let i = open_ ~units name in
    match f () with
    | r ->
      close i;
      r
    | exception e ->
      close i;
      raise e
  end

(** Per-name totals over every recorded span. *)
type agg = {
  a_name : string;
  a_spans : int;
  a_units : int;
  a_ns : int;
  a_self_ns : int;
  a_words : float;
  a_self_words : float;
  a_durs : float array;  (** per-span duration, ns *)
}

let aggregate () =
  let n = !n in
  let child_ns = Array.make n 0 and child_w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = !parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (!t1.(i) - !t0.(i));
      child_w.(p) <- child_w.(p) +. (Float.Array.get !w1 i -. Float.Array.get !w0 i)
    end
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let d = !t1.(i) - !t0.(i) and w = Float.Array.get !w1 i -. Float.Array.get !w0 i in
    let name = !names.(i) in
    let spans, u, ns, sns, ws, sws, durs =
      match Hashtbl.find_opt tbl name with
      | Some r -> r
      | None -> (0, 0, 0, 0, 0.0, 0.0, [])
    in
    Hashtbl.replace tbl name
      ( spans + 1,
        u + !units.(i),
        ns + d,
        sns + (d - child_ns.(i)),
        ws +. w,
        sws +. (w -. child_w.(i)),
        float_of_int d :: durs )
  done;
  Hashtbl.fold
    (fun name (spans, u, ns, sns, ws, sws, durs) acc ->
      {
        a_name = name;
        a_spans = spans;
        a_units = u;
        a_ns = ns;
        a_self_ns = sns;
        a_words = ws;
        a_self_words = sws;
        a_durs = Array.of_list durs;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.a_name b.a_name)

(** Distinct op ids among the recorded spans. *)
let ops_traced () =
  let ids = Hashtbl.create 1024 in
  for i = 0 to !n - 1 do
    Hashtbl.replace ids !op.(i) ()
  done;
  Hashtbl.length ids
