(* Tests for the table-rendering harness (lib/harness) — the layer every
   experiment's output goes through, so misalignment or bad number
   formatting would corrupt EXPERIMENTS.md silently. *)

open Sky_harness

let sample =
  Tbl.make ~title:"t" ~header:[ "name"; "a"; "b" ]
    ~notes:[ "a note" ]
    [ [ "row1"; "1"; "2,000" ]; [ "longer row name"; "33"; "4" ] ]

let test_fmt_int () =
  Alcotest.(check string) "small" "7" (Tbl.fmt_int 7);
  Alcotest.(check string) "grouping" "1,234,567" (Tbl.fmt_int 1234567);
  Alcotest.(check string) "exact thousands" "12,000" (Tbl.fmt_int 12000);
  Alcotest.(check string) "negative" "-1,234" (Tbl.fmt_int (-1234))

let test_render_alignment () =
  let out = Tbl.render sample in
  let lines = String.split_on_char '\n' out in
  (* Header, separator and rows all share one width. *)
  let widths =
    List.filter_map
      (fun l -> if l = "" || String.length l < 3 then None else Some (String.length l))
      (List.filteri (fun i _ -> i >= 1 && i <= 4) lines)
  in
  (match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "aligned" w w') rest
  | [] -> Alcotest.fail "no lines");
  Alcotest.(check bool) "title present" true
    (String.length out > 0 && String.sub out 0 4 = "== t");
  Alcotest.(check bool) "note present" true
    (List.exists (fun l -> l = "  note: a note") lines)

let test_markdown () =
  let md = Tbl.to_markdown sample in
  Alcotest.(check bool) "heading" true (String.sub md 0 5 = "### t");
  Alcotest.(check bool) "separator row" true
    (List.exists (fun l -> l = "| --- | --- | --- |") (String.split_on_char '\n' md));
  Alcotest.(check bool) "cells intact" true
    (List.exists
       (fun l -> l = "| longer row name | 33 | 4 |")
       (String.split_on_char '\n' md))

let test_speedup_format () =
  Alcotest.(check string) "+50%" "+50.0%" (Tbl.fmt_speedup 1.5);
  Alcotest.(check string) "-10%" "-10.0%" (Tbl.fmt_speedup 0.9)

(* The budget gate: measured <= budget * 102 / 100 passes; a budget
   file without the key fails; no budget file waives, still showing the
   measurement. *)
let with_budgets contents f =
  let file = Filename.temp_file "budgets" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let budget_gate ~file measured =
  Gate.within_budget ~file ~name:"t" ~section:"s" ~key:"k" ~unit:"cycles" measured

let test_budget_edge () =
  with_budgets {|{"s": {"k": 1000}}|} @@ fun file ->
  Alcotest.(check bool) "1020 = 1000 + 2% passes" true
    ((budget_gate ~file 1020).Gate.verdict = Gate.Pass);
  Alcotest.(check bool) "1021 fails" true
    ((budget_gate ~file 1021).Gate.verdict = Gate.Fail)

let test_budget_missing_key () =
  with_budgets {|{"s": {"other": 1000}}|} @@ fun file ->
  let g = budget_gate ~file 1 in
  Alcotest.(check bool) "missing key fails" true (g.Gate.verdict = Gate.Fail);
  Alcotest.(check bool) "command fails" true (Gate.failed [ g ])

let test_budget_missing_file () =
  let g = budget_gate ~file:"no/such/budgets.json" 1234 in
  Alcotest.(check bool) "missing file waives" true
    (g.Gate.verdict = Gate.Waived "no/such/budgets.json not found");
  Alcotest.(check bool) "a waiver does not fail" false (Gate.failed [ g ]);
  Alcotest.(check string) "printed with its measurement"
    "gate t: waived:no/such/budgets.json not found (measured 1234 cycles; bar \
     none)"
    (Gate.to_string g)

let () =
  Alcotest.run "harness"
    [
      ( "tbl",
        [
          Alcotest.test_case "fmt_int grouping" `Quick test_fmt_int;
          Alcotest.test_case "render alignment" `Quick test_render_alignment;
          Alcotest.test_case "markdown" `Quick test_markdown;
          Alcotest.test_case "speedup format" `Quick test_speedup_format;
        ] );
      ( "gate",
        [
          Alcotest.test_case "budget + 2% edge" `Quick test_budget_edge;
          Alcotest.test_case "missing key fails" `Quick test_budget_missing_key;
          Alcotest.test_case "missing file waives" `Quick test_budget_missing_file;
        ] );
    ]
