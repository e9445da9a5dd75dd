(* The public-surface audit (scripts/unused_exports.ml) on the tree in
   audit_fixture/: two libraries, a program caller and a test. Each
   planted case must fail the audit on its own, and the tree with none
   planted must pass. *)

let exe = Filename.concat (Filename.concat ".." "scripts") "unused_exports.exe"
let fixture = "audit_fixture"

let planted =
  [ "dead-stdlib-name"; "unpassed-option"; "constant-option";
    "constant-label"; "unannotated-tests-only"; "missing-test" ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Copy the fixture, dropping every line of each planted case not in
   [keep]. *)
let copy_fixture ~keep =
  let dst = Filename.temp_dir "audit" "" in
  let dropped line =
    List.exists
      (fun c -> (not (List.mem c keep)) && contains ~sub:("planted: " ^ c) line)
      planted
  in
  let rec copy src dst =
    Array.iter
      (fun name ->
        let s = Filename.concat src name and d = Filename.concat dst name in
        if Sys.is_directory s then (
          Sys.mkdir d 0o755;
          copy s d)
        else
          let lines = In_channel.with_open_bin s In_channel.input_lines in
          Out_channel.with_open_bin d (fun oc ->
              List.iter
                (fun l -> if not (dropped l) then output_string oc (l ^ "\n"))
                lines))
      (Sys.readdir src)
  in
  copy fixture dst;
  dst

(* An entry without its column padding and its location. *)
let entry line =
  let words = String.split_on_char ' ' line |> List.filter (( <> ) "") in
  String.concat " " (List.filteri (fun i _ -> i < List.length words - 1) words)

(* Exit code and the entries of each section, by section title. *)
let audit root =
  let out = Filename.temp_file "audit" ".txt" in
  let code = Sys.command (Filename.quote_command exe [ root ] ~stdout:out) in
  let lines = In_channel.with_open_bin out In_channel.input_lines in
  let sections = ref [] in
  List.iter
    (fun l ->
      if String.length l > 3 && String.sub l 0 3 = "== " then
        sections := (l, ref []) :: !sections
      else
        match !sections with
        | (_, ls) :: _ -> ls := l :: !ls
        | [] -> ())
    (List.filter (fun l -> not (contains ~sub:"values " l)) lines);
  let section prefix =
    match
      List.find_opt (fun (title, _) -> contains ~sub:prefix title) !sections
    with
    | Some (_, ls) -> List.rev_map entry !ls
    | None -> Alcotest.failf "no section %s in the audit's output" prefix
  in
  (code, section)

let rec remove path =
  if Sys.is_directory path then (
    Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path)
  else Sys.remove path

let check_lists ~keep ~code ~no_caller ~tests_only ~one_value () =
  let root = copy_fixture ~keep in
  let got, section =
    Fun.protect ~finally:(fun () -> remove root) (fun () -> audit root)
  in
  Alcotest.(check (list string)) "(a) no caller" no_caller (section "(a)");
  Alcotest.(check (list string)) "(b) tests only" tests_only (section "(b)");
  Alcotest.(check (list string)) "(c) one value" one_value (section "(c)");
  Alcotest.(check int) "exit code" code got

let check = "Alpha.Shapes.check named: test_fake; from test_fake"
let limit = "Beta.limit ?cap named: test_fake; from test_fake"
let dump = "Beta.dump NOT ANNOTATED; from test_fake"
let trace = "Beta.trace NOT ANNOTATED; from test_fake"
let area = "Alpha.Shapes.area ?scale no caller passes it"
let connect = "Beta.connect ?retries every caller passes 3"
let reset = "Beta.reset ~drop every caller passes 0."

let test_full_fixture () =
  check_lists ~keep:planted ~code:1 ~no_caller:[ "Beta.to_float" ]
    ~tests_only:[ check; dump; trace; limit ]
    ~one_value:[ area; connect; reset ] ()

let test_clean () =
  check_lists ~keep:[] ~code:0 ~no_caller:[] ~tests_only:[ check; limit ]
    ~one_value:[] ()

let test_one case ?(no_caller = []) ?(tests_only = [ check; limit ])
    ?(one_value = []) () =
  check_lists ~keep:[ case ] ~code:1 ~no_caller ~tests_only ~one_value ()

let () =
  Alcotest.run "audit"
    [
      ( "public surface",
        [
          Alcotest.test_case "full fixture" `Quick test_full_fixture;
          Alcotest.test_case "no planted case passes" `Quick test_clean;
          Alcotest.test_case "dead value named like a stdlib one" `Quick
            (test_one "dead-stdlib-name" ~no_caller:[ "Beta.to_float" ]);
          Alcotest.test_case "option no caller passes" `Quick
            (test_one "unpassed-option" ~one_value:[ area ]);
          Alcotest.test_case "option every caller passes alike" `Quick
            (test_one "constant-option" ~one_value:[ connect ]);
          Alcotest.test_case "label every caller passes alike" `Quick
            (test_one "constant-label" ~one_value:[ reset ]);
          Alcotest.test_case "unannotated tests-only value" `Quick
            (test_one "unannotated-tests-only"
               ~tests_only:[ check; dump; limit ]);
          Alcotest.test_case "annotation naming no test file" `Quick
            (test_one "missing-test" ~tests_only:[ check; trace; limit ]);
        ] );
    ]
