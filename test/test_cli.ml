(* End-to-end tests of the built CLI binary: spawn it as a subprocess and
   assert on exit codes and printed output.  Covers the warm-start flags
   (--iterations / --no-cache), the prof report, trace-check, and the fuzz
   replay entry points. *)

(* Tests run from _build/default/test; the driver lives one directory over. *)
let cli_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/spdistal_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [cli_exe args], capturing stdout+stderr; returns (exit code, output). *)
let run_cli args =
  if not (Sys.file_exists cli_exe) then
    Alcotest.failf "CLI binary not found at %s" cli_exe;
  let out = Filename.temp_file "spdistal_cli" ".out" in
  let code =
    Sys.command (Filename.quote cli_exe ^ " " ^ args ^ " > " ^ Filename.quote out ^ " 2>&1")
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let check_contains what output needle =
  if not (Helpers.contains output needle) then
    Alcotest.failf "%s: expected %S in output:\n%s" what needle output

let test_run_iterations () =
  let code, out = run_cli "run spmv -n 2 --iterations 6" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "run --iterations" out "6 iterations";
  check_contains "run --iterations" out "ms"

let test_run_no_cache () =
  let code, out = run_cli "run spmv -n 2 --iterations 4 --no-cache" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "run --no-cache" out "4 iterations, no cache"

let test_run_legacy () =
  (* Without --iterations the single-shot banner has no iteration suffix. *)
  let code, out = run_cli "run spmv -n 2" in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool)
    "no iteration suffix" false
    (Helpers.contains out "iterations")

let test_prof_amortization () =
  let code, out = run_cli "prof spmv -n 2 --iterations 3" in
  Alcotest.(check int) "exit code" 0 code;
  check_contains "prof report" out "amortization by iteration";
  (* One cold miss, then warm hits. *)
  check_contains "prof report" out "miss";
  check_contains "prof report" out "hit"

let test_prof_trace_roundtrip () =
  let trace = Filename.temp_file "spdistal_trace" ".json" in
  let code, _ =
    run_cli (Printf.sprintf "prof spmv -n 2 --iterations 3 --trace %s" (Filename.quote trace))
  in
  Alcotest.(check int) "prof exit code" 0 code;
  let json = read_file trace in
  check_contains "trace json" json "cache_miss";
  check_contains "trace json" json "cache_hit";
  check_contains "trace json" json "dependent_partitioning";
  let code, out = run_cli ("trace-check " ^ Filename.quote trace) in
  Sys.remove trace;
  Alcotest.(check int) "trace-check exit code" 0 code;
  check_contains "trace-check" out "ok"

let test_trace_check_rejects_garbage () =
  let bad = Filename.temp_file "spdistal_bad" ".json" in
  let oc = open_out bad in
  output_string oc "this is not a trace";
  close_out oc;
  let code, _ = run_cli ("trace-check " ^ Filename.quote bad) in
  Sys.remove bad;
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

(* A known-good spec line lifted from test/corpus/kernels.case. *)
let replay_spec =
  "vars=i:8,j:8;driver=B:i.j:dc:10:0.39493080450893192:152386;facts=c:v:i;\
   out=a:v:j;sched=u:i:0;tdn=a:r,B:r,c:r;gpu=1;grid=2;dom=3;\
   flt=82059:0.039598285964062896"

let test_fuzz_replay () =
  let code, out = run_cli ("fuzz --replay '" ^ replay_spec ^ "'") in
  Alcotest.(check int) ("exit code for: " ^ out) 0 code

(* "corpus" when run via dune runtest (a declared dep in the sandbox cwd),
   "test/corpus" when the runner is launched from the repository root. *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus"
  else if Sys.file_exists "test/corpus" then "test/corpus"
  else Alcotest.fail "corpus directory not found"

let test_fuzz_corpus () =
  let code, out = run_cli ("fuzz --corpus " ^ corpus_dir ()) in
  Alcotest.(check int) ("exit code for: " ^ out) 0 code;
  check_contains "corpus summary" out "0 bad"

let test_bad_kernel_rejected () =
  let code, _ = run_cli "run no-such-kernel -n 2" in
  Alcotest.(check bool) "nonzero exit" true (code <> 0)

let test_iterations_validation () =
  let code, out = run_cli "prof spmv -n 2 --iterations 0" in
  Alcotest.(check bool) ("nonzero exit for: " ^ out) true (code <> 0)

(* A bad input is one line on stderr and exit 2, not cmdliner's
   uncaught-exception report and exit 125. *)
let check_bad_input args =
  let code, out = run_cli args in
  Alcotest.(check int) ("exit code for: " ^ out) 2 code;
  Alcotest.(check int) ("one line: " ^ out) 1
    (List.length (String.split_on_char '\n' (String.trim out)));
  Alcotest.(check bool) ("no internal error: " ^ out) false
    (Helpers.contains out "internal error")

let missing_path () =
  let path = Filename.temp_file "spdistal_missing" ".txt" in
  Sys.remove path;
  path

let test_fuzz_corpus_bad_dir () =
  check_bad_input
    ("fuzz --corpus " ^ Filename.concat (corpus_dir ()) "regressions.case");
  check_bad_input ("fuzz --corpus " ^ Filename.quote (missing_path ()))

let test_serve_bad_nodes () = check_bad_input "serve --nodes 0 --jobs 5"

let test_serve_missing_trace () =
  check_bad_input ("serve --trace " ^ Filename.quote (missing_path ()))

let test_serve_bad_tenant () =
  let path = Filename.temp_file "spdistal_bad_tenant" ".workload" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "spdistal-workload v1 tenants=2\n\
         job 0 0 spmv-web 0x0p+0 0x1p-1\n\
         job 1 -1 spmv-web 0x1p-8 0x1p-1\n";
      close_out oc;
      check_bad_input ("serve --trace " ^ Filename.quote path))

(* Bad cell inputs are typed where they are checked: the dataset name
   ([Datasets.find]), the piece count ([Machine.make]), the tensor's order
   and the dense width ([Runner]); serve checks its scrape interval. *)
let bad_inputs =
  [
    "run spmv -d nope";
    "run spmv -n 0";
    "run spttv -d uk-2005";
    "run spmm --cols=-1";
    "serve --jobs 5 --metrics DIR --metrics-interval 0";
  ]

(* DIR is a path that does not exist, so a run that got past the check
   would not write into the test's directory. *)
let test_bad_input args () =
  String.split_on_char ' ' args
  |> List.map (function "DIR" -> Filename.quote (missing_path ()) | w -> w)
  |> String.concat " " |> check_bad_input

let suite =
  [
    Alcotest.test_case "run --iterations" `Quick test_run_iterations;
    Alcotest.test_case "run --no-cache" `Quick test_run_no_cache;
    Alcotest.test_case "run legacy banner" `Quick test_run_legacy;
    Alcotest.test_case "prof amortization table" `Quick test_prof_amortization;
    Alcotest.test_case "prof trace + trace-check" `Quick test_prof_trace_roundtrip;
    Alcotest.test_case "trace-check rejects garbage" `Quick test_trace_check_rejects_garbage;
    Alcotest.test_case "fuzz --replay" `Quick test_fuzz_replay;
    Alcotest.test_case "fuzz --corpus" `Quick test_fuzz_corpus;
    Alcotest.test_case "unknown kernel rejected" `Quick test_bad_kernel_rejected;
    Alcotest.test_case "--iterations 0 rejected" `Quick test_iterations_validation;
    Alcotest.test_case "fuzz --corpus not a directory" `Quick
      test_fuzz_corpus_bad_dir;
    Alcotest.test_case "serve --nodes 0 rejected" `Quick test_serve_bad_nodes;
    Alcotest.test_case "serve --trace missing file" `Quick
      test_serve_missing_trace;
    Alcotest.test_case "serve --trace out-of-range tenant" `Quick
      test_serve_bad_tenant;
  ]
  @ List.map
      (fun args ->
        Alcotest.test_case (args ^ " rejected") `Quick (test_bad_input args))
      bad_inputs
