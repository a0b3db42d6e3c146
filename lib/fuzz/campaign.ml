(* Campaign driver: generate -> check -> (on failure) shrink -> report.
   Stops at the first failure; a campaign's job is to find one bug and hand
   back a minimal reproducer, not to enumerate every consequence of it. *)

type failure_case = {
  index : int;
  original : Spec.t;
  shrunk : Spec.t;
  failure : Check.failure;
  text : string;  (** the full reproducer report *)
}

type report = {
  total : int;
  passed : int;
  skipped : int;
  rejected : int;
  failure : failure_case option;
}

let shrink_failure ~max_steps index original failure =
  let still_fails spec =
    match Check.run spec with Check.Fail _ -> true | _ -> false
  in
  let shrunk = Shrink.minimize ~max_steps ~still_fails original in
  (* re-run the minimum to report its (possibly different) failure *)
  let failure =
    match Check.run shrunk with Check.Fail f -> f | _ -> failure
  in
  { index; original; shrunk; failure; text = Shrink.reproducer ~original ~shrunk failure }

(* Checks the shrinker may spend on one failure. *)
let shrink_steps = 300

let run ?(params = Gen.default_params) ?progress ?(budget_seconds = 0.)
    ~seed ~count () =
  let t0 = Sys.time () in
  let passed = ref 0 and skipped = ref 0 and rejected = ref 0 in
  let total = ref 0 in
  let failure = ref None in
  let i = ref 0 in
  while
    !i < count
    && !failure = None
    && (budget_seconds <= 0. || Sys.time () -. t0 < budget_seconds)
  do
    let index = !i in
    let spec = Gen.case ~params ~seed index in
    let verdict = Check.run spec in
    incr total;
    (match progress with
    | Some f -> f ~index ~spec verdict
    | None -> ());
    (match verdict with
    | Check.Pass -> incr passed
    | Check.Skip _ -> incr skipped
    | Check.Reject _ -> incr rejected
    | Check.Fail f ->
        failure := Some (shrink_failure ~max_steps:shrink_steps index spec f));
    incr i
  done;
  {
    total = !total;
    passed = !passed;
    skipped = !skipped;
    rejected = !rejected;
    failure = !failure;
  }

let report_to_string r =
  match r.failure with
  | None ->
      Printf.sprintf "%d cases: %d passed, %d skipped (DNC), %d rejected"
        r.total r.passed r.skipped r.rejected
  | Some fc ->
      Printf.sprintf
        "%d cases: %d passed, %d skipped, %d rejected, 1 FAILURE (case %d)\n\n%s"
        r.total r.passed r.skipped r.rejected fc.index fc.text

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_line line =
  match Spec.of_string line with
  | Error m -> Check.Reject (Printf.sprintf "unparseable spec %S: %s" line m)
  | Ok spec -> Check.run spec

(* A corpus line [reject: SPEC] freezes a case the compiler must refuse (a
   wrong answer closed by a static refusal): its refusal is its pass. *)
let replay_corpus_line line =
  if not (String.starts_with ~prefix:"reject:" line) then replay_line line
  else
    let spec = String.trim (String.sub line 7 (String.length line - 7)) in
    match Result.map Check.run (Spec.of_string spec) with
    | Ok (Check.Reject _) -> Check.Pass
    | Ok v -> Check.Fail { prop = "expected-reject"; detail = Check.verdict_to_string v }
    | Error m -> Check.Fail { prop = "corpus"; detail = "unparseable spec: " ^ m }

(* Corpus files: one spec per line; '#' lines and blanks are comments. *)
let replay_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let results = ref [] in
      (try
         let lineno = ref 0 in
         while true do
           let line = String.trim (input_line ic) in
           incr lineno;
           if line <> "" && line.[0] <> '#' then
             results :=
               (Printf.sprintf "%s:%d" path !lineno, replay_corpus_line line)
               :: !results
         done
       with End_of_file -> ());
      List.rev !results)

let replay_corpus ~dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".case")
    |> List.sort String.compare
  in
  List.concat_map (fun f -> replay_file (Filename.concat dir f)) files
