(* Tier-1 entry for the differential fuzzer: a small fixed budget that must
   stay green and deterministic, the injected-bug canary (the harness must
   still be able to catch and shrink a real miscompile), and replay of the
   frozen regression corpus. *)

open Spdistal_fuzz

(* Keep the tier-1 budget small and the cases cheap. *)
let params = { Gen.default_params with Gen.max_dim = 6 }

let test_gen_deterministic () =
  for i = 0 to 24 do
    let a = Gen.case ~params ~seed:5 i and b = Gen.case ~params ~seed:5 i in
    Alcotest.(check string)
      (Printf.sprintf "case %d stable" i)
      (Spec.to_string a) (Spec.to_string b)
  done;
  let distinct =
    List.sort_uniq compare
      (List.init 25 (fun i -> Spec.to_string (Gen.case ~params ~seed:5 i)))
  in
  Alcotest.(check bool) "cases vary with index" true (List.length distinct > 20)

(* Spec lines are the corpus interchange format: parsing must invert
   printing exactly, including the float fields (density, literal
   coefficients, fault rates). *)
let arb_spec =
  let g =
    QCheck.Gen.map
      (fun (seed, i) -> Gen.case ~params ~seed i)
      (QCheck.Gen.pair (QCheck.Gen.int_range 0 100_000) (QCheck.Gen.int_range 0 500))
  in
  QCheck.make ~print:Spec.to_string g

let prop_spec_roundtrip =
  Helpers.qtest ~count:300 "spec line printing/parsing roundtrip" arb_spec
    (fun s -> Spec.equal (Spec.of_string_exn (Spec.to_string s)) s)

let test_clean_campaign () =
  let r = Campaign.run ~params ~seed:42 ~count:60 () in
  Alcotest.(check int) "all cases ran" 60 r.Campaign.total;
  (match r.Campaign.failure with
  | None -> ()
  | Some f -> Alcotest.fail ("unexpected failure:\n" ^ f.Campaign.text));
  Alcotest.(check int) "no rejected cases" 0 r.Campaign.rejected

let test_injected_bug_caught_and_shrunk () =
  let r =
    Fun.protect
      ~finally:(fun () -> Spdistal_ir.Lower.set_debug_flip_block_bound false)
      (fun () ->
        Spdistal_ir.Lower.set_debug_flip_block_bound true;
        Campaign.run ~params ~seed:42 ~count:50 ())
  in
  match r.Campaign.failure with
  | None -> Alcotest.fail "flipped block bound survived 50 cases"
  | Some f ->
      Alcotest.(check bool)
        "shrunk to at most two operands" true
        (Spec.operand_count f.Campaign.shrunk <= 2);
      Alcotest.(check bool)
        "reproducer quotes both specs" true
        (Helpers.contains f.Campaign.text (Spec.to_string f.Campaign.shrunk));
      (* With the bug gone the minimized case must pass again — otherwise
         the shrinker wandered onto an unrelated failure. *)
      (match Check.run f.Campaign.shrunk with
      | Check.Pass -> ()
      | v ->
          Alcotest.fail
            ("shrunk case still fails with the bug off: "
            ^ Check.verdict_to_string v))

let test_corpus_replay () =
  let results = Campaign.replay_corpus ~dir:"corpus" in
  Alcotest.(check bool) "corpus is non-empty" true (List.length results >= 10);
  List.iter
    (fun (loc, v) ->
      match v with
      | Check.Pass -> ()
      | v -> Alcotest.fail (loc ^ ": " ^ Check.verdict_to_string v))
    results

(* A spec whose own schedule cannot be built (a non-zero split fusing no
   variable) is a typed refusal, not an escaped exception. *)
let test_unbuildable_schedule_rejected () =
  match
    Campaign.replay_line
      "vars=i:4,j:4;driver=B:i.j:dc:01:0.5:3;facts=c:v:j;out=a:v:i;sched=n:0:1;tdn=a:r,B:r,c:r;grid=2"
  with
  | Check.Reject m ->
      Alcotest.(check bool) "names the refusal" true
        (Helpers.contains m "Schedule.nnz: no variable to split")
  | v -> Alcotest.fail ("expected a reject: " ^ Check.verdict_to_string v)

(* The parser refuses what [Spec.to_string] never prints instead of
   ignoring it: an unknown key, a repeated key, a flag other than [1]. *)
let test_parser_refusals () =
  let base =
    "vars=i:4,j:4;driver=B:i.j:dc:01:0.5:3;facts=c:v:j;out=a:v:i;sched=u:i:1;tdn=a:b0,B:b0,c:r;grid=2"
  in
  Alcotest.(check bool) "base parses" true (Result.is_ok (Spec.of_string base));
  List.iter
    (fun (what, line, needle) ->
      match Spec.of_string line with
      | Ok _ -> Alcotest.fail (what ^ " parsed: " ^ line)
      | Error m ->
          Alcotest.(check bool) (what ^ ": " ^ m) true (Helpers.contains m needle))
    [
      ("unknown key", base ^ ";grdi=4", "unknown field");
      ("duplicate key", base ^ ";grid=4", "duplicate field grid");
      ("flag not 1", base ^ ";at=l", "bad at flag");
    ]

let suite =
  [
    Alcotest.test_case "generator is deterministic" `Quick test_gen_deterministic;
    prop_spec_roundtrip;
    Alcotest.test_case "clean campaign (seed 42)" `Slow test_clean_campaign;
    Alcotest.test_case "injected bug caught and shrunk" `Slow
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "regression corpus replays" `Slow test_corpus_replay;
    Alcotest.test_case "unbuildable schedule is rejected" `Quick
      test_unbuildable_schedule_rejected;
    Alcotest.test_case "spec parser refuses unknown, repeated and bad flags"
      `Quick test_parser_refusals;
  ]
