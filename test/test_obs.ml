(* Observability: tracing must never change results, and what it records
   must reconcile exactly with the Cost clock. *)

open Spdistal_runtime
module Trace = Spdistal_obs.Trace
module Chrome_trace = Spdistal_obs.Chrome_trace
module Report = Spdistal_obs.Report

(* Problem construction and traced-run plumbing live in Helpers (shared with
   the cache and golden suites). *)
let comm_spmv = Helpers.comm_spmv
let run_traced ?domains ?faults p = Helpers.run_traced ?domains ?faults p
let sim_spans = Helpers.sim_spans
let launch_spans = Helpers.launch_spans

(* --- tracing is invisible: bit-identical outputs and costs -------------- *)

let test_traced_untraced_identical () =
  let p1 = comm_spmv () in
  let c1 = Helpers.run_ok p1 in
  let p2 = comm_spmv () in
  let res, trace = run_traced p2 in
  (match res.Core.Spdistal.dnc with Some r -> Alcotest.fail r | None -> ());
  Alcotest.(check bool)
    "outputs bit-identical under tracing" true
    (Helpers.snapshot p1 = Helpers.snapshot p2);
  Alcotest.(check bool)
    "cost bit-identical under tracing" true
    (Helpers.cost_sig c1 = Helpers.cost_sig res.Core.Spdistal.cost);
  Alcotest.(check bool) "trace saw spans" true (Trace.spans trace <> [])

let test_sim_spans_domain_independent () =
  (* The simulated-clock part of a trace is a pure function of the problem:
     identical at every host parallelism degree. *)
  let _, t1 = run_traced ~domains:1 (comm_spmv ()) in
  let _, t4 = run_traced ~domains:4 (comm_spmv ()) in
  Alcotest.(check bool)
    "sim spans identical at --domains 1 and 4" true
    (sim_spans t1 = sim_spans t4);
  Alcotest.(check bool)
    "comm matrices identical" true
    (Trace.comm_matrix t1 = Trace.comm_matrix t4)

let test_null_trace_records_nothing () =
  Trace.span Trace.null ~track:Trace.Runtime ~clock:Trace.Sim ~cat:"launch"
    ~start:0. ~dur:1. "x";
  Trace.counter Trace.null ~name:"c" ~time:0. [ ("a", 1.) ];
  Trace.comm_edge Trace.null ~src:0 ~dst:1 8.;
  Trace.set_meta Trace.null "kernel" "y";
  Alcotest.(check bool) "no spans" true (Trace.spans Trace.null = []);
  Alcotest.(check bool) "no counters" true (Trace.counters Trace.null = []);
  Alcotest.(check bool) "no meta" true (Trace.meta Trace.null = []);
  Alcotest.(check bool)
    "no edges" true
    (Trace.comm_matrix Trace.null = [||])

(* --- the span-sum invariant: launch spans reconstruct the clock --------- *)

let span_sum_matches ?domains ?faults problem =
  let res, trace = run_traced ?domains ?faults problem in
  match res.Core.Spdistal.dnc with
  | Some _ -> true (* recovery exhausted: a DNC cell, nothing to reconcile *)
  | None ->
      let total = Cost.total res.Core.Spdistal.cost in
      let sum =
        List.fold_left
          (fun acc sp -> acc +. sp.Trace.sp_dur)
          0. (launch_spans trace)
      in
      Float.abs (sum -. total) <= 1e-9 *. Float.max 1. total

let arb_span_sum_case =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 1000 in
      let* pieces = Gen.oneofl [ 1; 3; 4 ] in
      let* domains = Gen.oneofl [ 1; 4 ] in
      let* faulty = Gen.bool in
      Gen.return (seed, pieces, domains, faulty))
  in
  make
    ~print:(fun (s, p, d, f) ->
      Printf.sprintf "seed=%d pieces=%d domains=%d faults=%b" s p d f)
    gen

let test_span_sum =
  Helpers.qtest ~count:40 "sum of launch-span durations = Cost.total"
    arb_span_sum_case (fun (seed, pieces, domains, faulty) ->
      let faults =
        if faulty then Some (Fault.make ~seed:(seed + 1) ~rate:0.05 ())
        else None
      in
      span_sum_matches ~domains ?faults (comm_spmv ~pieces ~seed ()))

(* --- Chrome trace-event export ------------------------------------------ *)

let test_chrome_export_valid () =
  let _, trace = run_traced (comm_spmv ()) in
  (match Chrome_trace.validate (Chrome_trace.to_json trace) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool)
    "garbage rejected" true
    (Chrome_trace.validate "not json" |> Result.is_error);
  Alcotest.(check bool)
    "missing traceEvents rejected" true
    (Chrome_trace.validate "{}" |> Result.is_error);
  let non_monotone =
    {|{"traceEvents":[
        {"ph":"X","pid":1,"tid":0,"ts":5.0,"dur":1.0,"name":"a"},
        {"ph":"X","pid":1,"tid":0,"ts":1.0,"dur":1.0,"name":"b"}]}|}
  in
  Alcotest.(check bool)
    "non-monotone track rejected" true
    (Chrome_trace.validate non_monotone |> Result.is_error)

(* --- report ------------------------------------------------------------- *)

let test_report_reconciles () =
  let res, trace = run_traced (comm_spmv ()) in
  let cost = res.Core.Spdistal.cost in
  let r = Report.of_trace trace in
  Helpers.check_float "report total = Cost.total" (Cost.total cost) r.Report.r_total;
  Alcotest.(check int)
    "one report row per launch" cost.Cost.launches
    (List.length r.Report.r_launches);
  let matrix_bytes =
    Array.fold_left
      (fun acc row -> Array.fold_left ( +. ) acc row)
      0. r.Report.r_comm
  in
  Alcotest.(check bool) "spmv with blocked c moves bytes" true (matrix_bytes > 0.);
  Helpers.check_float "comm matrix sums to bytes_moved" cost.Cost.bytes_moved
    matrix_bytes;
  List.iter
    (fun n ->
      let u = Report.utilization r n in
      Alcotest.(check bool) "utilization in [0, 1]" true (u >= 0. && u <= 1.))
    r.Report.r_nodes;
  Alcotest.(check bool) "imbalance >= 1" true (r.Report.r_imbalance >= 1.);
  (* The rendered report and metrics CSV carry the headline number. *)
  let txt = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool)
    "report names the critical path" true
    (Helpers.contains txt "critical path by launch");
  let csv = Report.to_csv r in
  Alcotest.(check bool)
    "metrics csv has a total row" true
    (Helpers.contains csv "total,")

let test_cost_csv_row () =
  let c = Cost.create () in
  Cost.add_comm c ~bytes:10. ~messages:2 0.5;
  let fields s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int)
    "csv row matches header arity" (fields Cost.csv_header)
    (fields (Cost.to_csv_row c));
  Alcotest.(check bool)
    "row carries the total" true
    (Helpers.contains (Cost.to_csv_row c) "0.500000000")

let suite =
  [
    Alcotest.test_case "traced = untraced (outputs and cost)" `Quick
      test_traced_untraced_identical;
    Alcotest.test_case "sim spans independent of --domains" `Quick
      test_sim_spans_domain_independent;
    Alcotest.test_case "null trace records nothing" `Quick
      test_null_trace_records_nothing;
    test_span_sum;
    Alcotest.test_case "chrome export validates" `Quick test_chrome_export_valid;
    Alcotest.test_case "report reconciles with cost" `Quick test_report_reconciles;
    Alcotest.test_case "cost csv row" `Quick test_cost_csv_row;
  ]
