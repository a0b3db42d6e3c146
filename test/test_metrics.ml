(* The metrics plane: registry semantics (kinds, labels, null no-op),
   deterministic histogram quantiles, the sim-clock scraper, the structured
   event log, SLO parsing/evaluation — and the load-bearing determinism
   property: a serve run's scraped snapshots and Prometheus exposition are
   byte-identical across [--domains] and invariant under the fault seed
   when the fault rate is 0. *)

open Spdistal_serve
module Metrics = Spdistal_obs.Metrics
module Log = Spdistal_obs.Log
module Slo = Spdistal_obs.Slo
module Trace = Spdistal_obs.Trace

(* Every test that installs ambient defaults must restore [null]: the rest
   of the test binary assumes an uninstrumented process. *)
let with_defaults f =
  let reg = Metrics.create () in
  let lg = Log.create ~level:Log.Debug () in
  Metrics.set_default reg;
  Log.set_default lg;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_default Metrics.null;
      Log.set_default Log.null)
    (fun () -> f reg lg)

(* ------------------------------------------------------------------ *)
(* Registry basics                                                     *)
(* ------------------------------------------------------------------ *)

let test_counter_gauge () =
  let m = Metrics.create () in
  Metrics.inc m "jobs_total";
  Metrics.inc m ~by:2.5 "jobs_total";
  Alcotest.(check (option (float 1e-9)))
    "counter accumulates" (Some 3.5)
    (Metrics.value m "jobs_total");
  Metrics.set m "depth" 7.;
  Metrics.set m "depth" 3.;
  Alcotest.(check (option (float 1e-9)))
    "gauge overwrites" (Some 3.)
    (Metrics.value m "depth");
  (* Label order never distinguishes series. *)
  Metrics.inc m ~labels:[ ("a", "1"); ("b", "2") ] "labeled_total";
  Metrics.inc m ~labels:[ ("b", "2"); ("a", "1") ] "labeled_total";
  Alcotest.(check (option (float 1e-9)))
    "labels sorted internally" (Some 2.)
    (Metrics.value m ~labels:[ ("a", "1"); ("b", "2") ] "labeled_total");
  Alcotest.(check (option (float 1e-9)))
    "missing series" None
    (Metrics.value m ~labels:[ ("a", "9") ] "labeled_total")

let invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let test_kind_mismatch () =
  let m = Metrics.create () in
  Metrics.inc m "x_total";
  Alcotest.(check bool)
    "set on a counter" true
    (invalid (fun () -> Metrics.set m "x_total" 1.));
  Alcotest.(check bool)
    "observe on a counter" true
    (invalid (fun () -> Metrics.observe m "x_total" 1.));
  Alcotest.(check bool)
    "negative counter increment" true
    (invalid (fun () -> Metrics.inc m ~by:(-1.) "x_total"));
  Alcotest.(check bool)
    "bad metric name" true
    (invalid (fun () -> Metrics.inc m "has space"));
  Alcotest.(check bool)
    "duplicate label key" true
    (invalid (fun () -> Metrics.inc m ~labels:[ ("k", "a"); ("k", "b") ] "y_total"))

let test_null_noop () =
  Alcotest.(check bool) "null disabled" false (Metrics.enabled Metrics.null);
  Metrics.inc Metrics.null "ignored_total";
  Metrics.set Metrics.null "ignored" 1.;
  Metrics.observe Metrics.null "ignored_seconds" 1.;
  (* Call sites skip their own [enabled] check, so a null registry must
     also swallow the values an enabled one rejects. *)
  let live = Metrics.create () in
  Alcotest.check_raises "enabled rejects a negative increment"
    (Invalid_argument "Metrics: bad counter increment for ignored_total")
    (fun () -> Metrics.inc live ~by:(-1.) "ignored_total");
  Alcotest.check_raises "enabled rejects NaN"
    (Invalid_argument "Metrics: NaN observation for ignored_seconds")
    (fun () -> Metrics.observe live "ignored_seconds" Float.nan);
  Metrics.inc Metrics.null ~by:(-1.) "ignored_total";
  Metrics.observe Metrics.null "ignored_seconds" Float.nan;
  Alcotest.(check (option (float 1e-9)))
    "null records nothing" None
    (Metrics.value Metrics.null "ignored_total");
  Alcotest.(check int)
    "null snapshot empty" 0
    (List.length (Metrics.snapshot Metrics.null));
  Alcotest.(check bool) "null log disabled" false (Log.enabled Log.null);
  Log.event Log.null "ignored";
  Log.event Log.null ~level:Log.Error ~time:0. ~track:Trace.Runtime ~span:"s"
    ~fields:[ ("k", Trace.I 1) ]
    "ignored";
  Alcotest.(check int) "null log empty" 0 (List.length (Log.entries Log.null))

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let m = Metrics.create () in
  List.iter
    (fun v -> Metrics.observe m "lat_seconds" v)
    [ 0.001; 0.002; 0.004; 0.008; 0.1 ];
  (match Metrics.hist_stats m "lat_seconds" with
  | Some (n, sum) ->
      Alcotest.(check int) "count" 5 n;
      Alcotest.(check (float 1e-9)) "sum" 0.115 sum
  | None -> Alcotest.fail "histogram missing");
  let q p =
    match Metrics.quantile m "lat_seconds" p with
    | Some v -> v
    | None -> Alcotest.fail "quantile missing"
  in
  Alcotest.(check bool) "p50 <= p95" true (q 0.50 <= q 0.95);
  Alcotest.(check bool) "p95 <= p99" true (q 0.95 <= q 0.99);
  (* Each observation v lands in the bucket whose upper bound is the first
     boundary >= v, so every quantile dominates the observation at its
     rank; with 5 observations p99's rank is the max, 0.1. *)
  Alcotest.(check bool) "p99 covers the max" true (q 0.99 >= 0.1);
  Alcotest.(check (option (float 1e-9)))
    "empty histogram has no quantile" None
    (Metrics.quantile m "lat_seconds" 0.5 ~labels:[ ("t", "none") ])

let prop_quantile_monotone =
  Helpers.qtest ~count:100 "histogram quantiles monotone, count exact"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (float_range 1e-7 1e4))
    (fun obs ->
      let m = Metrics.create () in
      List.iter (fun v -> Metrics.observe m "h_seconds" v) obs;
      let q p =
        match Metrics.quantile m "h_seconds" p with
        | Some v -> v
        | None -> QCheck.Test.fail_report "quantile missing"
      in
      let qs = List.map q [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone qs
      && Metrics.hist_stats m "h_seconds" = Some (List.length obs, List.fold_left ( +. ) 0. obs)
      || (* float sums compare exactly only when accumulation order matches;
            tolerate rounding on the sum, the count must be exact. *)
      match Metrics.hist_stats m "h_seconds" with
      | Some (n, sum) ->
          monotone qs
          && n = List.length obs
          && abs_float (sum -. List.fold_left ( +. ) 0. obs) <= 1e-6 *. abs_float sum
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Scraper                                                             *)
(* ------------------------------------------------------------------ *)

let test_scrape_boundaries () =
  let m = Metrics.create () in
  let s = Metrics.Scrape.create ~interval:0.05 m in
  Metrics.inc m "ticks_total";
  Metrics.Scrape.tick s ~now:0.01;
  Alcotest.(check int) "no boundary crossed" 0 (List.length (Metrics.Scrape.rows s));
  Metrics.Scrape.tick s ~now:0.12;
  let times () = List.map fst (Metrics.Scrape.rows s) in
  Alcotest.(check (list (float 1e-9)))
    "boundaries 0.05 and 0.10" [ 0.05; 0.10 ] (times ());
  Metrics.Scrape.tick s ~now:0.12;
  Alcotest.(check int) "tick is idempotent" 2 (List.length (Metrics.Scrape.rows s));
  Metrics.Scrape.force s ~now:0.12;
  Alcotest.(check (list (float 1e-9)))
    "force appends the partial window" [ 0.05; 0.10; 0.12 ] (times ());
  Alcotest.(check bool)
    "csv carries the series" true
    (Helpers.contains (Metrics.Scrape.to_csv s) "0.05,ticks_total,1");
  Alcotest.(check bool)
    "non-positive interval rejected" true
    (invalid (fun () -> ignore (Metrics.Scrape.create ~interval:0. m)))

let test_wall_exclusion () =
  let m = Metrics.create () in
  Metrics.inc m "det_total";
  Metrics.inc m ~wall:true "wall_seconds_total";
  let names ?wall () =
    List.map (fun s -> s.Metrics.sm_name) (Metrics.snapshot ?wall m)
  in
  Alcotest.(check (list string))
    "wall families excluded by default" [ "det_total" ] (names ());
  Alcotest.(check (list string))
    "included on request"
    [ "det_total"; "wall_seconds_total" ]
    (names ~wall:true ());
  Alcotest.(check bool)
    "exposition skips wall families" false
    (Helpers.contains (Metrics.expose m) "wall_seconds_total")

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let test_log_jsonl () =
  let lg = Log.create ~level:Log.Info () in
  Log.event lg ~level:Log.Debug "dropped_below_level";
  Log.event lg ~level:Log.Warn ~time:1.25 ~track:(Trace.Tenant 1)
    ~span:"job 3 spmv-web"
    ~fields:
      [ ("job", Trace.I 3); ("reason", Trace.S "queue \"full\""); ("ok", Trace.B false) ]
    "job_shed";
  Alcotest.(check int) "below-level dropped" 1 (List.length (Log.entries lg));
  let line = String.trim (Log.to_jsonl lg) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "jsonl has %s" needle)
        true
        (Helpers.contains line needle))
    [
      "\"seq\":0";
      "\"t\":1.25";
      "\"level\":\"warn\"";
      "\"event\":\"job_shed\"";
      "\"span\":\"job 3 spmv-web\"";
      "\"job\":3";
      "\"reason\":\"queue \\\"full\\\"\"";
      "\"ok\":false";
    ];
  (* track renders with the same pid/tid the Chrome exporter uses. *)
  Alcotest.(check bool) "pid present" true (Helpers.contains line "\"pid\":");
  Alcotest.(check bool) "tid present" true (Helpers.contains line "\"tid\":")

(* ------------------------------------------------------------------ *)
(* SLOs                                                                *)
(* ------------------------------------------------------------------ *)

let test_slo_parse () =
  let text =
    "# latency\np99_ms <= 200\nshed_rate <= 0.05 budget=0.1\n\nhit_rate >= 0.4\n"
  in
  (match Slo.parse text with
  | Ok [ a; b; c ] ->
      Alcotest.(check string) "metric" "p99_ms" a.Slo.o_metric;
      Alcotest.(check bool) "op" true (a.Slo.o_op = Slo.Le);
      Alcotest.(check (float 1e-9)) "bound" 200. a.Slo.o_bound;
      Alcotest.(check (float 1e-9)) "default budget" 0. a.Slo.o_budget;
      Alcotest.(check (float 1e-9)) "explicit budget" 0.1 b.Slo.o_budget;
      Alcotest.(check bool) "ge op" true (c.Slo.o_op = Slo.Ge)
  | Ok l -> Alcotest.failf "expected 3 objectives, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  (match Slo.parse "p99_ms <= not_a_number" with
  | Error e ->
      Alcotest.(check bool)
        "error names the offender" true
        (Helpers.contains e "not_a_number")
  | Ok _ -> Alcotest.fail "bad bound accepted");
  match Slo.parse "# only comments\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty objective file accepted"

let window t values = { Slo.w_time = t; w_tags = []; w_values = values }

let test_slo_evaluate () =
  let windows =
    [
      window 0.1 [ ("spdistal_serve_p99_ms", 150.) ];
      window 0.2 [ ("spdistal_serve_p99_ms", 250.) ];
      window 0.3 [ ("spdistal_serve_p99_ms", 120.) ];
      window 0.4 [ ("spdistal_serve_p99_ms", 130.) ];
    ]
  in
  let eval line =
    match Slo.parse line with
    | Error e -> Alcotest.fail e
    | Ok objectives -> (
        match Slo.evaluate objectives windows with
        | Error e -> Alcotest.fail e
        | Ok vs -> vs)
  in
  (* Suffix resolution: p99_ms finds spdistal_serve_p99_ms.  One of four
     windows violates; burn 0.25. *)
  (match eval "p99_ms <= 200" with
  | [ v ] ->
      Alcotest.(check (list string))
        "resolved key" [ "spdistal_serve_p99_ms" ] v.Slo.d_keys;
      Alcotest.(check int) "windows" 4 v.Slo.d_windows;
      Alcotest.(check int) "violations" 1 v.Slo.d_violations;
      Alcotest.(check (float 1e-9)) "burn" 0.25 v.Slo.d_burn;
      Alcotest.(check bool) "zero budget fails" false v.Slo.d_ok;
      (match v.Slo.d_worst with
      | Some (t, value) ->
          Alcotest.(check (float 1e-9)) "worst window" 0.2 t;
          Alcotest.(check (float 1e-9)) "worst value" 250. value
      | None -> Alcotest.fail "no worst window")
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs));
  (match eval "p99_ms <= 200 budget=0.3" with
  | [ v ] -> Alcotest.(check bool) "burn within budget" true v.Slo.d_ok
  | _ -> Alcotest.fail "expected 1 verdict");
  match Slo.parse "nonexistent <= 1" with
  | Error e -> Alcotest.fail e
  | Ok objectives -> (
      match Slo.evaluate objectives windows with
      | Error e ->
          Alcotest.(check bool)
            "unresolved metric is an error" true
            (Helpers.contains e "nonexistent")
      | Ok _ -> Alcotest.fail "unresolved metric accepted")

let test_slo_wide_csv () =
  let csv =
    "# a comment\n\
     scenario,jobs,p99_ms,shed_rate\n\
     steady,240,80.5,0.01\n\
     chaos,240,300.0,0.20\n"
  in
  match Slo.windows_of_csv csv with
  | Error e -> Alcotest.fail e
  | Ok windows ->
      Alcotest.(check int) "one window per data row" 2 (List.length windows);
      let chaos = Slo.select ~key:"scenario" ~value:"chaos" windows in
      Alcotest.(check int) "select keeps the tagged row" 1 (List.length chaos);
      let objectives =
        match Slo.parse "p99_ms <= 200" with Ok o -> o | Error e -> Alcotest.fail e
      in
      (match Slo.evaluate objectives chaos with
      | Ok vs -> Alcotest.(check bool) "chaos violates" false (Slo.ok vs)
      | Error e -> Alcotest.fail e);
      (match
         Slo.evaluate objectives (Slo.select ~key:"scenario" ~value:"steady" windows)
       with
      | Ok vs -> Alcotest.(check bool) "steady holds" true (Slo.ok vs)
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Golden: Prometheus exposition of a hand-built registry              *)
(* ------------------------------------------------------------------ *)

let test_expose_golden () =
  let m = Metrics.create () in
  Metrics.inc m ~help:"settled jobs" ~labels:[ ("outcome", "completed") ]
    ~by:12. "demo_jobs_total";
  Metrics.inc m ~labels:[ ("outcome", "shed") ] ~by:3. "demo_jobs_total";
  Metrics.set m ~help:"queue depth" "demo_queue_depth" 4.;
  Metrics.observe m ~help:"latency" ~buckets:[| 0.01; 0.1; 1. |]
    "demo_latency_seconds" 0.005;
  Metrics.observe m "demo_latency_seconds" 0.05;
  Metrics.observe m "demo_latency_seconds" 0.05;
  Metrics.observe m "demo_latency_seconds" 2.;
  Metrics.inc m ~wall:true "demo_wall_seconds_total" ~by:1.5;
  Test_golden.check_golden "metrics_expose.prom" (Metrics.expose m)

(* ------------------------------------------------------------------ *)
(* Determinism across domains and fault seeds                          *)
(* ------------------------------------------------------------------ *)

(* One serve run with the metrics plane on: returns (scrape csv, scrape
   jsonl, exposition) — the full deterministic surface. *)
let serve_metrics ~domains ~fault_rate ~fault_seed seed =
  with_defaults (fun reg _lg ->
      let scrape = Metrics.Scrape.create ~interval:0.02 reg in
      let gen =
        {
          Workload.default_gen with
          Workload.g_seed = seed;
          g_jobs = 30;
          g_rate = 300.;
        }
      in
      let w = Workload.generate ~gen ~catalog:Catalog.names () in
      let faults =
        if fault_rate > 0. then
          Spdistal_runtime.Fault.make ~seed:fault_seed ~rate:fault_rate ()
        else Spdistal_runtime.Fault.disabled
      in
      let cfg = { Server.default_config with Server.s_faults = faults } in
      ignore (Server.run ~domains ~scrape cfg w);
      ( Metrics.Scrape.to_csv scrape,
        Metrics.Scrape.to_jsonl scrape,
        Metrics.expose reg ))

let prop_domains_identical =
  Helpers.qtest ~count:4 "snapshots byte-identical across --domains 1 vs 4"
    QCheck.(int_range 1 1000)
    (fun seed ->
      serve_metrics ~domains:1 ~fault_rate:0.1 ~fault_seed:7 seed
      = serve_metrics ~domains:4 ~fault_rate:0.1 ~fault_seed:7 seed)

let prop_fault_seed_invariant_at_rate0 =
  Helpers.qtest ~count:4 "snapshots invariant under fault seed at rate 0"
    QCheck.(pair (int_range 1 1000) (pair (int_range 0 99) (int_range 100 199)))
    (fun (seed, (s1, s2)) ->
      serve_metrics ~domains:1 ~fault_rate:0. ~fault_seed:s1 seed
      = serve_metrics ~domains:1 ~fault_rate:0. ~fault_seed:s2 seed)

let suite =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counter_gauge;
    Alcotest.test_case "kind and argument validation" `Quick test_kind_mismatch;
    Alcotest.test_case "null registry and log are no-ops" `Quick test_null_noop;
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    prop_quantile_monotone;
    Alcotest.test_case "scrape boundaries" `Quick test_scrape_boundaries;
    Alcotest.test_case "wall families excluded" `Quick test_wall_exclusion;
    Alcotest.test_case "event log jsonl" `Quick test_log_jsonl;
    Alcotest.test_case "slo parsing" `Quick test_slo_parse;
    Alcotest.test_case "slo evaluation and budgets" `Quick test_slo_evaluate;
    Alcotest.test_case "slo over a wide results csv" `Quick test_slo_wide_csv;
    Alcotest.test_case "prometheus exposition golden" `Quick test_expose_golden;
    prop_domains_identical;
    prop_fault_seed_invariant_at_rate0;
  ]
