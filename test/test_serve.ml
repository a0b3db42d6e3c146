(* The serving front-end.

   Load-bearing invariants:
   - workload generation is a pure function of the seed, and trace files
     round-trip bit-exactly;
   - admission is a hard bound: beyond it jobs are shed with a structured
     [Admission] error, and deadline-hopeless jobs are shed with [Deadline]
     before costing the server anything;
   - a job cancelled at its deadline is charged only for the work done;
   - the whole serve loop is deterministic: same trace + config, same
     report, down to the CSV row;
   - the report and the tenant rows are folds over one job log: tenants
     sum to the run's counts and busy seconds, and the makespan covers
     every settled job;
   - tenant ids outside the trace's range are typed errors;
   - under an overload burst plus sustained faults the server never raises,
     never exceeds the cache byte budget, accounts every job, and degrades
     (blacklists crashing nodes, tightens admission) instead of dying. *)

open Spdistal_runtime
open Spdistal_serve
module Cache = Spdistal_exec.Cache

let is_config_error f =
  try
    ignore (f ());
    false
  with Error.Error { Error.phase = Error.Config; _ } -> true

(* ------------------------------------------------------------------ *)
(* Workload generation                                                 *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let gen = { Workload.default_gen with Workload.g_jobs = 64 } in
  let w1 = Workload.generate ~gen ~catalog:Catalog.names () in
  let w2 = Workload.generate ~gen ~catalog:Catalog.names () in
  Alcotest.(check bool) "same seed, same trace" true (w1 = w2);
  let w3 =
    Workload.generate
      ~gen:{ gen with Workload.g_seed = 43 }
      ~catalog:Catalog.names ()
  in
  Alcotest.(check bool) "different seed, different trace" true (w1 <> w3);
  Alcotest.(check int) "job count" 64 (List.length w1.Workload.w_jobs);
  (* Arrivals ascend; deadlines positive; queries come from the catalog. *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
        a.Workload.j_arrival <= b.Workload.j_arrival && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "arrivals ascend" true (ascending w1.Workload.w_jobs);
  List.iter
    (fun j ->
      Alcotest.(check bool) "deadline positive" true (j.Workload.j_deadline > 0.);
      Alcotest.(check bool)
        "query from the catalog" true
        (List.mem j.Workload.j_query Catalog.names))
    w1.Workload.w_jobs

let test_trace_roundtrip () =
  let gen =
    {
      Workload.default_gen with
      Workload.g_jobs = 40;
      g_burst = Some (0.02, 0.05, 3.);
    }
  in
  let w = Workload.generate ~gen ~catalog:Catalog.names () in
  (match Workload.of_string (Workload.to_string w) with
  | Ok w' -> Alcotest.(check bool) "string round trip is bit-exact" true (w = w')
  | Error msg -> Alcotest.fail msg);
  let path = Filename.temp_file "spdistal-serve" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Workload.save path w;
      Alcotest.(check bool)
        "file round trip is bit-exact" true
        (Workload.load path = w));
  (* Malformed inputs are structured errors, not exceptions from parsing. *)
  Alcotest.(check bool)
    "garbage header rejected" true
    (match Workload.of_string "not a trace\n" with
    | Error _ -> true
    | Ok _ -> false)

let test_generator_validation () =
  let check what gen =
    Alcotest.(check bool) what true
      (is_config_error (fun () ->
           Workload.generate ~gen ~catalog:Catalog.names ()))
  in
  let g = Workload.default_gen in
  check "NaN rate rejected" { g with Workload.g_rate = Float.nan };
  check "infinite rate rejected" { g with Workload.g_rate = Float.infinity };
  check "zero rate rejected" { g with Workload.g_rate = 0. };
  check "NaN alpha rejected" { g with Workload.g_alpha = Float.nan };
  check "NaN deadline rejected" { g with Workload.g_deadline = Float.nan };
  check "negative deadline rejected" { g with Workload.g_deadline = -1. };
  check "no jobs rejected" { g with Workload.g_jobs = 0 };
  check "NaN burst rejected"
    { g with Workload.g_burst = Some (Float.nan, 1., 2.) };
  check "sub-1 burst multiplier rejected"
    { g with Workload.g_burst = Some (0., 1., 0.5) };
  Alcotest.(check bool) "empty catalog rejected" true
    (is_config_error (fun () -> Workload.generate ~catalog:[] ()))

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_bound () =
  let a = Admission.create ~queue_bound:2 in
  (match Admission.decide a ~query:"q" ~depth:0 ~backlog:0. ~deadline:1. with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "empty queue must admit");
  (match Admission.decide a ~query:"q" ~depth:2 ~backlog:0.5 ~deadline:1. with
  | Admission.Reject e ->
      Alcotest.(check string) "queue-full phase" "admission"
        (Error.phase_name e.Error.phase)
  | Admission.Admit -> Alcotest.fail "full queue must shed");
  Alcotest.(check bool) "bound validated" true
    (is_config_error (fun () -> Admission.create ~queue_bound:0))

let test_admission_deadline_shedding () =
  let a = Admission.create ~queue_bound:8 in
  (* Unknown query: no estimate, so a tight deadline is still admitted (the
     server has to run it once to learn). *)
  (match Admission.decide a ~query:"q" ~depth:0 ~backlog:10. ~deadline:0.01 with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "no estimate: must admit");
  Admission.observe a "q" 0.2;
  (match Admission.estimate a "q" with
  | Some e -> Alcotest.(check (float 1e-9)) "estimate learned" 0.2 e
  | None -> Alcotest.fail "estimate missing");
  (* backlog + estimate > deadline: hopeless, shed with the Deadline phase. *)
  (match Admission.decide a ~query:"q" ~depth:0 ~backlog:0.5 ~deadline:0.6 with
  | Admission.Reject e ->
      Alcotest.(check string) "hopeless phase" "deadline"
        (Error.phase_name e.Error.phase)
  | Admission.Admit -> Alcotest.fail "hopeless job must shed");
  (* The same job fits when the backlog clears. *)
  match Admission.decide a ~query:"q" ~depth:0 ~backlog:0.1 ~deadline:0.6 with
  | Admission.Admit -> ()
  | Admission.Reject _ -> Alcotest.fail "feasible job must admit"

let test_admission_degrade () =
  let a = Admission.create ~queue_bound:32 in
  Admission.observe a "q" 0.1;
  Admission.degrade a ~alive:1 ~total:4;
  Alcotest.(check int) "bound contracts with capacity" 8 (Admission.bound a);
  (match Admission.estimate a "q" with
  | Some e ->
      Alcotest.(check (float 1e-9)) "estimates inflate by total/alive" 0.4 e
  | None -> Alcotest.fail "estimate missing");
  Alcotest.(check bool) "degrade validated" true
    (is_config_error (fun () -> Admission.degrade a ~alive:0 ~total:4))

let test_tenant_budget () =
  Alcotest.(check bool) "negative budget rejected" true
    (is_config_error (fun () -> Tenant.create ~retry_budget:(-1) 0));
  let t = Tenant.create ~retry_budget:2 7 in
  Alcotest.(check bool) "first retry granted" true (Tenant.try_retry t);
  Alcotest.(check bool) "second retry granted" true (Tenant.try_retry t);
  Alcotest.(check bool) "spent budget refuses" false (Tenant.try_retry t);
  Alcotest.(check bool) "still refuses" false (Tenant.try_retry t);
  Alcotest.(check bool) "Server.run rejects a negative budget" true
    (is_config_error (fun () ->
         Server.run
           { Server.default_config with Server.s_retry_budget = -1 }
           (Workload.generate
              ~gen:{ Workload.default_gen with Workload.g_jobs = 4 }
              ~catalog:Catalog.names ())))

(* Tenant ids are checked in one place, [Workload]: the trace parser and
   [Server.run] reject the same ids with a typed error. *)
let test_tenant_ids () =
  let trace tenants id =
    Printf.sprintf
      "spdistal-workload v1 tenants=%d\njob 0 0 spmv-web 0x0p+0 0x1p-1\n\
       job 1 %d spmv-web 0x1p-8 0x1p-1\n"
      tenants id
  in
  let workload tenants id =
    {
      Workload.w_tenants = tenants;
      w_jobs =
        [
          {
            Workload.j_id = 0;
            j_tenant = id;
            j_query = "spmv-web";
            j_arrival = 0.;
            j_deadline = 0.5;
          };
        ];
    }
  in
  let parse_error s =
    match Workload.of_string s with Ok _ -> None | Error msg -> Some msg
  in
  Alcotest.(check (option string)) "in-range ids parse" None
    (parse_error (trace 2 1));
  Alcotest.(check (option string))
    "negative id names its line"
    (Some "bad workload trace line 3: tenant -1 outside [0, 2)")
    (parse_error (trace 2 (-1)));
  Alcotest.(check (option string))
    "id = tenants names its line"
    (Some "bad workload trace line 3: tenant 2 outside [0, 2)")
    (parse_error (trace 2 2));
  Alcotest.(check (option string))
    "tenants=0 names the header"
    (Some "bad workload trace line 1: tenants=0 must be >= 1")
    (parse_error (trace 0 0));
  Alcotest.(check bool) "tenants=-3 rejected" true
    (parse_error (trace (-3) 0) <> None);
  let run w = Server.run Server.default_config w in
  Alcotest.(check bool) "Server.run: negative id" true
    (is_config_error (fun () -> run (workload 2 (-1))));
  Alcotest.(check bool) "Server.run: id = tenants" true
    (is_config_error (fun () -> run (workload 2 2)));
  Alcotest.(check bool) "Server.run: tenants=0" true
    (is_config_error (fun () -> run (workload 0 0)));
  Alcotest.(check int) "Server.run: in range" 1 (run (workload 2 1)).Server.r_jobs

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

let small_workload ?burst ?(jobs = 48) ?(deadline = 0.5) () =
  let gen =
    {
      Workload.default_gen with
      Workload.g_jobs = jobs;
      g_rate = 300.;
      g_deadline = deadline;
      g_burst = burst;
    }
  in
  Workload.generate ~gen ~catalog:Catalog.names ()

let accounted r =
  r.Server.r_completed + r.Server.r_shed + r.Server.r_deadline
  + r.Server.r_failed

(* The report and the tenant rows are folds over one job log: the tenants
   partition the run's counts and the lane's busy seconds, no tenant spends
   more re-admissions than its budget, and the lane is never busier than
   the run is long. *)
let check_accounting (r : Server.report) =
  let rows = List.map snd (Server.tenant_tallies r) in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 rows in
  let busy = List.fold_left (fun acc n -> acc +. n.Server.busy) 0. rows in
  Alcotest.(check bool) "tenant busy sums to the lane's busy" true
    (Float.abs (busy -. r.Server.r_busy) <= 1e-9 *. Float.abs r.Server.r_busy);
  List.iter
    (fun (what, f, total) -> Alcotest.(check int) what total (sum f))
    [
      ("tenant jobs sum", (fun n -> n.Server.jobs), r.Server.r_jobs);
      ("tenant completed sum", (fun n -> n.Server.completed), r.Server.r_completed);
      ("tenant shed sum", (fun n -> n.Server.shed), r.Server.r_shed);
      ("tenant deadline sum", (fun n -> n.Server.deadline), r.Server.r_deadline);
      ("tenant failed sum", (fun n -> n.Server.failed), r.Server.r_failed);
      ("tenant retries sum", (fun n -> n.Server.retries), r.Server.r_retries);
    ];
  List.iter
    (fun n ->
      Alcotest.(check bool) "tenant retries within budget" true
        (n.Server.retries <= r.Server.r_config.Server.s_retry_budget))
    rows;
  let sheds phase =
    List.length
      (List.filter
         (fun l ->
           match l.Server.l_outcome with
           | Server.Shed e -> e.Error.phase = phase
           | _ -> false)
         r.Server.r_log)
  in
  Alcotest.(check int) "every shed is queue-full or hopeless" r.Server.r_shed
    (sheds Error.Admission + sheds Error.Deadline);
  Alcotest.(check bool) "busy <= makespan" true
    (r.Server.r_busy <= r.Server.r_makespan);
  Alcotest.(check (float 0.)) "makespan is the last settle time"
    (List.fold_left
       (fun acc l -> Float.max acc l.Server.l_settled)
       0. r.Server.r_log)
    r.Server.r_makespan

let test_serve_deterministic () =
  let w = small_workload () in
  let r1 = Server.run Server.default_config w in
  let r2 = Server.run Server.default_config w in
  Alcotest.(check string) "same trace, same CSV row"
    (Server.csv_row ~scenario:"t" r1)
    (Server.csv_row ~scenario:"t" r2);
  Alcotest.(check int) "every job accounted" r1.Server.r_jobs (accounted r1);
  Alcotest.(check bool) "some jobs complete" true (r1.Server.r_completed > 0);
  Alcotest.(check bool) "cache hits across jobs" true
    (r1.Server.r_cache.Cache.hits > 0);
  (* p50 <= p99, throughput and makespan are consistent. *)
  Alcotest.(check bool) "p50 <= p99" true
    (r1.Server.r_p50_ms <= r1.Server.r_p99_ms);
  check_accounting r1

let test_deadline_charging () =
  (* Deadlines far below any service time: the first admitted job of each
     query runs (no estimate yet), blows its deadline and is cancelled —
     charged at most its deadline.  Once estimates exist, later jobs are
     shed as hopeless at admission instead of wasting the lane. *)
  let w = small_workload ~deadline:1e-4 () in
  let r = Server.run Server.default_config w in
  Alcotest.(check int) "nothing completes" 0 r.Server.r_completed;
  Alcotest.(check bool) "cancellations happened" true (r.Server.r_deadline > 0);
  Alcotest.(check bool) "estimates turn the rest into sheds" true
    (r.Server.r_shed > 0);
  check_accounting r;
  List.iter
    (fun l ->
      match l.Server.l_outcome with
      | Server.Deadline_exceeded charged ->
          Alcotest.(check bool) "charged only up to the deadline" true
            (charged >= 0. && charged <= l.Server.l_job.Workload.j_deadline +. 1e-12)
      | _ -> ())
    r.Server.r_log;
  (* The lane was never occupied longer than the sum of deadlines. *)
  let deadline_sum =
    List.fold_left
      (fun acc l -> acc +. l.Server.l_job.Workload.j_deadline)
      0. r.Server.r_log
  in
  Alcotest.(check bool) "busy bounded by cancellations" true
    (r.Server.r_busy <= deadline_sum +. 1e-9)

let test_backpressure_under_overload () =
  (* A tight queue bound under a hard burst: the server sheds with the
     admission phase instead of building an unbounded backlog. *)
  let w = small_workload ~burst:(0.0, 0.2, 6.) ~jobs:64 () in
  let cfg = { Server.default_config with Server.s_queue_bound = 4 } in
  let r = Server.run cfg w in
  Alcotest.(check bool) "sheds under overload" true (r.Server.r_shed > 0);
  let admission_sheds =
    List.filter
      (fun l ->
        match l.Server.l_outcome with
        | Server.Shed e -> e.Error.phase = Error.Admission
        | _ -> false)
      r.Server.r_log
  in
  Alcotest.(check bool) "some sheds are queue-full backpressure" true
    (admission_sheds <> []);
  Alcotest.(check int) "every job accounted" r.Server.r_jobs (accounted r);
  check_accounting r

let test_overload_chaos_soak () =
  (* The acceptance scenario: Zipf workload, overload burst, 10% faults.
     The server must keep answering, account every job, blacklist repeat
     offenders (tightening admission), and never exceed the cache byte
     budget. *)
  let w = small_workload ~burst:(0.03, 0.1, 4.) ~jobs:80 ~deadline:1. () in
  let budget = 1_048_576 in
  let cfg =
    {
      Server.default_config with
      Server.s_cache_budget = Some budget;
      s_faults = Fault.make ~seed:42 ~rate:0.1 ();
    }
  in
  let r = Server.run cfg w in
  Alcotest.(check int) "every job accounted" r.Server.r_jobs (accounted r);
  check_accounting r;
  Alcotest.(check bool) "still answering" true (r.Server.r_completed > 0);
  Alcotest.(check bool) "cache bytes never exceed the budget" true
    (r.Server.r_cache.Cache.bytes_peak <= budget);
  Alcotest.(check bool) "cache bytes at rest under the budget" true
    (r.Server.r_cache.Cache.bytes <= budget);
  (* Determinism holds under chaos too. *)
  let r2 = Server.run cfg w in
  Alcotest.(check string) "chaos run is deterministic"
    (Server.csv_row ~scenario:"t" r)
    (Server.csv_row ~scenario:"t" r2);
  (* The bench sweep's overload+chaos scenario ends on a deadline
     cancellation, after the last completion: the makespan must still
     cover it. *)
  let w =
    Workload.generate
      ~gen:
        {
          Workload.default_gen with
          Workload.g_jobs = 80;
          g_rate = 300.;
          g_burst = Some (0.05, 0.15, 4.);
        }
      ~catalog:Catalog.names ()
  in
  let r = Server.run { cfg with Server.s_faults = Fault.make ~seed:42 ~rate:0.1 () } w in
  let last =
    List.fold_left
      (fun a l -> if l.Server.l_settled > a.Server.l_settled then l else a)
      (List.hd r.Server.r_log) r.Server.r_log
  in
  Alcotest.(check string) "last job to settle was cancelled" "deadline-exceeded"
    (Server.outcome_label last.Server.l_outcome);
  check_accounting r

let test_blacklist_degradation () =
  (* Sustained crashes: nodes collect strikes, get blacklisted, the machine
     shrinks and admission tightens — and the server still completes
     work. *)
  let w = small_workload ~jobs:40 ~deadline:5. () in
  let cfg =
    {
      Server.default_config with
      Server.s_faults = Fault.make ~seed:42 ~rate:0.35 ~retries:1 ();
      s_retry_budget = 2;
    }
  in
  let r = Server.run cfg w in
  Alcotest.(check bool) "nodes blacklisted" true (r.Server.r_blacklisted <> []);
  Alcotest.(check bool) "admission tightened" true
    (r.Server.r_final_bound < cfg.Server.s_queue_bound);
  Alcotest.(check bool) "server still answers" true (r.Server.r_completed > 0);
  Alcotest.(check bool) "retries spent on re-admissions" true
    (r.Server.r_retries > 0);
  Alcotest.(check int) "every job accounted" r.Server.r_jobs (accounted r);
  check_accounting r

let test_csv_shape () =
  let field_count s = List.length (String.split_on_char ',' s) in
  let w = small_workload ~jobs:12 () in
  let r = Server.run ~baseline:true Server.default_config w in
  Alcotest.(check int) "row matches header"
    (field_count Server.csv_header)
    (field_count (Server.csv_row ~scenario:"t" r));
  match r.Server.r_baseline_throughput with
  | Some b -> Alcotest.(check bool) "baseline priced" true (b > 0.)
  | None -> Alcotest.fail "baseline requested but missing"

let test_serve_traced () =
  (* Tenant job spans land on tenant tracks with non-negative durations and
     the Chrome export validates. *)
  let module Trace = Spdistal_obs.Trace in
  let w = small_workload ~jobs:24 () in
  let trace = Trace.create () in
  let r = Server.run ~trace Server.default_config w in
  let job_spans =
    List.filter
      (fun sp ->
        sp.Trace.sp_cat = "job"
        && match sp.Trace.sp_track with Trace.Tenant _ -> true | _ -> false)
      (Trace.spans trace)
  in
  Alcotest.(check int) "one job span per job" r.Server.r_jobs
    (List.length job_spans);
  List.iter
    (fun sp ->
      Alcotest.(check bool) "span duration non-negative" true
        (sp.Trace.sp_dur >= 0.))
    job_spans;
  match
    Spdistal_obs.Chrome_trace.validate (Spdistal_obs.Chrome_trace.to_json trace)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("chrome export: " ^ msg)

(* Each settled job's log event is stamped where its trace span ends, so a
   log line joins its span: completed, shed, cancelled and failed alike. *)
let test_log_joins_span_end () =
  let module Trace = Spdistal_obs.Trace in
  let module Log = Spdistal_obs.Log in
  let w = small_workload ~jobs:40 ~deadline:5. () in
  let cfg =
    {
      Server.default_config with
      Server.s_faults = Fault.make ~seed:42 ~rate:0.35 ~retries:1 ();
    }
  in
  let trace = Trace.create () and log = Log.create () in
  Log.set_default log;
  let r =
    Fun.protect
      ~finally:(fun () -> Log.set_default Log.null)
      (fun () -> Server.run ~trace cfg w)
  in
  Alcotest.(check bool) "some job failed" true (r.Server.r_failed > 0);
  let span_end = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.Trace.sp_cat = "job" then
        Hashtbl.replace span_end sp.Trace.sp_name
          (sp.Trace.sp_start +. sp.Trace.sp_dur))
    (Trace.spans trace);
  let settled =
    List.filter
      (fun e ->
        List.mem e.Log.e_event
          [ "job_completed"; "job_shed"; "job_deadline_exceeded"; "job_failed" ])
      (Log.entries log)
  in
  Alcotest.(check int) "one settle event per job" r.Server.r_jobs
    (List.length settled);
  List.iter
    (fun e ->
      match (e.Log.e_span, e.Log.e_time) with
      | Some span, Some time ->
          Alcotest.(check (float 1e-12))
            (e.Log.e_event ^ " at its span's end")
            (Hashtbl.find span_end span) time
      | _ -> Alcotest.failf "%s without span or time" e.Log.e_event)
    settled

let test_server_config_validation () =
  let run cfg = Server.run cfg (small_workload ~jobs:4 ()) in
  Alcotest.(check bool) "zero nodes rejected" true
    (is_config_error (fun () ->
         run { Server.default_config with Server.s_nodes = 0 }));
  Alcotest.(check bool) "zero blacklist threshold rejected" true
    (is_config_error (fun () ->
         run { Server.default_config with Server.s_blacklist_after = 0 }));
  Alcotest.(check bool) "unknown catalog query rejected" true
    (is_config_error (fun () -> Catalog.find "no-such-query"))

(* Catalog problems share the memoized read-only inputs (SpAdd3's shifted
   C and D, every query's dense factors) but never an output: a context
   owns and overwrites its output, so two contexts over one query must not
   alias it. *)
let test_catalog_shares_inputs_not_outputs () =
  let open Spdistal_formats in
  let machine = Core.Spdistal.machine ~kind:Machine.Cpu [| 2 |] in
  let sparse p name =
    Spdistal_exec.Operand.find_sparse (Core.Spdistal.bindings p) name
  in
  let p1 = Catalog.problem ~machine "spadd3-stencil"
  and p2 = Catalog.problem ~machine "spadd3-stencil" in
  let b = Lazy.force (Catalog.find "spadd3-stencil").Catalog.c_tensor in
  let levels t =
    Array.map
      (function
        | Level.Dense { dim } -> `D dim
        | Level.Compressed { pos; crd } -> `C (pos.Region.data, crd.Region.data)
        | Level.Singleton { crd } -> `S crd.Region.data)
      t.Tensor.levels
  in
  let vals_bits t =
    Array.map Int64.bits_of_float (Region.F.to_array t.Tensor.vals)
  in
  List.iter
    (fun (name, by) ->
      let shared = sparse p1 name in
      Alcotest.(check bool)
        (name ^ " is one object across problems")
        true
        (shared == sparse p2 name);
      let fresh = Core.Kernels.shift_last_dim ~name ~by b in
      Alcotest.(check bool)
        (name ^ " pos/crd equal a fresh shift")
        true
        (levels shared = levels fresh);
      Alcotest.(check bool)
        (name ^ " vals bit-equal a fresh shift")
        true
        (vals_bits shared = vals_bits fresh))
    [ ("C", 1); ("D", 2) ];
  Alcotest.(check bool) "output A is fresh per problem" false
    (sparse p1 "A" == sparse p2 "A");
  List.iter
    (fun q ->
      Helpers.check_shared_inputs q
        (List.map
           (fun _ -> Core.Spdistal.bindings (Catalog.problem ~machine q))
           [ 1; 2 ]))
    Catalog.names

let suite =
  [
    Alcotest.test_case "catalog shares inputs, not outputs" `Quick
      test_catalog_shares_inputs_not_outputs;
    Alcotest.test_case "workload generation is seed-pure" `Quick
      test_generator_deterministic;
    Alcotest.test_case "trace files round-trip bit-exactly" `Quick
      test_trace_roundtrip;
    Alcotest.test_case "generator rejects NaN/inf parameters" `Quick
      test_generator_validation;
    Alcotest.test_case "admission: bounded queue sheds" `Quick
      test_admission_bound;
    Alcotest.test_case "admission: hopeless deadlines shed" `Quick
      test_admission_deadline_shedding;
    Alcotest.test_case "admission: degradation tightens" `Quick
      test_admission_degrade;
    Alcotest.test_case "tenant retry budgets" `Quick test_tenant_budget;
    Alcotest.test_case "tenant ids checked in one place" `Quick test_tenant_ids;
    Alcotest.test_case "serve is deterministic" `Quick test_serve_deterministic;
    Alcotest.test_case "deadline cancellation charges work done" `Quick
      test_deadline_charging;
    Alcotest.test_case "backpressure under overload" `Quick
      test_backpressure_under_overload;
    Alcotest.test_case "overload + chaos soak" `Quick test_overload_chaos_soak;
    Alcotest.test_case "blacklist and degrade under crashes" `Quick
      test_blacklist_degradation;
    Alcotest.test_case "CSV row shape + baseline" `Quick test_csv_shape;
    Alcotest.test_case "tenant tracks in the trace" `Quick test_serve_traced;
    Alcotest.test_case "log events stamped at span end" `Quick
      test_log_joins_span_end;
    Alcotest.test_case "config validation" `Quick test_server_config_validation;
  ]
