(* The serve engine: a virtual-clock FCFS job loop over one shared cache.

   The server is a single service lane on the simulated clock (the same
   clock [Cost] prices): jobs arrive at their trace timestamps, are admitted
   or shed at arrival, run FCFS when the lane frees up, and are cancelled at
   their deadline — charged only for the work actually done.  All contexts
   share one byte-budgeted [Cache], so a popular query's dependent
   partitioning is paid once across every tenant that asks for it.

   Failure handling is layered:

   - inside a launch, [Fault] recovery absorbs transient faults as usual;
   - a job whose recovery is exhausted (a DNC) is re-admitted after
     [Fault.backoff_time], gated by its tenant's retry budget;
   - nodes that crash repeatedly collect strikes; at [blacklist_after]
     strikes a node is blacklisted across iterations — the machine is
     rebuilt on the survivors, every context is rebuilt against it, and
     admission tightens ([Admission.degrade]) so the shrunken server
     promises less instead of missing deadlines.  The server itself never
     stops answering: at least one node always remains. *)

open Spdistal_runtime
module Trace = Spdistal_obs.Trace
module Metrics = Spdistal_obs.Metrics
module Log = Spdistal_obs.Log
module Cache = Spdistal_exec.Cache
module Spdistal = Core.Spdistal

type config = {
  s_nodes : int;
  s_queue_bound : int;
  s_cache_cap : int;
  s_cache_budget : int option;  (* cache byte budget; [None] = unlimited *)
  s_retry_budget : int;  (* per-tenant re-admissions *)
  s_blacklist_after : int;  (* crash strikes before a node is blacklisted *)
  s_faults : Fault.config;
  s_auto : bool;  (* auto-schedule catalog problems (winners share the cache) *)
}

let default_config =
  {
    s_nodes = 4;
    s_queue_bound = 32;
    s_cache_cap = 64;
    s_cache_budget = Some 1_048_576;
    s_retry_budget = 2;
    s_blacklist_after = 3;
    s_faults = Fault.disabled;
    s_auto = false;
  }

let validate cfg =
  if cfg.s_nodes < 1 then
    Error.fail Error.Config "serve nodes %d must be >= 1" cfg.s_nodes;
  if cfg.s_blacklist_after < 1 then
    Error.fail Error.Config "serve blacklist threshold %d must be >= 1"
      cfg.s_blacklist_after

type outcome =
  | Completed of float  (* response time (wait + service), sim seconds *)
  | Shed of Error.t  (* rejected at admission; cost the server nothing *)
  | Deadline_exceeded of float  (* work charged before cancellation *)
  | Failed of Error.t  (* DNC with the retry budget exhausted *)

type job_log = {
  l_job : Workload.job;
  l_outcome : outcome;
  l_attempts : int;  (* admissions actually run: 1 + retries *)
  l_hits : int;  (* cache hits this job observed *)
}

type report = {
  r_config : config;
  r_jobs : int;
  r_completed : int;
  r_shed : int;
  r_deadline : int;
  r_failed : int;
  r_retries : int;
  r_p50_ms : float;
  r_p95_ms : float;
  r_p99_ms : float;
  r_mean_ms : float;  (* all over completed jobs' response times *)
  r_hit_rate : float;  (* cache hits / lookups across the whole run *)
  r_shed_rate : float;  (* shed / submitted *)
  r_throughput : float;  (* completed jobs per simulated second *)
  r_makespan : float;  (* last completion (or arrival), sim seconds *)
  r_busy : float;  (* sim seconds the service lane was occupied *)
  r_baseline_throughput : float option;
      (* single-tenant reference: every job cold, no sharing *)
  r_cache : Cache.stats;
  r_blacklisted : int list;  (* original node ids, sorted *)
  r_final_bound : int;  (* queue bound after degradation *)
  r_tenants : Tenant.t list;
  r_log : job_log list;  (* per-job outcomes, trace order *)
}

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  cfg : config;
  cache : Cache.t;
  mutable machine : Machine.t;
  mutable alive : int array;  (* current node index -> original node id *)
  strikes : (int, int) Hashtbl.t;  (* original node id -> crash strikes *)
  mutable blacklisted : int list;  (* original node ids *)
  contexts : (string, Spdistal.Context.ctx) Hashtbl.t;  (* one per query *)
  admission : Admission.t;
  mutable free : float;  (* when the service lane frees up *)
  mutable busy : float;
  mutable finishes : float list;  (* admitted jobs' finish times, for depth *)
}

let scaled_params () =
  Machine.scale_params Spdistal_workloads.Datasets.scale Machine.lassen

let make_machine nodes =
  Machine.make ~params:(scaled_params ()) ~kind:Machine.Cpu [| nodes |]

let create cfg =
  validate cfg;
  {
    cfg;
    cache = Cache.create ~cap:cfg.s_cache_cap ?byte_budget:cfg.s_cache_budget ();
    machine = make_machine cfg.s_nodes;
    alive = Array.init cfg.s_nodes Fun.id;
    strikes = Hashtbl.create 8;
    blacklisted = [];
    contexts = Hashtbl.create 16;
    admission = Admission.create ~queue_bound:cfg.s_queue_bound;
    free = 0.;
    busy = 0.;
    finishes = [];
  }

let context t query =
  match Hashtbl.find_opt t.contexts query with
  | Some ctx -> ctx
  | None ->
      let problem = Catalog.problem ~machine:t.machine query in
      (* Auto mode reschedules each catalog problem once per (machine,
         pattern): the winner is remembered in the shared cache, so later
         contexts (and machine rebuilds after blacklisting) replan for
         free. *)
      let problem =
        if t.cfg.s_auto then Spdistal_opt.Auto.schedule ~cache:t.cache problem
        else problem
      in
      let ctx = Spdistal.Context.create ~shared_cache:t.cache problem in
      Hashtbl.replace t.contexts query ctx;
      ctx

(* Record crash strikes against the *original* ids of the nodes that
   crashed; blacklist any node past the threshold (always keeping one node
   alive), rebuild the machine on the survivors and tighten admission.
   Contexts are dropped — their problems name the dead machine — and the
   shared cache stays: stale entries can never be found again (the digest
   covers the machine) and the LRU evicts them under byte pressure. *)
let strike t crashed =
  List.iter
    (fun node ->
      if node >= 0 && node < Array.length t.alive then begin
        let orig = t.alive.(node) in
        let n = Option.value ~default:0 (Hashtbl.find_opt t.strikes orig) in
        Hashtbl.replace t.strikes orig (n + 1)
      end)
    crashed;
  let doomed, survivors =
    Array.to_list t.alive
    |> List.partition (fun orig ->
           Option.value ~default:0 (Hashtbl.find_opt t.strikes orig)
           >= t.cfg.s_blacklist_after)
  in
  if doomed <> [] then begin
    let survivors =
      match survivors with
      | [] ->
          (* Every node is past the threshold; keep the lowest-numbered one
             so the server keeps answering (degraded, never dead). *)
          [ List.fold_left min max_int doomed ]
      | s -> s
    in
    t.blacklisted <-
      List.sort_uniq compare
        (List.filter (fun o -> not (List.mem o survivors)) doomed
        @ t.blacklisted);
    t.alive <- Array.of_list survivors;
    t.machine <- make_machine (List.length survivors);
    Hashtbl.reset t.contexts;
    Admission.degrade t.admission ~alive:(List.length survivors)
      ~total:t.cfg.s_nodes;
    Metrics.set (Metrics.default ())
      ~help:"nodes blacklisted after repeated crash strikes"
      "spdistal_serve_blacklisted_nodes"
      (float_of_int (List.length t.blacklisted));
    Log.event (Log.default ()) ~level:Log.Warn
      ~fields:
        [
          ( "blacklisted",
            Trace.S
              (String.concat "," (List.map string_of_int t.blacklisted)) );
          ("alive", Trace.I (List.length survivors));
        ]
      "node_blacklisted"
  end

(* Per-(job, attempt) fault seeding: every admission of every job draws an
   independent deterministic schedule, so a retry is not doomed to replay
   the exact crash that killed the previous attempt. *)
let job_faults cfg ~job ~attempt =
  if Fault.enabled cfg.s_faults then
    Some
      {
        cfg.s_faults with
        Fault.seed = cfg.s_faults.Fault.seed + (997 * job) + attempt;
      }
  else None

(* ------------------------------------------------------------------ *)
(* One admitted job                                                    *)
(* ------------------------------------------------------------------ *)

let hits_of before after =
  match (before, after) with
  | Some (b : Cache.stats), Some (a : Cache.stats) -> a.Cache.hits - b.Cache.hits
  | _ -> 0

(* Run one admitted job to its outcome, starting service at [start]
   (>= arrival).  Returns (outcome, finish time, attempts run, hits). *)
let run_job t ?domains ?leaf_backend ~trace ~tenant (job : Workload.job) ~start
    =
  let deadline_abs = job.Workload.j_arrival +. job.Workload.j_deadline in
  let rec go start attempt hits =
    if start >= deadline_abs then
      (* The lane freed up past the deadline: cancelled before any work ran,
         charged nothing. *)
      (Deadline_exceeded 0., start, attempt, hits)
    else begin
      let ctx = context t job.Workload.j_query in
      let before = Spdistal.Context.cache_stats ctx in
      let result =
        Spdistal.Context.run ?domains ?leaf_backend ~trace
          ?faults:(job_faults t.cfg ~job:job.Workload.j_id ~attempt)
          ctx
      in
      let hits = hits + hits_of before (Spdistal.Context.cache_stats ctx) in
      strike t result.Spdistal.crashed;
      let service = result.Spdistal.cost.Cost.total in
      match result.Spdistal.dnc with
      | None ->
          (* Feed the true service time into admission regardless of the
             deadline outcome — the estimate should reflect reality. *)
          Admission.observe t.admission job.Workload.j_query service;
          if start +. service > deadline_abs then begin
            let charged = deadline_abs -. start in
            t.busy <- t.busy +. charged;
            (Deadline_exceeded charged, deadline_abs, attempt, hits)
          end
          else begin
            t.busy <- t.busy +. service;
            ( Completed (start +. service -. job.Workload.j_arrival),
              start +. service,
              attempt,
              hits )
          end
      | Some reason ->
          (* The attempt died (recovery exhausted).  Charge the work done up
             to the deadline, then re-admit after backoff if the tenant has
             retry budget left and the deadline leaves room. *)
          let charged = min service (deadline_abs -. start) in
          t.busy <- t.busy +. charged;
          let now = start +. charged in
          if now >= deadline_abs then
            (Deadline_exceeded charged, deadline_abs, attempt, hits)
          else if Tenant.try_retry tenant then
            go (now +. Fault.backoff_time t.cfg.s_faults attempt) (attempt + 1)
              hits
          else
            let err =
              {
                Error.phase = Error.Recovery;
                kernel = Some job.Workload.j_query;
                piece = None;
                node =
                  (match result.Spdistal.crashed with
                  | n :: _ -> Some n
                  | [] -> None);
                what = reason ^ "; tenant retry budget exhausted";
              }
            in
            (Failed err, now, attempt, hits)
    end
  in
  go start 1 0

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) i))

let outcome_label = function
  | Completed _ -> "completed"
  | Shed e -> Error.phase_name e.Error.phase ^ "-shed"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Failed _ -> "failed"

(* Per-job serve metrics and log events, emitted on the (sequential) serve
   loop after each job settles — so the series are deterministic whenever
   the run is.  Latencies go into three histogram families (aggregate,
   per-tenant, per-query — separate families so label cardinality stays
   additive), and the headline gauges (pXX_ms, shed/hit rate) are re-derived
   after every job so scrape windows always see current values. *)
let note_job_metrics t ~submitted ~shed_total (entry : job_log) =
  let m = Metrics.default () in
  let job = entry.l_job in
  let outcome =
    match entry.l_outcome with
    | Completed _ -> "completed"
    | Shed _ -> "shed"
    | Deadline_exceeded _ -> "deadline"
    | Failed _ -> "failed"
  in
  Metrics.inc m
    ~labels:[ ("outcome", outcome) ]
    ~help:"jobs settled by outcome" "spdistal_serve_jobs_total";
  (match entry.l_outcome with
  | Completed resp ->
      Metrics.observe m ~help:"response time (wait + service), sim seconds"
        "spdistal_serve_latency_seconds" resp;
      Metrics.observe m
        ~labels:[ ("tenant", string_of_int job.Workload.j_tenant) ]
        "spdistal_serve_tenant_latency_seconds" resp;
      Metrics.observe m
        ~labels:[ ("query", job.Workload.j_query) ]
        "spdistal_serve_query_latency_seconds" resp
  | _ -> ());
  let q suffix p =
    match Metrics.quantile m "spdistal_serve_latency_seconds" p with
    | Some s ->
        Metrics.set m
          ~help:"completed-job latency quantile (histogram bucket bound)"
          ("spdistal_serve_" ^ suffix) (1e3 *. s)
    | None -> ()
  in
  q "p50_ms" 0.50;
  q "p95_ms" 0.95;
  q "p99_ms" 0.99;
  Metrics.set m ~help:"shed / submitted so far" "spdistal_serve_shed_rate"
    (float_of_int shed_total /. float_of_int (max 1 submitted));
  let cs = Cache.stats t.cache in
  let lookups = cs.Cache.hits + cs.Cache.misses in
  Metrics.set m
    ~help:"shared-cache hits / lookups (lookups happen only for admitted attempts)"
    "spdistal_serve_hit_rate"
    (if lookups = 0 then 0.
     else float_of_int cs.Cache.hits /. float_of_int lookups)

let note_job_log (entry : job_log) =
  let lg = Log.default () in
  if Log.enabled lg then begin
    let job = entry.l_job in
    let span = Printf.sprintf "job %d %s" job.Workload.j_id job.Workload.j_query in
    let track = Trace.Tenant job.Workload.j_tenant in
    let base =
      [
        ("job", Trace.I job.Workload.j_id);
        ("query", Trace.S job.Workload.j_query);
        ("attempts", Trace.I entry.l_attempts);
        ("hits", Trace.I entry.l_hits);
      ]
    in
    match entry.l_outcome with
    | Completed resp ->
        Log.event lg ~time:(job.Workload.j_arrival +. resp) ~track ~span
          ~fields:(base @ [ ("resp_ms", Trace.F (1e3 *. resp)) ])
          "job_completed"
    | Shed err ->
        Log.event lg ~level:Log.Warn ~time:job.Workload.j_arrival ~track ~span
          ~fields:(base @ [ ("reason", Trace.S (Error.to_string err)) ])
          "job_shed"
    | Deadline_exceeded charged ->
        Log.event lg ~level:Log.Warn
          ~time:(job.Workload.j_arrival +. job.Workload.j_deadline)
          ~track ~span
          ~fields:(base @ [ ("charged_s", Trace.F charged) ])
          "job_deadline_exceeded"
    | Failed err ->
        Log.event lg ~level:Log.Error ~time:job.Workload.j_arrival ~track ~span
          ~fields:(base @ [ ("error", Trace.S (Error.to_string err)) ])
          "job_failed"
  end

let serve ?domains ?leaf_backend ?(trace = Trace.null) ?scrape t
    (w : Workload.t) =
  let tenants =
    Array.init (max 1 w.Workload.w_tenants)
      (Tenant.create ~retry_budget:t.cfg.s_retry_budget)
  in
  let jobs =
    List.sort
      (fun a b -> compare a.Workload.j_arrival b.Workload.j_arrival)
      w.Workload.w_jobs
  in
  let log = ref [] in
  let shed_total = ref 0 in
  let submitted = ref 0 in
  List.iter
    (fun (job : Workload.job) ->
      let tenant =
        tenants.(job.Workload.j_tenant mod Array.length tenants)
      in
      tenant.Tenant.submitted <- tenant.Tenant.submitted + 1;
      incr submitted;
      let arrival = job.Workload.j_arrival in
      (* Snapshot every interval boundary the virtual clock has crossed
         before this arrival mutates anything. *)
      Option.iter (fun s -> Metrics.Scrape.tick s ~now:arrival) scrape;
      (* Queue depth at arrival: admitted jobs that have not finished. *)
      t.finishes <- List.filter (fun f -> f > arrival) t.finishes;
      let depth = List.length t.finishes in
      let backlog = Float.max 0. (t.free -. arrival) in
      let decision =
        Admission.decide t.admission ~query:job.Workload.j_query ~depth
          ~backlog ~deadline:job.Workload.j_deadline
      in
      let entry =
        match decision with
        | Admission.Reject err ->
            incr shed_total;
            tenant.Tenant.shed <- tenant.Tenant.shed + 1;
            { l_job = job; l_outcome = Shed err; l_attempts = 0; l_hits = 0 }
        | Admission.Admit ->
            (let lg = Log.default () in
             if Log.enabled lg then
               Log.event lg ~level:Log.Debug ~time:arrival
                 ~track:(Trace.Tenant job.Workload.j_tenant)
                 ~span:
                   (Printf.sprintf "job %d %s" job.Workload.j_id
                      job.Workload.j_query)
                 ~fields:
                   [
                     ("job", Trace.I job.Workload.j_id);
                     ("depth", Trace.I depth);
                     ("backlog_s", Trace.F backlog);
                   ]
                 "job_admitted");
            let start = Float.max arrival t.free in
            let busy_before = t.busy in
            let outcome, finish, attempts, hits =
              run_job t ?domains ?leaf_backend ~trace ~tenant job ~start
            in
            Metrics.inc (Metrics.default ())
              ~by:(t.busy -. busy_before)
              ~help:"sim seconds the service lane was occupied"
              "spdistal_serve_busy_seconds_total";
            t.free <- Float.max t.free finish;
            t.finishes <- finish :: t.finishes;
            (match outcome with
            | Completed resp ->
                tenant.Tenant.completed <- tenant.Tenant.completed + 1;
                tenant.Tenant.busy <- tenant.Tenant.busy +. resp
            | Deadline_exceeded charged ->
                tenant.Tenant.deadline_exceeded <-
                  tenant.Tenant.deadline_exceeded + 1;
                tenant.Tenant.busy <- tenant.Tenant.busy +. charged
            | Failed _ -> tenant.Tenant.failed <- tenant.Tenant.failed + 1
            | Shed _ -> ());
            { l_job = job; l_outcome = outcome; l_attempts = attempts; l_hits = hits }
      in
      (if Trace.enabled trace then begin
         let finish =
           match entry.l_outcome with
           | Shed _ -> arrival
           | Completed resp -> arrival +. resp
           | Deadline_exceeded _ -> arrival +. job.Workload.j_deadline
           | Failed _ -> Float.max arrival t.free
         in
         Trace.span trace
           ~track:(Trace.Tenant job.Workload.j_tenant)
           ~clock:Trace.Sim ~cat:"job"
           ~args:
             [
               ("status", Trace.S (outcome_label entry.l_outcome));
               ("query", Trace.S job.Workload.j_query);
               ("attempts", Trace.I entry.l_attempts);
             ]
           ~start:arrival
           ~dur:(Float.max 0. (finish -. arrival))
           (Printf.sprintf "job %d %s" job.Workload.j_id job.Workload.j_query);
         let cs = Cache.stats t.cache in
         Trace.counter trace ~name:"serve" ~time:arrival
           [
             ("queue_depth", float_of_int depth);
             ("shed_total", float_of_int !shed_total);
             ("cache_bytes", float_of_int cs.Cache.bytes);
           ]
       end);
      note_job_metrics t ~submitted:!submitted ~shed_total:!shed_total entry;
      note_job_log entry;
      log := entry :: !log)
    jobs;
  let log = List.rev !log in
  let latencies =
    List.filter_map
      (fun l -> match l.l_outcome with Completed r -> Some r | _ -> None)
      log
  in
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  let completed = Array.length sorted in
  let count f = List.length (List.filter f log) in
  let shed = count (fun l -> match l.l_outcome with Shed _ -> true | _ -> false) in
  let deadline =
    count (fun l ->
        match l.l_outcome with Deadline_exceeded _ -> true | _ -> false)
  in
  let failed =
    count (fun l -> match l.l_outcome with Failed _ -> true | _ -> false)
  in
  let retries =
    Array.to_list tenants |> List.map (fun t -> t.Tenant.retries)
    |> List.fold_left ( + ) 0
  in
  let makespan =
    List.fold_left
      (fun acc l ->
        match l.l_outcome with
        | Completed r -> Float.max acc (l.l_job.Workload.j_arrival +. r)
        | _ -> Float.max acc l.l_job.Workload.j_arrival)
      0. log
  in
  (* Close the scrape series: any boundaries the tail of the run crossed,
     plus one final row at the makespan (the partial last window). *)
  Option.iter
    (fun s ->
      Metrics.Scrape.tick s ~now:makespan;
      Metrics.Scrape.force s ~now:makespan)
    scrape;
  let cs = Cache.stats t.cache in
  let lookups = cs.Cache.hits + cs.Cache.misses in
  let total = List.length log in
  let mean =
    if completed = 0 then 0.
    else Array.fold_left ( +. ) 0. sorted /. float_of_int completed
  in
  {
    r_config = t.cfg;
    r_jobs = total;
    r_completed = completed;
    r_shed = shed;
    r_deadline = deadline;
    r_failed = failed;
    r_retries = retries;
    r_p50_ms = 1e3 *. percentile sorted 0.50;
    r_p95_ms = 1e3 *. percentile sorted 0.95;
    r_p99_ms = 1e3 *. percentile sorted 0.99;
    r_mean_ms = 1e3 *. mean;
    r_hit_rate =
      (if lookups = 0 then 0.
       else float_of_int cs.Cache.hits /. float_of_int lookups);
    r_shed_rate =
      (if total = 0 then 0. else float_of_int shed /. float_of_int total);
    r_throughput =
      (if makespan > 0. then float_of_int completed /. makespan else 0.);
    r_makespan = makespan;
    r_busy = t.busy;
    r_baseline_throughput = None;
    r_cache = cs;
    r_blacklisted = t.blacklisted;
    r_final_bound = Admission.bound t.admission;
    r_tenants = Array.to_list tenants;
    r_log = log;
  }

(* ------------------------------------------------------------------ *)
(* Single-tenant baseline                                              *)
(* ------------------------------------------------------------------ *)

(* The reference a multi-tenant serve run is compared against: one tenant,
   no queue, no sharing — every job runs cold on a fresh context and waits
   for the previous one.  Since fault-free service time is a deterministic
   function of the query, one cold run per distinct query prices the whole
   trace. *)
let baseline_throughput ?domains ?leaf_backend ~nodes (w : Workload.t) =
  let machine = make_machine nodes in
  let costs = Hashtbl.create 8 in
  let total =
    List.fold_left
      (fun acc (job : Workload.job) ->
        let c =
          match Hashtbl.find_opt costs job.Workload.j_query with
          | Some c -> c
          | None ->
              let problem = Catalog.problem ~machine job.Workload.j_query in
              (* [~iterations:1] = the warm-start protocol on a fresh
                 context, so the cold run pays dependent partitioning — the
                 same price every serve-side cold miss pays. *)
              let r =
                Spdistal.run ?domains ?leaf_backend ~faults:Fault.disabled
                  ~trace:Trace.null ~iterations:1 problem
              in
              let c = r.Spdistal.cost.Cost.total in
              Hashtbl.replace costs job.Workload.j_query c;
              c
        in
        acc +. c)
      0. w.Workload.w_jobs
  in
  if total > 0. then float_of_int (List.length w.Workload.w_jobs) /. total
  else 0.

(* Price the single-tenant baseline (one tenant, no queue, no cache
   sharing: every job pays its query's cold fault-free cost serially) and
   attach it to the report. *)
let with_baseline ?domains ?leaf_backend report =
  let w =
    {
      Workload.w_tenants = 1;
      w_jobs = List.map (fun l -> l.l_job) report.r_log;
    }
  in
  {
    report with
    r_baseline_throughput =
      Some
        (baseline_throughput ?domains ?leaf_backend
           ~nodes:report.r_config.s_nodes w);
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

(* hit_rate's denominator is every shared-cache lookup, and lookups happen
   only for admitted job attempts (completed, deadline-exceeded or failed —
   each attempt that reaches Context.run does exactly one); shed jobs never
   touch the cache, so a heavily-shedding run can report a high hit rate on
   very little traffic. *)
let csv_comment =
  "# hit_rate = shared-cache hits / lookups; only admitted attempts \
   (completed/deadline/failed) perform lookups — shed jobs never reach the \
   cache"

let csv_header =
  "scenario,nodes,jobs,completed,shed,deadline,failed,retries,p50_ms,p95_ms,\
   p99_ms,mean_ms,hit_rate,shed_rate,throughput_jobs_s,baseline_jobs_s,\
   speedup,makespan_s,busy_s,cache_bytes_peak,cache_evictions,blacklisted,\
   final_bound"

let csv_row ~scenario r =
  let baseline, speedup =
    match r.r_baseline_throughput with
    | Some b when b > 0. -> (Printf.sprintf "%.3f" b, Printf.sprintf "%.3f" (r.r_throughput /. b))
    | Some b -> (Printf.sprintf "%.3f" b, "")
    | None -> ("", "")
  in
  Printf.sprintf
    "%s,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.4f,%.4f,%.3f,%s,%s,%.4f,%.4f,%d,%d,%d,%d"
    scenario r.r_config.s_nodes r.r_jobs r.r_completed r.r_shed r.r_deadline
    r.r_failed r.r_retries r.r_p50_ms r.r_p95_ms r.r_p99_ms r.r_mean_ms
    r.r_hit_rate r.r_shed_rate r.r_throughput baseline speedup r.r_makespan
    r.r_busy r.r_cache.Cache.bytes_peak r.r_cache.Cache.evictions
    (List.length r.r_blacklisted) r.r_final_bound

(* Per-tenant breakdown: the tenant counters plus latency percentiles over
   that tenant's completed jobs (from the job log, so the export needs no
   extra state in the engine). *)
let tenants_csv_header =
  "scenario,tenant,submitted,completed,shed,deadline,failed,retries,\
   retry_budget,busy_s,p50_ms,p95_ms,p99_ms"

let tenants_csv_rows ~scenario r =
  List.map
    (fun (tn : Tenant.t) ->
      let lat =
        List.filter_map
          (fun l ->
            match l.l_outcome with
            | Completed resp when l.l_job.Workload.j_tenant = tn.Tenant.t_id ->
                Some resp
            | _ -> None)
          r.r_log
      in
      let sorted = Array.of_list lat in
      Array.sort compare sorted;
      Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.3f,%.3f" scenario
        tn.Tenant.t_id tn.Tenant.submitted tn.Tenant.completed tn.Tenant.shed
        tn.Tenant.deadline_exceeded tn.Tenant.failed tn.Tenant.retries
        tn.Tenant.budget0 tn.Tenant.busy
        (1e3 *. percentile sorted 0.50)
        (1e3 *. percentile sorted 0.95)
        (1e3 *. percentile sorted 0.99))
    r.r_tenants

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>jobs %d: %d completed, %d shed (%.1f%%), %d deadline-exceeded, %d \
     failed, %d retries@,\
     latency ms: p50 %.3f p99 %.3f mean %.3f@,\
     throughput %.3f jobs/s%s (makespan %.4f s, busy %.4f s)@,\
     cache: %.1f%% hits, %d B peak (%d evictions)@,\
     degradation: %d blacklisted%s, queue bound %d@,%a@]"
    r.r_jobs r.r_completed r.r_shed (100. *. r.r_shed_rate) r.r_deadline
    r.r_failed r.r_retries r.r_p50_ms r.r_p99_ms r.r_mean_ms r.r_throughput
    (match r.r_baseline_throughput with
    | Some b when b > 0. ->
        Printf.sprintf " (%.2fx single-tenant %.3f)" (r.r_throughput /. b) b
    | _ -> "")
    r.r_makespan r.r_busy (100. *. r.r_hit_rate) r.r_cache.Cache.bytes_peak
    r.r_cache.Cache.evictions
    (List.length r.r_blacklisted)
    (match r.r_blacklisted with
    | [] -> ""
    | ns ->
        Printf.sprintf " (nodes %s)"
          (String.concat "," (List.map string_of_int ns)))
    r.r_final_bound
    (Format.pp_print_list Tenant.pp)
    r.r_tenants

(* Convenience wrapper: build a server, serve the trace, optionally price
   the single-tenant baseline. *)
let run ?domains ?leaf_backend ?trace ?scrape ?(baseline = false) cfg w =
  let t = create cfg in
  let report = serve ?domains ?leaf_backend ?trace ?scrape t w in
  if baseline then with_baseline ?domains ?leaf_backend report else report
