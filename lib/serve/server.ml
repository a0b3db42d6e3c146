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
  l_attempts : int;  (* admissions actually run: 1 + retries; 0 if shed *)
  l_hits : int;  (* cache hits this job observed *)
  l_service : float;  (* lane seconds charged across the job's attempts *)
  l_settled : float;  (* sim time the job settled: its trace span's end *)
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
  r_makespan : float;  (* last settle time, sim seconds *)
  r_busy : float;  (* sim seconds the service lane was occupied *)
  r_baseline_throughput : float option;
      (* single-tenant reference: every job cold, no sharing *)
  r_cache : Cache.stats;
  r_blacklisted : int list;  (* original node ids, sorted *)
  r_final_bound : int;  (* queue bound after degradation *)
  r_tenants : int;  (* the trace's tenant ids are 0 .. r_tenants - 1 *)
  r_log : job_log list;  (* per-job outcomes, arrival order *)
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

let outcome_label = function
  | Completed _ -> "completed"
  | Shed e -> Error.phase_name e.Error.phase ^ "-shed"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Failed _ -> "failed"

(* Shared-cache hits / lookups; lookups happen only for admitted attempts. *)
let hit_rate (cs : Cache.stats) =
  let lookups = cs.Cache.hits + cs.Cache.misses in
  if lookups = 0 then 0. else float_of_int cs.Cache.hits /. float_of_int lookups

(* The name a job's trace span and its log events share. *)
let span_name (job : Workload.job) =
  Printf.sprintf "job %d %s" job.Workload.j_id job.Workload.j_query

(* Per-job serve metrics, emitted on the (sequential) serve loop after each
   job settles — so the series are deterministic whenever the run is.
   Latencies go into three histogram families (aggregate, per-tenant,
   per-query — separate families so label cardinality stays additive), and
   the headline gauges (pXX_ms, shed/hit rate) are re-derived after every
   job so scrape windows always see current values. *)
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
  Metrics.set m
    ~help:"shared-cache hits / lookups (lookups happen only for admitted attempts)"
    "spdistal_serve_hit_rate"
    (hit_rate (Cache.stats t.cache))

(* The settled job's trace span (with the serve counter sample) and its log
   event.  Both sinks drop the calls when off; the caller guards this so an
   untraced, unlogged run builds no per-job span name. *)
let note_job_settled t ~trace ~depth ~shed_total (entry : job_log) =
  let job = entry.l_job in
  let arrival = job.Workload.j_arrival in
  let span = span_name job in
  let track = Trace.Tenant job.Workload.j_tenant in
  Trace.span trace ~track ~clock:Trace.Sim ~cat:"job"
    ~args:
      [
        ("status", Trace.S (outcome_label entry.l_outcome));
        ("query", Trace.S job.Workload.j_query);
        ("attempts", Trace.I entry.l_attempts);
      ]
    ~start:arrival
    ~dur:(Float.max 0. (entry.l_settled -. arrival))
    span;
  Trace.counter trace ~name:"serve" ~time:arrival
    [
      ("queue_depth", float_of_int depth);
      ("shed_total", float_of_int shed_total);
      ("cache_bytes", float_of_int (Cache.stats t.cache).Cache.bytes);
    ];
  let level, time, field, name =
    match entry.l_outcome with
    | Completed resp ->
        ( Log.Info,
          entry.l_settled,
          ("resp_ms", Trace.F (1e3 *. resp)),
          "job_completed" )
    | Shed err ->
        (Log.Warn, arrival, ("reason", Trace.S (Error.to_string err)), "job_shed")
    | Deadline_exceeded charged ->
        ( Log.Warn,
          entry.l_settled,
          ("charged_s", Trace.F charged),
          "job_deadline_exceeded" )
    | Failed err ->
        (Log.Error, arrival, ("error", Trace.S (Error.to_string err)), "job_failed")
  in
  Log.event (Log.default ()) ~level ~time ~track ~span
    ~fields:
      [
        ("job", Trace.I job.Workload.j_id);
        ("query", Trace.S job.Workload.j_query);
        ("attempts", Trace.I entry.l_attempts);
        ("hits", Trace.I entry.l_hits);
        field;
      ]
    name

(* Serve the jobs in arrival order; returns the job log, the lane's busy
   seconds stay in [t.busy]. *)
let serve ?domains ?leaf_backend ~trace ?scrape t (w : Workload.t) =
  let tenants =
    Array.init w.Workload.w_tenants
      (Tenant.create ~retry_budget:t.cfg.s_retry_budget)
  in
  let jobs =
    List.sort
      (fun a b -> compare a.Workload.j_arrival b.Workload.j_arrival)
      w.Workload.w_jobs
  in
  let log = ref [] in
  let shed_total = ref 0 in
  List.iteri
    (fun i (job : Workload.job) ->
      let arrival = job.Workload.j_arrival in
      (* Snapshot every interval boundary the virtual clock has crossed
         before this arrival mutates anything. *)
      Option.iter (fun s -> Metrics.Scrape.tick s ~now:arrival) scrape;
      (* Queue depth at arrival: admitted jobs that have not finished. *)
      t.finishes <- List.filter (fun f -> f > arrival) t.finishes;
      let depth = List.length t.finishes in
      let backlog = Float.max 0. (t.free -. arrival) in
      let entry =
        match
          Admission.decide t.admission ~query:job.Workload.j_query ~depth
            ~backlog ~deadline:job.Workload.j_deadline
        with
        | Admission.Reject err ->
            incr shed_total;
            {
              l_job = job;
              l_outcome = Shed err;
              l_attempts = 0;
              l_hits = 0;
              l_service = 0.;
              l_settled = arrival;
            }
        | Admission.Admit ->
            (let lg = Log.default () in
             if Log.enabled lg then
               Log.event lg ~level:Log.Debug ~time:arrival
                 ~track:(Trace.Tenant job.Workload.j_tenant)
                 ~span:(span_name job)
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
              run_job t ?domains ?leaf_backend ~trace
                ~tenant:tenants.(job.Workload.j_tenant) job ~start
            in
            let service = t.busy -. busy_before in
            Metrics.inc (Metrics.default ()) ~by:service
              ~help:"sim seconds the service lane was occupied"
              "spdistal_serve_busy_seconds_total";
            t.free <- Float.max t.free finish;
            t.finishes <- finish :: t.finishes;
            let settled =
              match outcome with
              | Completed resp -> arrival +. resp
              | Deadline_exceeded _ -> arrival +. job.Workload.j_deadline
              | Failed _ | Shed _ -> Float.max arrival t.free
            in
            {
              l_job = job;
              l_outcome = outcome;
              l_attempts = attempts;
              l_hits = hits;
              l_service = service;
              l_settled = settled;
            }
      in
      if Trace.enabled trace || Log.enabled (Log.default ()) then
        note_job_settled t ~trace ~depth ~shed_total:!shed_total entry;
      note_job_metrics t ~submitted:(i + 1) ~shed_total:!shed_total entry;
      log := entry :: !log)
    jobs;
  List.rev !log

(* ------------------------------------------------------------------ *)
(* The report: folds over the job log                                  *)
(* ------------------------------------------------------------------ *)

(* What a report counts over a slice of the job log.  The run's totals and
   each tenant's row are this one fold, so they cannot drift apart. *)
type tally = {
  jobs : int;
  completed : int;
  shed : int;
  deadline : int;
  failed : int;
  retries : int;  (* re-admissions: attempts - 1 over admitted jobs *)
  busy : float;  (* lane seconds charged *)
  latencies : float array;  (* completed jobs' response times, ascending *)
}

let tally log =
  let count f = List.length (List.filter (fun l -> f l.l_outcome) log) in
  let latencies =
    Array.of_list
      (List.filter_map
         (fun l -> match l.l_outcome with Completed r -> Some r | _ -> None)
         log)
  in
  Array.sort compare latencies;
  {
    jobs = List.length log;
    completed = Array.length latencies;
    shed = count (function Shed _ -> true | _ -> false);
    deadline = count (function Deadline_exceeded _ -> true | _ -> false);
    failed = count (function Failed _ -> true | _ -> false);
    retries =
      List.fold_left (fun acc l -> acc + max 0 (l.l_attempts - 1)) 0 log;
    busy = List.fold_left (fun acc l -> acc +. l.l_service) 0. log;
    latencies;
  }

let tenant_tallies r =
  List.init r.r_tenants (fun id ->
      ( id,
        tally
          (List.filter (fun l -> l.l_job.Workload.j_tenant = id) r.r_log) ))

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) i))

let report t ~tenants ~makespan log =
  let n = tally log in
  let sorted = n.latencies in
  let cs = Cache.stats t.cache in
  let mean =
    if n.completed = 0 then 0.
    else Array.fold_left ( +. ) 0. sorted /. float_of_int n.completed
  in
  {
    r_config = t.cfg;
    r_jobs = n.jobs;
    r_completed = n.completed;
    r_shed = n.shed;
    r_deadline = n.deadline;
    r_failed = n.failed;
    r_retries = n.retries;
    r_p50_ms = 1e3 *. percentile sorted 0.50;
    r_p95_ms = 1e3 *. percentile sorted 0.95;
    r_p99_ms = 1e3 *. percentile sorted 0.99;
    r_mean_ms = 1e3 *. mean;
    r_hit_rate = hit_rate cs;
    r_shed_rate =
      (if n.jobs = 0 then 0. else float_of_int n.shed /. float_of_int n.jobs);
    r_throughput =
      (if makespan > 0. then float_of_int n.completed /. makespan else 0.);
    r_makespan = makespan;
    r_busy = t.busy;
    r_baseline_throughput = None;
    r_cache = cs;
    r_blacklisted = t.blacklisted;
    r_final_bound = Admission.bound t.admission;
    r_tenants = tenants;
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
let baseline_throughput ?domains ?leaf_backend ~nodes jobs =
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
      0. jobs
  in
  if total > 0. then float_of_int (List.length jobs) /. total else 0.

let run ?domains ?leaf_backend ?(trace = Trace.null) ?scrape ?(baseline = false)
    cfg w =
  validate cfg;
  Workload.check w;
  let t = create cfg in
  let log = serve ?domains ?leaf_backend ~trace ?scrape t w in
  let makespan =
    List.fold_left (fun acc l -> Float.max acc l.l_settled) 0. log
  in
  (* Close the scrape series: any boundaries the tail of the run crossed,
     plus one final row at the makespan (the partial last window). *)
  Option.iter
    (fun s ->
      Metrics.Scrape.tick s ~now:makespan;
      Metrics.Scrape.force s ~now:makespan)
    scrape;
  let r = report t ~tenants:w.Workload.w_tenants ~makespan log in
  if baseline then
    {
      r with
      r_baseline_throughput =
        Some
          (baseline_throughput ?domains ?leaf_backend ~nodes:cfg.s_nodes
             (List.map (fun l -> l.l_job) log));
    }
  else r

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

(* Per-tenant breakdown: each tenant's slice of the job log, folded by
   [tally] like the run's totals. *)
let tenants_csv_header =
  "scenario,tenant,submitted,completed,shed,deadline,failed,retries,\
   retry_budget,busy_s,p50_ms,p95_ms,p99_ms"

let tenants_csv_rows ~scenario r =
  List.map
    (fun (id, n) ->
      Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%.3f,%.3f" scenario
        id n.jobs n.completed n.shed n.deadline n.failed n.retries
        r.r_config.s_retry_budget n.busy
        (1e3 *. percentile n.latencies 0.50)
        (1e3 *. percentile n.latencies 0.95)
        (1e3 *. percentile n.latencies 0.99))
    (tenant_tallies r)

let pp_tenant budget fmt (id, n) =
  Format.fprintf fmt
    "tenant %d: %d submitted, %d completed, %d shed, %d deadline, %d failed, \
     %d/%d retries used, %.4f s busy"
    id n.jobs n.completed n.shed n.deadline n.failed n.retries budget n.busy

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
    (Format.pp_print_list (pp_tenant r.r_config.s_retry_budget))
    (tenant_tallies r)
