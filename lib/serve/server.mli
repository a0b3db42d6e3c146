(** The serve engine: a multi-tenant job-queue front-end over one shared
    partition/kernel cache and one simulated machine.

    Jobs arrive at their trace timestamps on the simulated clock, pass
    {!Admission} (bounded queue + deadline-aware shedding), run FCFS on a
    single service lane priced by the cost clock, and are cancelled at their
    deadline — charged only for the work actually done.  Contexts for every
    catalog query share one byte-budgeted {!Spdistal_exec.Cache}.  Jobs
    whose fault recovery is exhausted are re-admitted after
    {!Spdistal_runtime.Fault.backoff_time}, gated by per-tenant retry
    budgets; repeatedly crashing nodes are blacklisted, the machine rebuilt
    on the survivors and admission tightened — graceful degradation, never a
    server crash. *)

open Spdistal_runtime
module Cache = Spdistal_exec.Cache

type config = {
  s_nodes : int;
  s_queue_bound : int;
  s_cache_cap : int;
  s_cache_budget : int option;  (** cache byte budget; [None] = unlimited *)
  s_retry_budget : int;  (** per-tenant re-admissions after a DNC *)
  s_blacklist_after : int;
      (** crash strikes before a node is blacklisted *)
  s_faults : Fault.config;
  s_auto : bool;
      (** replace each catalog problem's hand schedule with the
          auto-scheduler's pick ({!Spdistal_opt.Auto.schedule}); winners are
          remembered in the shared cache, so rescheduling is priced once per
          (machine, pattern).  The single-tenant baseline keeps the hand
          schedules. *)
}

(** 4 nodes, queue bound 32, 1 MiB cache budget, 2 retries/tenant,
    blacklist after 3 strikes, faults disabled, auto-scheduling off. *)
val default_config : config

type outcome =
  | Completed of float
      (** response time (queue wait + service), simulated seconds *)
  | Shed of Error.t
      (** rejected at admission ([Admission] or [Deadline] phase); cost the
          server nothing *)
  | Deadline_exceeded of float
      (** cancelled at the deadline; carries the simulated seconds of work
          actually charged *)
  | Failed of Error.t  (** DNC with the tenant's retry budget exhausted *)

(** The serve engine's one per-job record: the report's counts, latency
    percentiles, makespan and per-tenant rows are all folds over it. *)
type job_log = {
  l_job : Workload.job;
  l_outcome : outcome;
  l_attempts : int;  (** admissions actually run: 1 + retries; 0 if shed *)
  l_hits : int;  (** cache hits this job observed *)
  l_service : float;
      (** simulated seconds of lane time charged across the job's attempts;
          0 if shed *)
  l_settled : float;
      (** simulated time the job settled (its trace span's end): arrival if
          shed, arrival + response if completed, arrival + deadline if
          cancelled, the lane-free time if failed *)
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
  r_mean_ms : float;  (** over completed jobs' response times *)
  r_hit_rate : float;
  r_shed_rate : float;
  r_throughput : float;  (** completed jobs per simulated second *)
  r_makespan : float;  (** the last job's settle time, simulated seconds *)
  r_busy : float;  (** simulated seconds the service lane was occupied *)
  r_baseline_throughput : float option;
      (** single-tenant reference (every job cold, no sharing); see
          {!run}'s [baseline] *)
  r_cache : Cache.stats;
  r_blacklisted : int list;  (** original node ids, sorted *)
  r_final_bound : int;  (** queue bound after degradation *)
  r_tenants : int;  (** the trace's tenant ids are [0 .. r_tenants - 1] *)
  r_log : job_log list;  (** per-job outcomes in arrival order *)
}

(** Serve a whole trace on a fresh server.  Raises
    {!Spdistal_runtime.Error.Error} ([Config]) on nonsensical bounds, a
    negative retry budget, or a trace failing {!Workload.check}.

    [trace] (default {!Spdistal_obs.Trace.null}) gets a simulated-clock job
    span per job on its tenant's track plus queue-depth/shed/cache-bytes
    counters — and is also passed to every underlying
    {!Core.Spdistal.Context.run}.

    [scrape] is ticked on the serve loop's virtual clock: at every job
    arrival it snapshots each interval boundary the clock has crossed, and
    at the end of the run it appends one final row at the makespan.  Because
    ticking happens on the sequential loop, the scraped series are
    bit-identical across [domains] whenever the run itself is.

    When [baseline], the single-tenant baseline (one tenant, no queue, no
    cache sharing: every job pays its query's cold fault-free cost
    serially) is attached to the report. *)
val run :
  ?domains:int ->
  ?leaf_backend:Spdistal_exec.Compile_leaf.backend ->
  ?trace:Spdistal_obs.Trace.t ->
  ?scrape:Spdistal_obs.Metrics.Scrape.t ->
  ?baseline:bool ->
  config ->
  Workload.t ->
  report

(** What a report counts over a slice of the job log: the report's totals
    are the tally of [r_log], each tenant's row the tally of its jobs. *)
type tally = {
  jobs : int;
  completed : int;
  shed : int;
  deadline : int;
  failed : int;
  retries : int;  (** re-admissions: attempts - 1 over admitted jobs *)
  busy : float;  (** lane seconds charged: the jobs' [l_service] summed *)
  latencies : float array;  (** completed jobs' response times, ascending *)
}

val tally : job_log list -> tally

(** [(id, tally)] for each tenant id, over that tenant's jobs. *)
val tenant_tallies : report -> (int * tally) list

(** {1 Rendering} *)

val outcome_label : outcome -> string

(** Documents the [hit_rate] denominator (shed jobs never reach the cache);
    written above {!csv_header} in results files. *)
val csv_comment : string

val csv_header : string
val csv_row : scenario:string -> report -> string

(** Per-tenant breakdown of a report: one row per tenant, the same fold over
    that tenant's slice of the job log as the report's totals ([busy_s] is
    the lane seconds charged to its jobs). *)
val tenants_csv_header : string

val tenants_csv_rows : scenario:string -> report -> string list
val pp_report : Format.formatter -> report -> unit
