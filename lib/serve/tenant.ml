(* Per-tenant accounting: a retry budget that isolates one tenant's failing
   query from everyone else's latency, and the per-tenant slice of every
   serve metric.

   The budget is the serving analog of [Fault.max_retries]: recovery inside
   a launch retries transient faults, but when a whole job dies (recovery
   exhausted — a DNC), re-admitting it costs server time that other tenants'
   queued jobs are waiting behind.  Each tenant gets a fixed number of
   re-admissions for the whole trace; once spent, that tenant's failing jobs
   fail fast with a structured error instead of burning another slot. *)

open Spdistal_runtime
module Metrics = Spdistal_obs.Metrics

type t = {
  t_id : int;
  budget0 : int;
  mutable budget : int;  (* re-admissions left *)
  mutable submitted : int;
  mutable completed : int;
  mutable shed : int;
  mutable deadline_exceeded : int;
  mutable failed : int;
  mutable retries : int;  (* re-admissions actually used *)
  mutable busy : float;  (* simulated server seconds charged to this tenant *)
}

let create ~retry_budget id =
  if retry_budget < 0 then
    Error.fail Error.Config "tenant retry budget %d must be >= 0" retry_budget;
  {
    t_id = id;
    budget0 = retry_budget;
    budget = retry_budget;
    submitted = 0;
    completed = 0;
    shed = 0;
    deadline_exceeded = 0;
    failed = 0;
    retries = 0;
    busy = 0.;
  }

(* Spend one re-admission; [false] when the budget is exhausted (the caller
   must fail the job instead of retrying). *)
let try_retry t =
  if t.budget > 0 then begin
    t.budget <- t.budget - 1;
    t.retries <- t.retries + 1;
    Metrics.inc (Metrics.default ())
      ~labels:[ ("tenant", string_of_int t.t_id) ]
      ~help:"job re-admissions spent from tenant retry budgets"
      "spdistal_serve_retries_total";
    true
  end
  else false

let pp fmt t =
  Format.fprintf fmt
    "tenant %d: %d submitted, %d completed, %d shed, %d deadline, %d failed, \
     %d/%d retries used, %.4f s busy"
    t.t_id t.submitted t.completed t.shed t.deadline_exceeded t.failed
    t.retries t.budget0 t.busy
