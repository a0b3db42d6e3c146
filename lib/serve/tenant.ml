(* Per-tenant retry budgets: failure isolation between tenants.

   The budget is the serving analog of [Fault.max_retries]: recovery inside
   a launch retries transient faults, but when a whole job dies (recovery
   exhausted — a DNC), re-admitting it costs server time that other tenants'
   queued jobs are waiting behind.  Each tenant gets a fixed number of
   re-admissions for the whole trace; once spent, that tenant's failing jobs
   fail fast with a structured error instead of burning another slot.  What
   a tenant submitted, completed and was charged is read off the server's
   job log, not kept here. *)

open Spdistal_runtime
module Metrics = Spdistal_obs.Metrics

type t = { t_id : int; mutable budget : int (* re-admissions left *) }

let create ~retry_budget id =
  if retry_budget < 0 then
    Error.fail Error.Config "tenant retry budget %d must be >= 0" retry_budget;
  { t_id = id; budget = retry_budget }

(* Spend one re-admission; [false] when the budget is exhausted (the caller
   must fail the job instead of retrying). *)
let try_retry t =
  if t.budget > 0 then begin
    t.budget <- t.budget - 1;
    Metrics.inc (Metrics.default ())
      ~labels:[ ("tenant", string_of_int t.t_id) ]
      ~help:"job re-admissions spent from tenant retry budgets"
      "spdistal_serve_retries_total";
    true
  end
  else false
