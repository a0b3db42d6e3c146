(** Per-tenant retry budgets (failure isolation).  A tenant's counts and
    busy time are folds over the server's job log. *)

(** A tenant id and its re-admissions left. *)
type t

(** [create ~retry_budget id].  Raises {!Spdistal_runtime.Error.Error}
    ([Config]) on a negative budget. *)
val create : retry_budget:int -> int -> t

(** Spend one re-admission; [false] when exhausted — the job must fail fast
    instead of being retried, so the tenant cannot starve others. *)
val try_retry : t -> bool
