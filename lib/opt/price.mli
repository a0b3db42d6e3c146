(** Dry-run pricing: evaluate a fully-specified problem with the existing
    cost model without executing any leaf.

    A priced candidate is its cold run with the leaves swapped out: pricing
    calls the same {!Core.Spdistal.plan} cold build a run calls, charges the
    partitioning bill it returns, and dry-runs the interpreter's own launch
    loop ({!Spdistal_exec.Interp.estimate}).  Partitioning, communication
    and the reduction bill are therefore bit-equal to a cold run of the
    same schedule, and a candidate whose run would OOM is refused; leaf
    time is a statistical estimate on the shared work model.  Faults are
    ignored (fault-free steady-state pricing). *)

open Spdistal_runtime

type priced = {
  pr_total : float;  (** simulated seconds of one cold application *)
  pr_cost : Cost.t;
  pr_part_seconds : float;  (** dependent-partitioning component *)
  pr_part_ops : int;
  pr_launches : int;  (** distributed launches in the lowered program *)
}

val total : priced -> float

(** Price one candidate.  [Error reason] when the candidate does not lower,
    place or classify (a typed {!Spdistal_runtime.Error.Error}), or when
    its run would not fit in memory ([reason] starts with ["OOM: "]) — an
    infeasible point of the search space.  Any other exception (an
    [Invalid_argument] is a bug) escapes.  The candidates
    {!Search.candidates} emits all lower.  A session of one: nothing is
    shared with any other call. *)
val price : Core.Spdistal.problem -> (priced, string) result

(** A pricing session over one problem: the candidates of one
    auto-scheduler call.  It computes the sparse drivers' {!Stats} at most
    once and only for multiplicative leaves, and shares partitions between
    candidates through a {!Core.Spdistal.memo}.  Every verdict is bit-equal to {!price} of the
    same candidate on its own. *)
type session

val session : Core.Spdistal.problem -> session

(** [price_in s ~schedule ~tdns] prices the session's problem re-planned
    with [schedule] and [tdns] (see {!Core.Spdistal.with_schedule}). *)
val price_in :
  session ->
  schedule:Spdistal_ir.Schedule.t ->
  tdns:(string * Spdistal_ir.Tdn.t) list ->
  (priced, string) result
