(** Candidate enumeration for the auto-scheduler: schedule/TDN points drawn
    from the four families the paper's hand schedules use (universe
    row-splits, fused non-zero splits, 2-D batched tilings, workspace
    variants of pure additions).  The families build their schedules with
    the {!Spdistal_ir.Schedule} shapes the hand schedules use, and every
    candidate's TDNs are the matched distribution
    {!Spdistal_ir.Lower.matched} derives from its schedule, the rule the
    hand problems of {!Core.Kernels} use; so every hand point of the kernel
    catalog is exactly one candidate (checked by the test suite).  Illegal
    points are never emitted: a candidate is kept only when
    {!Spdistal_ir.Lower.check} accepts its schedule, the predicate
    {!Spdistal_ir.Lower.lower} itself applies, so every candidate lowers.
    An [Error] from {!Price.price} then means capacity (the run would OOM)
    or a typed run-time refusal (a placement, a leaf's operand shapes),
    never a schedule [Lower] rejects. *)

open Spdistal_ir

type candidate = {
  c_label : string;  (** family tag, e.g. ["row:i"], ["nnz:B/2"] *)
  c_schedule : Schedule.t;
  c_tdns : (string * Tdn.t) list;
}

(** All candidates for the problem on its machine that {!Spdistal_ir.Lower}
    accepts (1-D grids: universe + nnz + workspace families; multi-dim
    grids: the batched family). *)
val candidates : Core.Spdistal.problem -> candidate list

(** The strawman default every auto choice must beat: first output variable
    distributed, no leaf parallelism, every operand blocked on its {e last}
    dimension.  Raises {!Spdistal_runtime.Error.Error} ([Compile]) on a
    statement without output variables. *)
val naive : Core.Spdistal.problem -> candidate

(** The problem re-planned with the candidate's schedule and TDNs (operand
    slots shared — see {!Core.Spdistal.with_schedule}). *)
val apply : Core.Spdistal.problem -> candidate -> Core.Spdistal.problem
