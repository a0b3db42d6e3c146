(** Candidate enumeration for the auto-scheduler: schedule/TDN points drawn
    from the four families the paper's hand schedules use (universe
    row-splits, fused non-zero splits, 2-D batched tilings, workspace
    variants of pure additions).  The family rules reproduce every hand
    schedule of the kernel catalog exactly, so the hand point is always in
    the search space; infeasible combinations are filtered downstream by
    {!Price.price} returning [Error]. *)

open Spdistal_ir

type candidate = {
  c_label : string;  (** family tag, e.g. ["row:i"], ["nnz:B/2"] *)
  c_schedule : Schedule.t;
  c_tdns : (string * Tdn.t) list;
}

(** All candidates for the problem on its machine (1-D grids: universe +
    nnz + workspace families; multi-dim grids: the batched family). *)
val candidates : Core.Spdistal.problem -> candidate list

(** The strawman default every auto choice must beat: first output variable
    distributed, no leaf parallelism, every operand blocked on its {e last}
    dimension.  Raises {!Spdistal_runtime.Error.Error} ([Compile]) on a
    statement without output variables. *)
val naive : Core.Spdistal.problem -> candidate

(** The problem re-planned with the candidate's schedule and TDNs (operand
    slots shared — see {!Core.Spdistal.with_schedule}). *)
val apply : Core.Spdistal.problem -> candidate -> Core.Spdistal.problem
