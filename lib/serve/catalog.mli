(** The query catalog a serve instance answers: named (kernel, tensor-ref)
    computations over deterministic synthetic tensors.  Tensors are memoized
    per query, so every job for a query shares one tensor instance and one
    cache digest — the precondition for cross-job cache hits.  Read-only
    inputs derived from a query's tensor (SpAdd3's shifted [C] and [D]) are
    memoized too; outputs are fresh in every {!problem}. *)

open Spdistal_runtime

type entry = {
  c_name : string;
  c_tensor : Spdistal_formats.Tensor.t Lazy.t;
  c_problem : machine:Machine.t -> Core.Spdistal.problem;
}

val all : entry list

(** Catalog names, the domain of {!Workload.generate}'s [catalog]. *)
val names : string list

(** Raises {!Spdistal_runtime.Error.Error} ([Config]) on unknown names. *)
val find : string -> entry

val problem : machine:Machine.t -> string -> Core.Spdistal.problem
