(** The paper's evaluation kernels with their standard schedules and data
    distributions (§II-D, §VI-A).

    Schedules come in the two families the paper evaluates:
    - {e row-based} (outer-dimension) algorithms: universe partition of the
      first dimension, matched row-blocked data distribution — used on CPUs
      for SpMV/SpMM/SpAdd3/SpTTV/SpMTTKRP;
    - {e non-zero-based} algorithms: coordinate fusion + non-zero partition,
      statically load balanced — used for SDDMM everywhere and for the GPU
      variants of SpMM/SpTTV/SpMTTKRP.

    [*_problem] builders assemble full {!Spdistal.problem}s from a sparse
    input: dense factors are deterministic pseudo-random, outputs are zeroed,
    and data distributions match the chosen schedule (paper §II-D). *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir

(** {1 Schedules} *)

val spmv_row : ?proc:Schedule.proc -> unit -> Schedule.t
val spmv_nnz : ?proc:Schedule.proc -> unit -> Schedule.t
val spmm_row : ?proc:Schedule.proc -> unit -> Schedule.t

(** Memory-conserving 2-D "SpDISTAL-Batched" GPU SpMM schedule (§VI-A2):
    distributes both [i] and [j]. *)
val spmm_batched : ?proc:Schedule.proc -> unit -> Schedule.t

val spadd3_row : ?proc:Schedule.proc -> unit -> Schedule.t

(** [nnz_sched ~vars ~tensor ~tensors ()] fuses [vars] left to right, then
    strip-mines the fused position space of [tensor] and distributes it
    (the shape of every [*_nnz] schedule).  Raises
    {!Spdistal_runtime.Error.Error} ([Config]) when [vars] has fewer than
    two variables. *)
val nnz_sched :
  ?proc:Schedule.proc ->
  vars:string list ->
  tensor:string ->
  tensors:string list ->
  unit ->
  Schedule.t

(** SpAdd3 with a dense row workspace instead of the k-way merge (the
    precompute transformation, Kjolstad et al. [22]). *)
val spadd3_workspace : ?proc:Schedule.proc -> unit -> Schedule.t
val sddmm_nnz : ?proc:Schedule.proc -> unit -> Schedule.t
val mttkrp_nnz : ?proc:Schedule.proc -> unit -> Schedule.t

(** {1 Problem builders} *)

(** Deterministic pseudo-random value in [0.5, 1.5) for element [i]. *)
val dval : int -> float

val dense_vec : string -> int -> Dense.vec
val dense_mat : string -> int -> int -> Dense.mat

(** [spmv_problem ~machine ~schedule b].  [nonzero_dist] selects the fused
    non-zero data distribution for [b] instead of row blocking (§II-D's
    second algorithm); defaults to matching the schedule. *)
val spmv_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?nonzero_dist:bool ->
  Tensor.t ->
  Spdistal.problem

(** [spmm_problem ~machine ~cols b] — [cols] is the dense width (default 32).
    [nonzero_dist] selects the load-balanced replicated-C variant. *)
val spmm_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?cols:int ->
  ?batched:bool ->
  ?nonzero_dist:bool ->
  Tensor.t ->
  Spdistal.problem

(** [spadd3_problem ~machine b] builds the two shifted copies per Henry &
    Hsu et al. [30] internally unless [c]/[d] are supplied.  Supplied
    inputs are only read, so callers may share them across problems; the
    output [A] is always fresh. *)
val spadd3_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?c:Tensor.t ->
  ?d:Tensor.t ->
  Tensor.t ->
  Spdistal.problem

val sddmm_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?cols:int ->
  Tensor.t ->
  Spdistal.problem

val spttv_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?nonzero_dist:bool ->
  Tensor.t ->
  Spdistal.problem

val mttkrp_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?cols:int ->
  ?nonzero_dist:bool ->
  Tensor.t ->
  Spdistal.problem

(** Shift a tensor's last dimension by [by] (mod its size), the Henry & Hsu
    trick for deriving additional sparse operands. *)
val shift_last_dim : name:string -> by:int -> Tensor.t -> Tensor.t
