(** The paper's evaluation kernels with their standard schedules and data
    distributions (§II-D, §VI-A).

    Schedules come in the two families the paper evaluates:
    - {e row-based} (outer-dimension) algorithms: universe partition of the
      first dimension — the default of every builder but SDDMM, used on
      CPUs for SpMV/SpMM/SpAdd3/SpTTV/SpMTTKRP;
    - {e non-zero-based} algorithms: coordinate fusion + non-zero partition,
      statically load balanced — SDDMM's default everywhere, and the GPU
      variants of SpMM/SpTTV/SpMTTKRP.

    [*_problem] builders assemble full {!Spdistal.problem}s from a sparse
    input: dense factors are deterministic pseudo-random and outputs are
    zeroed.  The data distribution follows the schedule: every builder
    takes the TDNs the schedule moves no data for from {!matched} (paper
    §II-D).  A variant is chosen by its schedule alone, e.g. the GPU
    non-zero SpTTV is
    [spttv_problem ~schedule:(spttv_nnz ~proc:Gpu_thread ())]; a
    mismatched distribution is {!Spdistal.with_schedule} of a matched
    problem. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir

(** {1 Schedules} *)

val spmv_row : ?proc:Schedule.proc -> unit -> Schedule.t
val spmv_nnz : ?proc:Schedule.proc -> unit -> Schedule.t
val spmm_row : ?proc:Schedule.proc -> unit -> Schedule.t

(** Load-balanced GPU SpMM (§VI-A2): non-zero split of [B], replicating the
    dense [C] (the variant that runs out of memory as [C] widens). *)
val spmm_nnz : ?proc:Schedule.proc -> unit -> Schedule.t

(** Memory-conserving 2-D "SpDISTAL-Batched" GPU SpMM schedule (§VI-A2):
    distributes both [i] and [j]. *)
val spmm_batched : ?proc:Schedule.proc -> unit -> Schedule.t

val spadd3_row : ?proc:Schedule.proc -> unit -> Schedule.t

(** [nnz_sched ~vars ~tensor ~tensors ()] fuses [vars] left to right, then
    strip-mines the fused position space of [tensor] and distributes it
    ({!Spdistal_ir.Schedule.nnz} with the leaf parallelized, the shape of
    every [*_nnz] schedule).  Raises
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
val spttv_nnz : ?proc:Schedule.proc -> unit -> Schedule.t
val mttkrp_nnz : ?proc:Schedule.proc -> unit -> Schedule.t

(** {1 Problem builders} *)

(** [matched ~machine ~operands ~stmt ~schedule] is the problem whose
    operands carry the data distribution [schedule] moves no data for
    ({!Spdistal_ir.Lower.matched}).  Raises
    {!Spdistal_runtime.Error.Error} ([Compile]) on a schedule
    {!Spdistal_ir.Schedule.analyze} refuses. *)
val matched :
  machine:Machine.t ->
  operands:(string * Spdistal_exec.Operand.slot) list ->
  stmt:Tin.stmt ->
  schedule:Schedule.t ->
  Spdistal.problem

(** Deterministic pseudo-random value in [0.5, 1.5) for element [i]. *)
val dval : int -> float

val dense_vec : string -> int -> Dense.vec
val dense_mat : string -> int -> int -> Dense.mat

(** [spmv_problem ~machine ~schedule b]. *)
val spmv_problem :
  machine:Machine.t -> ?schedule:Schedule.t -> Tensor.t -> Spdistal.problem

(** [spmm_problem ~machine ~cols b] — [cols] is the dense width (default
    32).  The GPU variants are {!spmm_nnz} (load-balanced) and
    {!spmm_batched} (2-D, on a 2-D grid). *)
val spmm_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?cols:int ->
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
  machine:Machine.t -> ?schedule:Schedule.t -> Tensor.t -> Spdistal.problem

val mttkrp_problem :
  machine:Machine.t ->
  ?schedule:Schedule.t ->
  ?cols:int ->
  Tensor.t ->
  Spdistal.problem

(** Shift a tensor's last dimension by [by] (mod its size), the Henry & Hsu
    trick for deriving additional sparse operands.  A cyclic shift permutes
    each parent's sorted run of the last level, so the result is a rotation
    of every run in O(nnz): no COO round trip, no sort.  Values move with
    their coordinates; pos, crd and vals are fresh regions named
    [name.pos], [name.crd] and [name.vals], as {!Tensor.of_coo} names them,
    and the result equals [of_coo] of the shifted COO list bit for bit.

    Refuses with an [Error.Config] error a tensor whose last level is not
    compressed (dense or singleton) or whose mode order is not the
    identity. *)
val shift_last_dim : name:string -> by:int -> Tensor.t -> Tensor.t
