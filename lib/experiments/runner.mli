(** Uniform dispatch of (kernel, system, machine, dataset) cells: the engine
    behind every evaluation figure.

    Machines are Lassen nodes scaled by [Datasets.scale] (see
    [Machine.scale_params]) so the ~5000x-scaled dataset analogs reproduce
    the paper's absolute times and memory boundaries. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_workloads

(** {!Core.Kernels.kernel}, re-exported with its constructors. *)
type kernel = Core.Kernels.kernel = Spmv | Spmm | Spadd3 | Sddmm | Spttv | Mttkrp

type system =
  | Spdistal  (** the schedule the paper uses for this kernel/machine kind *)
  | Spdistal_batched  (** memory-conserving 2-D GPU SpMM *)
  | Spdistal_cpu_leaf  (** SpDISTAL's CPU kernel (Fig. 12 comparisons) *)
  | Petsc
  | Trilinos
  | Ctf

val kernel_name : kernel -> string
val system_name : system -> string

val all_kernels : kernel list

(** Systems compared for a kernel on the given processor kind, in the
    paper's order (§VI-A). *)
val systems_for : kernel -> Machine.proc_kind -> system list

(** Scaled-Lassen machine constructors. *)
val cpu_machine : nodes:int -> Machine.t

val gpu_machine : gpus:int -> Machine.t

(** The hand-scheduled problem the paper uses for this (kernel, machine)
    cell — what [run] executes for the SpDISTAL systems, and what the
    auto-tournament reschedules — over a fresh output and the shared
    [inputs].  [batched] picks the 2-D memory-conserving SpMM (the machine
    is re-gridded to a near-square 2-D grid). *)
val problem :
  machine:Machine.t -> ?batched:bool -> Core.Kernels.inputs -> Core.Spdistal.problem

(** [problem_for ~kernel ~machine ~cols b] is {!problem} of
    [Kernels.inputs kernel ~cols b]: raises [Error.Config] when the
    tensor's order is not the kernel's or [cols] is negative. *)
val problem_for :
  kernel:kernel ->
  machine:Machine.t ->
  cols:int ->
  ?batched:bool ->
  Tensor.t ->
  Core.Spdistal.problem

(** [run ~system ~machine inputs] executes one cell: real numerics,
    simulated time.  Every system reads [B] and its dense factors or
    shifted copies from [inputs] and writes a fresh output
    ({!Core.Kernels.bindings}), so the cells of one (dataset, kernel) share
    one input set.  Trilinos GPU runs use UVM.

    [auto] replaces the hand schedule of SpDISTAL systems with the
    auto-scheduler's choice ({!Spdistal_opt.Auto.schedule}); baselines are
    unaffected.

    [iterations] switches the cell to the iterative protocol: SpDISTAL
    systems run through the warm-start execution context (partitions are
    computed on the first iteration and cached; [cache:false] pays for them
    every iteration), while baseline systems re-pay their full launch each
    iteration, so their time scales linearly. *)
val run :
  system:system ->
  machine:Machine.t ->
  ?auto:bool ->
  ?iterations:int ->
  ?cache:bool ->
  Core.Kernels.inputs ->
  Spdistal_baselines.Common.result

(** The kernels that apply to 3-tensor datasets. *)
val kernels_for_tensor3 : kernel list

(** One evaluation cell: a (kernel, system, machine, tensor) run.  Every
    figure is a list of these. *)
type cell = {
  kernel : kernel;
  system : system;
  kind : Machine.proc_kind;  (** the machine the cell ran on *)
  pieces : int;  (** nodes (CPU) or GPUs *)
  tensor : string;
  result : Spdistal_baselines.Common.result;  (** the time, or the DNC reason *)
}

(** The cell's simulated seconds; [None] = DNC. *)
val time : cell -> float option

(** The Table II analogs a kernel runs on: the 3-tensors for
    {!kernels_for_tensor3}, the matrices otherwise.  [quick] keeps the first
    two. *)
val datasets_for : ?quick:bool -> kernel -> Datasets.entry list

(** [cells kind ~pieces ~tensor inputs] runs every system of
    {!systems_for} at each of [pieces] on a {!cpu_machine} or
    {!gpu_machine} of [kind], all over the one input set [inputs]; each
    cell is labelled with the dataset name [tensor]. *)
val cells :
  Machine.proc_kind ->
  pieces:int list ->
  tensor:string ->
  Core.Kernels.inputs ->
  cell list

(** [sweep kind ~counts kernels] runs, in this nest order, every kernel,
    each of its {!datasets_for} (loaded once, its {!Core.Kernels.inputs}
    built once), and the {!cells} of [counts kernel] over those inputs. *)
val sweep :
  ?quick:bool ->
  Machine.proc_kind ->
  counts:(kernel -> int list) ->
  kernel list ->
  cell list
