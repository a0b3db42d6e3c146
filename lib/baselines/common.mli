(** Shared machinery for the baseline systems (PETSc, Trilinos, CTF).

    Baselines compute {e real numeric results} with straightforward
    sequential kernels (so tests can cross-check every system against
    SpDISTAL and the dense reference) and price their execution with their
    own characteristic algorithm profile against the same {!Machine}
    parameters.  Overheads that represent per-element CPU work are expressed
    as {e flop-equivalents} so that machine scaling (see
    [Machine.scale_params]) applies to them uniformly. *)

open Spdistal_runtime
open Spdistal_formats

type result = { time : float; dnc : string option }

val ok : float -> result
val dnc : string -> result

(** The SpMV, SpMM and SpAdd3 entry points of all three systems.  Kernels
    write real results into the given outputs; [spadd3] returns the
    assembled sum when it completes. *)
module type Matrix_kernels = sig
  val spmv : machine:Machine.t -> Tensor.t -> x:Dense.vec -> y:Dense.vec -> result
  val spmm : machine:Machine.t -> Tensor.t -> c:Dense.mat -> a:Dense.mat -> result
  val spadd3 : machine:Machine.t -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t option * result
end

(** {1 Distribution analysis} *)

(** Non-zeros per contiguous row block when [rows] are split into [blocks]
    equal row ranges (the default layout of all three systems). *)
val row_block_nnz : Tensor.t -> blocks:int -> int array

(** Like {!row_block_nnz} but at fiber granularity (level-1 positions):
    the distribution unit of cyclic layouts over higher-order tensors, where
    a tiny first mode (e.g. "patents", 46 slices) cannot feed hundreds of
    ranks. *)
val fiber_block_nnz : Tensor.t -> blocks:int -> int array

(** Per-block ghost entries: distinct column coordinates referenced by the
    block's rows that fall outside the block's own column slice (the
    VecScatter / Import footprint). *)
val row_block_ghosts : Tensor.t -> blocks:int -> int array

(** {1 Shared cost model}

    PETSc, Trilinos and CTF all price a kernel with these terms: a static
    row-block layout of ranks, a per-rank roofline whose slowest rank sets
    the time, and a log-depth barrier.  PETSc and Trilinos add a
    node-granular ghost exchange that overlaps the local compute, the same
    row-block SpMV and SpMM compute profiles, and the same two-pass SpAdd3.
    Each system passes its own constants as arguments: CPU ranks per node,
    a static scheduling penalty, the exchange latency and the per-element
    insertion cost. *)

(** [ranks] MPI ranks, each an [1/den]-th share of a piece; every rank's
    roofline time is multiplied by [penalty]. *)
type layout = { ranks : int; den : int; penalty : float }

(** [cpu_ranks_per_node] ranks per CPU node, one rank per GPU.
    [static_penalty] (default 1) is the cost of static scheduling relative
    to dynamic load balance. *)
val layout : ?static_penalty:float -> Machine.t -> cpu_ranks_per_node:int -> layout

val log2f : int -> float

(** A barrier over the layout's ranks. *)
val barrier : Machine.t -> layout -> float

(** Max over ranks of the roofline of [per_rank count] = [(flops, bytes)],
    one count per rank. *)
val balance_time : Machine.t -> layout -> (int -> float * float) -> int array -> float

(** Communication overlapped with compute: only the part of [comm] above
    90% of [compute] shows. *)
val overlap : compute:float -> comm:float -> float

(** Ghost exchange of a row-distributed matrix's operand rows, [width]
    doubles each (1 for a vector): the slowest node's distinct ghost entries,
    corrected for the analogs' inflated density, over memory bandwidth on one
    node, else [latency] plus their remote fraction over the NIC. *)
val exchange : Machine.t -> Tensor.t -> width:float -> latency:float -> float

(** Row-block SpMV compute over per-rank non-zero [counts]: the matrix
    stream plus the rank's output rows. *)
val spmv_compute : Machine.t -> layout -> rows:int -> int array -> float

(** Row-block SpMM compute with [cols] dense columns. *)
val spmm_compute : Machine.t -> layout -> rows:int -> cols:float -> int array -> float

(** SpAdd3 as two pairwise additions (PETSc MatAXPY, Trilinos
    TwoMatrixAdd): B + C, then + D, each streaming both operands and
    assembling its output with one dynamic insertion of [insert_flops]
    flop-equivalents per stored entry.  Returns the sum ["A_" ^ name], the
    intermediate B + C and the time. *)
val pairwise_add3 : Machine.t -> layout -> insert_flops:float -> name:string ->
  Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t * Tensor.t * float

(** {1 Sequential reference kernels (real numerics)} *)

val seq_spmv : Tensor.t -> Dense.vec -> Dense.vec -> unit
val seq_spmm : Tensor.t -> Dense.mat -> Dense.mat -> unit

(** 3-way CSR addition; returns the assembled result. *)
val seq_add3 : name:string -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t

(** [seq_sddmm b c d a] writes into [a]'s values (pattern shared with [b]). *)
val seq_sddmm : Tensor.t -> Dense.mat -> Dense.mat -> Tensor.t -> unit

val seq_spttv : Tensor.t -> Dense.vec -> Tensor.t -> unit
val seq_mttkrp : Tensor.t -> Dense.mat -> Dense.mat -> Dense.mat -> unit
