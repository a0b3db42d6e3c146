(** Reproduction of paper Figure 11: GPU strong scaling heatmaps for SpMV,
    SpMM (plus SpDISTAL-Batched), SpAdd3 and SDDMM.

    Each heatmap box is the time in milliseconds of each system's GPU kernel
    on a (tensor, GPU count) pair; DNC marks OOM/unsupported cells, as in
    the paper.  SpMV scales only to 8 GPUs (its runtimes are ~10 ms);
    Trilinos runs under CUDA-UVM. *)

(** SpMV, SpMM, SpAdd3 and SDDMM. *)
val kernels : Runner.kernel list

(** The {!Runner.sweep} of {!kernels} on GPUs. *)
val compute : ?quick:bool -> unit -> Runner.cell list

val print : Format.formatter -> Runner.cell list -> unit
