(** Reproduction of paper Figure 11: GPU strong scaling heatmaps for SpMV,
    SpMM (plus SpDISTAL-Batched), SpAdd3 and SDDMM.

    Each heatmap box is the time in milliseconds of each system's GPU kernel
    on a (tensor, GPU count) pair; DNC marks OOM/unsupported cells, as in
    the paper.  SpMV scales only to 8 GPUs (its runtimes are ~10 ms);
    Trilinos runs under CUDA-UVM. *)

type cell = {
  kernel : Runner.kernel;
  system : Runner.system;
  gpus : int;
  tensor : string;
  time : float option;
  dnc_reason : string option;
}

val compute : ?quick:bool -> unit -> cell list
val print : Format.formatter -> cell list -> unit
