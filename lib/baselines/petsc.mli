(** PETSc-like baseline (paper §VI comparison target).

    Algorithmic profile, per the paper's methodology and observations:
    - one MPI rank per core on CPUs (so rank-granular static row blocks —
      no intra-rank threading, the source of SpDISTAL's SpMV advantage on
      skewed matrices), one rank per GPU;
    - MatMult/MatMatMult with VecScatter/row-gather ghost exchange and a
      per-operation synchronization;
    - no fused 3-matrix addition: SpAdd3 executes as two pairwise MatAXPY
      operations, each assembling an intermediate matrix with per-element
      dynamic insertion;
    - GPU SpMM pays a multi-GPU staging penalty (per the paper's
      communication with the PETSc developers);
    - no GPU sparse-add with unknown output pattern. *)

include Common.Matrix_kernels
