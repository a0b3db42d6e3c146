(** Trilinos/Tpetra-like baseline (paper §VI comparison target).

    Algorithmic profile:
    - one MPI rank per socket on CPUs (Kokkos threads inside, statically
      scheduled), one rank per GPU;
    - row map + column map with a single-gather Import per operand — one
      large message instead of SpDISTAL's chunked rounds, which wins some
      GPU SpMM configurations (paper §VI-A2);
    - pairwise TwoMatrixAdd for SpAdd3, with expensive assembly;
    - a slower SpMM leaf kernel than the Senanayake et al. schedule
      SpDISTAL generates (paper attributes its SpMM advantage to the leaf);
    - CUDA-UVM on GPUs: problems that exceed device memory run anyway, at a
      paging penalty (never DNC for capacity on SpMM/SpAdd3). *)

include Common.Matrix_kernels
