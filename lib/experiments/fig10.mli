(** Reproduction of paper Figure 10: CPU strong scaling of SpMV, SpMM,
    SpAdd3, SDDMM, SpTTV and SpMTTKRP for SpDISTAL, PETSc, Trilinos and CTF
    over the Table II dataset analogs.

    Each cell is one (kernel, system, node count, tensor) run; the printed
    series are speedups normalized to SpDISTAL on one node, averaged
    (geometric mean) over tensors, matching the paper's presentation, plus
    the per-system median speedup the paper quotes in §VI-A1. *)

(** [compute ~quick ()] — the {!Runner.sweep} on CPUs; [quick] restricts to
    two tensors per kernel and node counts {1,4} (used by tests). *)
val compute : ?quick:bool -> unit -> Runner.cell list

val print : Format.formatter -> Runner.cell list -> unit

(** Median over (tensor, piece count) cells of [t_vs / t_spdistal] at equal
    piece count; the paper's headline numbers.  Over Figure 12's cells,
    [~vs:Spdistal_cpu_leaf] is the median GPU speedup. *)
val median_speedup :
  Runner.cell list -> kernel:Runner.kernel -> vs:Runner.system -> float option
