(** Reproduction of paper Figure 12: GPU-vs-CPU heatmaps for SpTTV and
    SpMTTKRP.  Each box compares SpDISTAL's GPU kernel (non-zero-based, 4
    GPUs per node) against SpDISTAL's CPU kernel (row-based, all cores) on
    the same number of nodes, reporting the speedup of the faster system.
    The median GPU speedup over completing boxes (paper: 2.0x SpTTV, 2.2x
    SpMTTKRP when data fits) is
    [Fig10.median_speedup cells ~kernel ~vs:Spdistal_cpu_leaf]. *)

(** The {!Runner.sweep} on 4, 8, ..., 64 GPUs (1-16 nodes): per box, a
    [Spdistal] cell and a [Spdistal_cpu_leaf] cell. *)
val compute : ?quick:bool -> unit -> Runner.cell list

val print : Format.formatter -> Runner.cell list -> unit
