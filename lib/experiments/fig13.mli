(** Reproduction of paper Figure 13: SpMV weak scaling on synthetic banded
    matrices, SpDISTAL vs PETSc, CPUs and GPUs.

    The problem grows with the machine (a constant number of non-zeros per
    piece); ideal weak scaling keeps iteration time flat.  The paper reports
    PETSc scaling perfectly, SpDISTAL's CPU kernel at 90-92% of PETSc, and
    SpDISTAL's GPU kernel 1.05-1.29x {e faster} than PETSc's (deferred
    execution hiding synchronization). *)

(** The banded matrix for [pieces] pieces, named ["banded-<pieces>"]. *)
val matrix : int -> Spdistal_formats.Tensor.t

(** [compute ~quick ()] — one SpMV cell per system, processor kind and piece
    count, on {!matrix}.  Full mode scales CPUs to 64 nodes and GPUs to 256
    GPUs with ~35k non-zeros per piece (a further 4x size reduction from the
    dataset scale, noted in EXPERIMENTS.md). *)
val compute : ?quick:bool -> unit -> Runner.cell list

val print : Format.formatter -> Runner.cell list -> unit
