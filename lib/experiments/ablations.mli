(** Ablation benches for the design choices DESIGN.md calls out.

    - {b partition}: row-based vs non-zero-based SpMV on balanced vs
      hub-concentrated matrices (the §II-D tradeoff: load balance vs
      reduction communication).
    - {b mismatch}: matched vs mismatched data/computation distributions
      (§II-D: "valid but comes at a performance cost").
    - {b fusion}: fused 3-way addition vs two pairwise additions within
      SpDISTAL itself (the SpAdd3 argument without library confounds).
    - {b spmm-gpu}: load-balanced vs batched GPU SpMM across memory
      pressure (§VI-A2).
    - {b format}: the format language's independence — the same row-based
      distributed SpMV over CSR, DCSR and CSC storage (§II-B). *)

(** Run every ablation above, in that order. *)
val run_all : Format.formatter -> unit -> unit
