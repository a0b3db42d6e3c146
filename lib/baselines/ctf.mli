(** Cyclops Tensor Framework (CTF)-like baseline: the interpretation-based
    comparison target (paper §I, §VI).

    CTF executes a tensor algebra expression as a {e sequence of pairwise
    contractions}; before each step, operands are redistributed into the
    step's preferred cyclic processor-grid layout.  This architecture is the
    source of the paper's headline gaps:
    - large constant-factor slowdowns on binary sparse kernels (299x SpMV,
      161x SpTTV, 19.2x SpAdd3 medians) from redistribution plus per-element
      interpretive dispatch;
    - hand-written special kernels for SDDMM and SpMTTKRP (Zhang et al.
      [31]): 15.3x on SDDMM, parity on SpMTTKRP (faster on "patents", whose
      dense modes suit CTF's blocked layout);
    - OOM on tensors whose dimensions force large per-rank factor buffers
      ("freebase_sampled" at every node count, "freebase_music" at 1-2
      nodes) or whose dense modes get padded ("patents" SpTTV at 1 node).

    Per-element overheads are flop-equivalents (see {!Common}); memory terms
    are documented at each check.  CPU only (the paper could not use CTF's
    GPU backend): every kernel returns a DNC result on a GPU machine. *)

open Spdistal_runtime
open Spdistal_formats

include Common.Matrix_kernels

val sddmm :
  machine:Machine.t -> Tensor.t -> c:Dense.mat -> d:Dense.mat -> a:Tensor.t -> Common.result

val spttv : machine:Machine.t -> Tensor.t -> c:Dense.vec -> a:Tensor.t -> Common.result

val mttkrp :
  machine:Machine.t ->
  Tensor.t ->
  c:Dense.mat ->
  d:Dense.mat ->
  a:Dense.mat ->
  Common.result
