(* The query catalog: the fixed menu of (kernel, tensor-ref) computations a
   serve instance answers.  Jobs reference queries by name; the tensors
   behind them are deterministic synthetic analogs (memoized, so every job
   for a query shares one tensor instance — the "tensor-ref" of the job
   stream, and the reason cache digests collide across jobs and hit).
   Each query's read-only inputs ([Kernels.inputs]) are memoized the same
   way, so a new context (one per session, and again after a blacklisting
   rebuild) does not rebuild them.  Outputs are never memoized: every
   problem gets fresh ones, because a context owns and overwrites its
   output.

   Sizes are deliberately modest: a serve run executes hundreds of jobs, and
   the interesting behavior (admission, deadlines, eviction, degradation)
   lives in the queue and the cache, not in the leaf flops. *)

open Spdistal_runtime
open Spdistal_workloads

module K = Core.Kernels

type entry = {
  c_name : string;
  c_tensor : Spdistal_formats.Tensor.t Lazy.t;
  c_inputs : K.inputs Lazy.t;
}

let mk name kernel ?cols tensor =
  {
    c_name = name;
    c_tensor = tensor;
    c_inputs = lazy (K.inputs kernel ?cols (Lazy.force tensor));
  }

let all =
  [
    mk "spmv-web" K.Spmv
      (lazy
        (Synth.power_law ~name:"B" ~rows:1_200 ~cols:1_200 ~nnz:18_000
           ~alpha:1.1 ~seed:901));
    mk "spmv-banded" K.Spmv (lazy (Synth.banded ~name:"B" ~n:2_000 ~band:10));
    mk "spmm-dense8" K.Spmm ~cols:8
      (lazy (Synth.uniform ~name:"B" ~rows:800 ~cols:800 ~nnz:12_000 ~seed:902));
    mk "sddmm-social" K.Sddmm ~cols:8
      (lazy
        (Synth.power_law ~name:"B" ~rows:1_000 ~cols:1_000 ~nnz:15_000
           ~alpha:1.2 ~seed:903));
    mk "spadd3-stencil" K.Spadd3 (lazy (Synth.stencil ~name:"B" ~n:1_500 ~points:5));
    mk "spttv-events" K.Spttv
      (lazy
        (Synth.tensor3_uniform ~name:"B" ~dims:[| 200; 150; 100 |] ~nnz:8_000
           ~seed:904));
    mk "mttkrp-reviews" K.Mttkrp ~cols:8
      (lazy
        (Synth.tensor3_skewed ~name:"B" ~dims:[| 180; 140; 90 |] ~nnz:8_000
           ~alpha:1.0 ~seed:905));
  ]

let names = List.map (fun e -> e.c_name) all

let find name =
  match List.find_opt (fun e -> e.c_name = name) all with
  | Some e -> e
  | None -> Error.fail Error.Config "unknown catalog query %S" name

let problem ~machine name = K.problem ~machine (Lazy.force (find name).c_inputs)
