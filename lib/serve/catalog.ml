(* The query catalog: the fixed menu of (kernel, tensor-ref) computations a
   serve instance answers.  Jobs reference queries by name; the tensors
   behind them are deterministic synthetic analogs (memoized, so every job
   for a query shares one tensor instance — the "tensor-ref" of the job
   stream, and the reason cache digests collide across jobs and hit).
   Read-only inputs derived from a query's tensor (SpAdd3's shifted C and
   D) are memoized the same way, so a new context (one per session, and
   again after a blacklisting rebuild) does not rebuild them.  Outputs are
   never memoized: every problem gets fresh ones, because a context owns
   and overwrites its output.

   Sizes are deliberately modest: a serve run executes hundreds of jobs, and
   the interesting behavior (admission, deadlines, eviction, degradation)
   lives in the queue and the cache, not in the leaf flops. *)

open Spdistal_runtime
open Spdistal_workloads

type entry = {
  c_name : string;
  c_tensor : Spdistal_formats.Tensor.t Lazy.t;
  c_problem : machine:Machine.t -> Core.Spdistal.problem;
}

let mk name tensor problem =
  { c_name = name; c_tensor = tensor; c_problem = problem }

let all =
  let spmv_web =
    lazy
      (Synth.power_law ~name:"B" ~rows:1_200 ~cols:1_200 ~nnz:18_000 ~alpha:1.1
         ~seed:901)
  in
  let spmv_banded = lazy (Synth.banded ~name:"B" ~n:2_000 ~band:10) in
  let spmm_uniform =
    lazy (Synth.uniform ~name:"B" ~rows:800 ~cols:800 ~nnz:12_000 ~seed:902)
  in
  let sddmm_social =
    lazy
      (Synth.power_law ~name:"B" ~rows:1_000 ~cols:1_000 ~nnz:15_000 ~alpha:1.2
         ~seed:903)
  in
  let spadd3_stencil = lazy (Synth.stencil ~name:"B" ~n:1_500 ~points:5) in
  let spadd3_shifted ~name ~by =
    lazy (Core.Kernels.shift_last_dim ~name ~by (Lazy.force spadd3_stencil))
  in
  let spadd3_c = spadd3_shifted ~name:"C" ~by:1
  and spadd3_d = spadd3_shifted ~name:"D" ~by:2 in
  let spttv_events =
    lazy
      (Synth.tensor3_uniform ~name:"B" ~dims:[| 200; 150; 100 |] ~nnz:8_000
         ~seed:904)
  in
  let mttkrp_reviews =
    lazy
      (Synth.tensor3_skewed ~name:"B" ~dims:[| 180; 140; 90 |] ~nnz:8_000
         ~alpha:1.0 ~seed:905)
  in
  [
    mk "spmv-web" spmv_web (fun ~machine ->
        Core.Kernels.spmv_problem ~machine (Lazy.force spmv_web));
    mk "spmv-banded" spmv_banded (fun ~machine ->
        Core.Kernels.spmv_problem ~machine (Lazy.force spmv_banded));
    mk "spmm-dense8" spmm_uniform (fun ~machine ->
        Core.Kernels.spmm_problem ~machine ~cols:8 (Lazy.force spmm_uniform));
    mk "sddmm-social" sddmm_social (fun ~machine ->
        Core.Kernels.sddmm_problem ~machine ~cols:8 (Lazy.force sddmm_social));
    mk "spadd3-stencil" spadd3_stencil (fun ~machine ->
        Core.Kernels.spadd3_problem ~machine ~c:(Lazy.force spadd3_c)
          ~d:(Lazy.force spadd3_d) (Lazy.force spadd3_stencil));
    mk "spttv-events" spttv_events (fun ~machine ->
        Core.Kernels.spttv_problem ~machine (Lazy.force spttv_events));
    mk "mttkrp-reviews" mttkrp_reviews (fun ~machine ->
        Core.Kernels.mttkrp_problem ~machine ~cols:8
          (Lazy.force mttkrp_reviews));
  ]

let names = List.map (fun e -> e.c_name) all

let find name =
  match List.find_opt (fun e -> e.c_name = name) all with
  | Some e -> e
  | None -> Error.fail Error.Config "unknown catalog query %S" name

let problem ~machine name = (find name).c_problem ~machine
