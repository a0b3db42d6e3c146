(* GPU SpMM: the load-balanced vs memory-conserving tradeoff of paper §VI-A2.

   The load-balanced schedule non-zero-splits B and gathers the needed rows
   of the dense C everywhere — fastest when it fits, OOM when it does not.
   The "SpDISTAL-Batched" schedule distributes both i and j on a 2-D machine
   grid, chunking C's columns to conserve memory at the cost of extra
   communication rounds.

   Run with: dune exec examples/spmm_gpu.exe *)

open Spdistal_runtime
open Spdistal_exec

let run name problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Printf.printf "%-28s DNC (%s)\n" name r
  | None ->
      Printf.printf "%-28s %8.3f ms\n" name
        (1000. *. Cost.total res.Core.Spdistal.cost);
      (* Cheap spot-check against a sequential SpMM. *)
      let bindings = Core.Spdistal.bindings problem in
      let b = Operand.find_sparse bindings "B" in
      let a = Operand.find_mat bindings "A" in
      let c = Operand.find_mat bindings "C" in
      let expect =
        Spdistal_formats.Dense.mat_create "ref" a.Spdistal_formats.Dense.rows
          a.Spdistal_formats.Dense.cols
      in
      Spdistal_baselines.Common.seq_spmm b c expect;
      assert (Spdistal_formats.Dense.mat_dist a expect < 1e-9)

let () =
  let gpus = 8 in
  (* Scaled-down GPUs so the example exhibits the OOM boundary without
     gigabyte-scale inputs (cf. Machine.scale_params). *)
  let params = Machine.scale_params 14_500. Machine.lassen in
  let gpu1d = Core.Spdistal.machine ~params ~kind:Machine.Gpu [| gpus |] in
  let gpu2d = Core.Spdistal.machine ~params ~kind:Machine.Gpu [| gpus / 2; 2 |] in

  let b =
    Spdistal_workloads.Synth.uniform ~name:"B" ~rows:4_000 ~cols:4_000
      ~nnz:120_000 ~seed:3
  in
  Printf.printf "B: %d x %d, %d nnz; C: %d x 32; per-GPU memory %.2e B\n\n"
    b.Spdistal_formats.Tensor.dims.(0)
    b.Spdistal_formats.Tensor.dims.(1)
    (Spdistal_formats.Tensor.nnz b) b.Spdistal_formats.Tensor.dims.(1)
    (Machine.piece_mem gpu1d);

  (* The load-balanced kernel replicates C per GPU: OOM at this scale. *)
  run "load-balanced (nnz split)"
    (Core.Kernels.spmm_problem ~machine:gpu1d ~cols:32
       ~schedule:(Core.Kernels.spmm_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);
  (* The batched kernel partitions C's columns over the grid's second dim. *)
  run "SpDISTAL-Batched (2-D)"
    (Core.Kernels.spmm_problem ~machine:gpu2d ~cols:32
       ~schedule:(Core.Kernels.spmm_batched ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);

  (* With a narrower C both fit, and the load-balanced kernel wins. *)
  Printf.printf "\nnarrower C (8 columns):\n";
  run "load-balanced (nnz split)"
    (Core.Kernels.spmm_problem ~machine:gpu1d ~cols:8
       ~schedule:(Core.Kernels.spmm_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);
  run "SpDISTAL-Batched (2-D)"
    (Core.Kernels.spmm_problem ~machine:gpu2d ~cols:8
       ~schedule:(Core.Kernels.spmm_batched ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);
  print_newline ();
  print_endline
    "Paper Fig. 11: the load-balanced kernel is fastest once data fits into\n\
     GPU memory; the memory-conserving kernel wins when it does not."
