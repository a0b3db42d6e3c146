(* Tensor factorization workloads: SpTTV and SpMTTKRP on a 3-tensor (the
   data-analytics motivation of the paper's intro), on CPU and GPU machines,
   with row-based and non-zero-based schedules.

   Run with: dune exec examples/tensor_factorization.exe *)

open Spdistal_runtime
let run name problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Printf.printf "%-34s DNC: %s\n" name r
  | None ->
      Printf.printf "%-34s %8.3f ms\n" name
        (1000. *. Cost.total res.Core.Spdistal.cost)

let () =
  let nodes = 4 in
  let cpu = Core.Spdistal.machine ~kind:Machine.Cpu [| nodes |] in
  let gpu = Core.Spdistal.machine ~kind:Machine.Gpu [| 4 * nodes |] in

  (* An NELL-like moderately dense 3-tensor. *)
  let b =
    Spdistal_workloads.Synth.tensor3_uniform ~name:"B" ~dims:[| 600; 500; 300 |]
      ~nnz:60_000 ~seed:11
  in
  Printf.printf "3-tensor: %s\n\n" (Format.asprintf "%a" Spdistal_formats.Tensor.pp b);

  Printf.printf "SpTTV: %s\n" (Spdistal_ir.Tin.to_string Spdistal_ir.Tin.spttv);
  run "CPU, row-based" (Core.Kernels.spttv_problem ~machine:cpu b);
  run "CPU, non-zero-based"
    (Core.Kernels.spttv_problem ~machine:cpu
       ~schedule:(Core.Kernels.spttv_nnz ()) b);
  run "GPU, non-zero-based (paper's pick)"
    (Core.Kernels.spttv_problem ~machine:gpu
       ~schedule:(Core.Kernels.spttv_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);

  Printf.printf "\nSpMTTKRP: %s\n" (Spdistal_ir.Tin.to_string Spdistal_ir.Tin.spmttkrp);
  run "CPU, row-based (paper's pick)"
    (Core.Kernels.mttkrp_problem ~machine:cpu ~cols:32 b);
  run "CPU, non-zero-based"
    (Core.Kernels.mttkrp_problem ~machine:cpu ~cols:32
       ~schedule:(Core.Kernels.mttkrp_nnz ()) b);
  run "GPU, non-zero-based (paper's pick)"
    (Core.Kernels.mttkrp_problem ~machine:gpu ~cols:32
       ~schedule:(Core.Kernels.mttkrp_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b);
  print_newline ();
  print_endline
    "Paper §VI-A: on CPUs the leaf synchronization of the non-zero split\n\
     costs more than the load balance gains; on GPUs the balance across all\n\
     GPU threads wins (hence the paper's GPU kernels use the non-zero-based\n\
     schedules for SpTTV and SpMTTKRP)."
