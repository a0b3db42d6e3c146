open Spdistal_runtime
open Spdistal_formats
open Spdistal_workloads
open Spdistal_baselines
module K = Core.Kernels
module S = Core.Spdistal

type kernel = Spmv | Spmm | Spadd3 | Sddmm | Spttv | Mttkrp

type system =
  | Spdistal
  | Spdistal_batched
  | Spdistal_cpu_leaf
  | Petsc
  | Trilinos
  | Ctf

let kernel_name = function
  | Spmv -> "SpMV"
  | Spmm -> "SpMM"
  | Spadd3 -> "SpAdd3"
  | Sddmm -> "SDDMM"
  | Spttv -> "SpTTV"
  | Mttkrp -> "SpMTTKRP"

let system_name = function
  | Spdistal -> "SpDISTAL"
  | Spdistal_batched -> "SpDISTAL-Batched"
  | Spdistal_cpu_leaf -> "SpDISTAL-CPU"
  | Petsc -> "PETSc"
  | Trilinos -> "Trilinos"
  | Ctf -> "CTF"

let all_kernels = [ Spmv; Spmm; Spadd3; Sddmm; Spttv; Mttkrp ]
let kernels_for_tensor3 = [ Spttv; Mttkrp ]

let systems_for kernel kind =
  match (kernel, kind) with
  | (Spmv | Spmm), Machine.Cpu -> [ Spdistal; Petsc; Trilinos; Ctf ]
  | Spadd3, Machine.Cpu -> [ Spdistal; Petsc; Trilinos; Ctf ]
  | (Sddmm | Spttv | Mttkrp), Machine.Cpu -> [ Spdistal; Ctf ]
  | Spmv, Machine.Gpu -> [ Spdistal; Petsc; Trilinos ]
  | Spmm, Machine.Gpu -> [ Spdistal; Spdistal_batched; Petsc; Trilinos ]
  | Spadd3, Machine.Gpu -> [ Spdistal; Trilinos ]
  | (Sddmm | Spttv | Mttkrp), Machine.Gpu -> [ Spdistal; Spdistal_cpu_leaf ]

let scaled_params () = Machine.scale_params Datasets.scale Machine.lassen

let cpu_machine ~nodes =
  Machine.make ~params:(scaled_params ()) ~kind:Machine.Cpu [| nodes |]

let gpu_machine ~gpus =
  Machine.make ~params:(scaled_params ()) ~kind:Machine.Gpu [| gpus |]

(* Near-square 2-D grid for the batched SpMM schedule. *)
let gpu_machine_2d ~gpus =
  let rec pick gy = if gy * gy > gpus || gpus mod gy <> 0 then gy / 2 else pick (gy * 2) in
  let gy = max 1 (pick 2) in
  Machine.make ~params:(scaled_params ()) ~kind:Machine.Gpu [| gpus / gy; gy |]

let of_spdistal (res : S.run_result) =
  match res.S.dnc with
  | Some reason -> Common.dnc ("SpDISTAL: " ^ reason)
  | None -> Common.ok (Cost.total res.S.cost)

(* A cell's inputs, checked once at its entry points ([problem_for],
   [run]): the tensor has the kernel's order and the dense width is not
   negative. *)
let check_cell ~kernel ~cols b =
  let order = if List.mem kernel kernels_for_tensor3 then 3 else 2 in
  let kernel = kernel_name kernel in
  if Tensor.order b <> order then
    Error.fail ~kernel Error.Config "needs an order-%d tensor, %s has order %d"
      order b.Tensor.name (Tensor.order b);
  if cols < 0 then
    Error.fail ~kernel Error.Config "dense width must be >= 0, got %d" cols

(* The hand-scheduled problem the paper uses for this (kernel, machine)
   cell — the baseline both [run_spdistal] and the auto-tournament price.
   GPUs run SpMM, SpTTV and SpMTTKRP with the non-zero split, or SpMM with
   the batched 2-D split; the data distribution follows the schedule. *)
let problem ~kernel ~machine ~cols ~batched b =
  let gpu = machine.Machine.kind = Machine.Gpu in
  let gpu_thread = Spdistal_ir.Schedule.Gpu_thread in
  let on_gpu nnz = if gpu then Some (nnz ()) else None in
  match kernel with
  | Spmv -> K.spmv_problem ~machine b
  | Spmm ->
      if batched then
        let m2 = gpu_machine_2d ~gpus:(Machine.pieces machine) in
        K.spmm_problem ~machine:m2 ~cols
          ~schedule:(K.spmm_batched ~proc:gpu_thread ()) b
      else
        K.spmm_problem ~machine ~cols
          ?schedule:(on_gpu (K.spmm_nnz ~proc:gpu_thread)) b
  | Spadd3 -> K.spadd3_problem ~machine b
  | Sddmm -> K.sddmm_problem ~machine ~cols b
  | Spttv ->
      K.spttv_problem ~machine ?schedule:(on_gpu (K.spttv_nnz ~proc:gpu_thread)) b
  | Mttkrp ->
      K.mttkrp_problem ~machine ~cols
        ?schedule:(on_gpu (K.mttkrp_nnz ~proc:gpu_thread)) b

let problem_for ~kernel ~machine ~cols ?(batched = false) b =
  check_cell ~kernel ~cols b;
  problem ~kernel ~machine ~cols ~batched b

let run_spdistal ~kernel ~machine ~cols ?(batched = false) ~auto ?iterations
    ~cache b =
  let problem = problem ~kernel ~machine ~cols ~batched b in
  let problem = if auto then Spdistal_opt.Auto.schedule problem else problem in
  of_spdistal (S.run ?iterations ~cache problem)

(* Baseline systems have no partition cache: an N-iteration solve re-pays
   the full launch (scatter + compute) every iteration, so the simulated
   time scales linearly (PETSc re-runs its VecScatter per MatMult). *)
let scale_iterations iterations (r : Common.result) =
  match (iterations, r.Common.dnc) with
  | Some n, None when n > 1 -> { r with Common.time = r.Common.time *. float_of_int n }
  | _ -> r

(* The operands of the shared SpMV, SpMM and SpAdd3 entry points are built
   here, fresh on every call.  SpAdd3's [C] and [D] are rotations of [B]'s
   last level, O(nnz) each ([Kernels.shift_last_dim]). *)
let run_baseline (module B : Common.Matrix_kernels) ~name ~kernel ~machine ~cols b =
  match kernel with
  | Spmv ->
      let x = K.dense_vec "x" b.Tensor.dims.(1)
      and y = Dense.vec_create "y" b.Tensor.dims.(0) in
      B.spmv ~machine b ~x ~y
  | Spmm ->
      let c = K.dense_mat "C" b.Tensor.dims.(1) cols
      and a = Dense.mat_create "A" b.Tensor.dims.(0) cols in
      B.spmm ~machine b ~c ~a
  | Spadd3 ->
      let c = K.shift_last_dim ~name:"C" ~by:1 b
      and d = K.shift_last_dim ~name:"D" ~by:2 b in
      snd (B.spadd3 ~machine b c d)
  | Sddmm | Spttv | Mttkrp ->
      Common.dnc (name ^ ": " ^ kernel_name kernel ^ " unsupported")

let run ~kernel ~system ~machine ?(cols = 32) ?(auto = false) ?iterations
    ?(cache = true) b =
  check_cell ~kernel ~cols b;
  match system with
  | Spdistal -> run_spdistal ~kernel ~machine ~cols ~auto ?iterations ~cache b
  | Spdistal_cpu_leaf ->
      (* SpDISTAL's CPU kernel on the same number of nodes (paper Fig. 11/12
         compare against "SpDISTAL's CPU kernel using all the resources on a
         node"). *)
      let nodes =
        match machine.Machine.kind with
        | Machine.Cpu -> Machine.pieces machine
        | Machine.Gpu -> Machine.nodes machine
      in
      run_spdistal ~kernel ~machine:(cpu_machine ~nodes) ~cols ~auto
        ?iterations ~cache b
  | Spdistal_batched ->
      if kernel <> Spmm then Common.dnc "batched schedule is SpMM-only"
      else
        run_spdistal ~kernel ~machine ~cols ~batched:true ~auto ?iterations
          ~cache b
  | Petsc ->
      scale_iterations iterations
        (run_baseline (module Petsc) ~name:"PETSc" ~kernel ~machine ~cols b)
  | Trilinos ->
      scale_iterations iterations
        (run_baseline (module Trilinos) ~name:"Trilinos" ~kernel ~machine ~cols
           b)
  | Ctf ->
      scale_iterations iterations
      @@ (
      match kernel with
      | Spmv | Spmm | Spadd3 ->
          run_baseline (module Ctf) ~name:"CTF" ~kernel ~machine ~cols b
      | Sddmm ->
          let c = K.dense_mat "C" b.Tensor.dims.(0) cols
          and d = K.dense_mat "D" cols b.Tensor.dims.(1) in
          let a = Assemble.copy_pattern ~name:"A" b in
          Ctf.sddmm ~machine b ~c ~d ~a
      | Spttv ->
          let c = K.dense_vec "c" b.Tensor.dims.(2)
          and a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
          Ctf.spttv ~machine b ~c ~a
      | Mttkrp ->
          let c = K.dense_mat "C" b.Tensor.dims.(1) cols
          and d = K.dense_mat "D" b.Tensor.dims.(2) cols
          and a = Dense.mat_create "A" b.Tensor.dims.(0) cols in
          Ctf.mttkrp ~machine b ~c ~d ~a)

type cell = {
  kernel : kernel;
  system : system;
  kind : Machine.proc_kind;
  pieces : int;
  tensor : string;
  result : Common.result;
}

let time c =
  match c.result.Common.dnc with None -> Some c.result.Common.time | Some _ -> None

let datasets_for ?(quick = false) kernel =
  let all =
    match kernel with
    | Spttv | Mttkrp -> Datasets.tensors3
    | Spmv | Spmm | Spadd3 | Sddmm -> Datasets.matrices
  in
  if quick then List.filteri (fun i _ -> i < 2) all else all

let sweep ?quick kind ~counts kernels =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun (e : Datasets.entry) ->
          let b = e.Datasets.load () in
          List.concat_map
            (fun pieces ->
              let machine =
                match kind with
                | Machine.Cpu -> cpu_machine ~nodes:pieces
                | Machine.Gpu -> gpu_machine ~gpus:pieces
              in
              List.map
                (fun system ->
                  {
                    kernel;
                    system;
                    kind;
                    pieces;
                    tensor = e.Datasets.ds_name;
                    result = run ~kernel ~system ~machine b;
                  })
                (systems_for kernel kind))
            (counts kernel))
        (datasets_for ?quick kernel))
    kernels
