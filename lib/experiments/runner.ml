open Spdistal_runtime
open Spdistal_exec
open Spdistal_workloads
open Spdistal_baselines
module K = Core.Kernels
module S = Core.Spdistal

type kernel = K.kernel = Spmv | Spmm | Spadd3 | Sddmm | Spttv | Mttkrp

type system =
  | Spdistal
  | Spdistal_batched
  | Spdistal_cpu_leaf
  | Petsc
  | Trilinos
  | Ctf

let kernel_name = K.kernel_name

let system_name = function
  | Spdistal -> "SpDISTAL"
  | Spdistal_batched -> "SpDISTAL-Batched"
  | Spdistal_cpu_leaf -> "SpDISTAL-CPU"
  | Petsc -> "PETSc"
  | Trilinos -> "Trilinos"
  | Ctf -> "CTF"

let all_kernels = [ Spmv; Spmm; Spadd3; Sddmm; Spttv; Mttkrp ]
let kernels_for_tensor3 = List.filter (fun k -> K.order k = 3) all_kernels

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

(* The hand-scheduled problem the paper uses for this (kernel, machine)
   cell — the baseline both [run_spdistal] and the auto-tournament price.
   GPUs run SpMM, SpTTV and SpMTTKRP with the non-zero split, or SpMM with
   the batched 2-D split; the data distribution follows the schedule. *)
let problem ~machine ?(batched = false) (i : K.inputs) =
  let gpu_thread = Spdistal_ir.Schedule.Gpu_thread in
  let gpu = machine.Machine.kind = Machine.Gpu in
  match i.K.kernel with
  | Spmm when batched ->
      let machine = gpu_machine_2d ~gpus:(Machine.pieces machine) in
      K.problem ~machine ~schedule:(K.spmm_batched ~proc:gpu_thread ()) i
  | Spmm when gpu -> K.problem ~machine ~schedule:(K.spmm_nnz ~proc:gpu_thread ()) i
  | Spttv when gpu -> K.problem ~machine ~schedule:(K.spttv_nnz ~proc:gpu_thread ()) i
  | Mttkrp when gpu -> K.problem ~machine ~schedule:(K.mttkrp_nnz ~proc:gpu_thread ()) i
  | Spmv | Spmm | Spadd3 | Sddmm | Spttv | Mttkrp -> K.problem ~machine i

let problem_for ~kernel ~machine ~cols ?batched b =
  problem ~machine ?batched (K.inputs kernel ~cols b)

let run_spdistal ~machine ?batched ~auto ?iterations ~cache inputs =
  let problem = problem ~machine ?batched inputs in
  let problem = if auto then Spdistal_opt.Auto.schedule problem else problem in
  of_spdistal (S.run ?iterations ~cache problem)

(* Baseline systems have no partition cache: an N-iteration solve re-pays
   the full launch (scatter + compute) every iteration, so the simulated
   time scales linearly (PETSc re-runs its VecScatter per MatMult). *)
let scale_iterations iterations (r : Common.result) =
  match (iterations, r.Common.dnc) with
  | Some n, None when n > 1 -> { r with Common.time = r.Common.time *. float_of_int n }
  | _ -> r

let run ~system ~machine ?(auto = false) ?iterations ?(cache = true) inputs =
  (* A baseline reads [B] and the shared inputs and writes a fresh output,
     all from the bindings every SpDISTAL problem of the cell is built on.
     Only CTF runs SDDMM, SpTTV and SpMTTKRP. *)
  let baseline (module B : Common.Matrix_kernels) =
    let ops = K.bindings inputs and b = inputs.K.b in
    let vec = Operand.find_vec ops
    and mat = Operand.find_mat ops
    and sparse = Operand.find_sparse ops in
    scale_iterations iterations
    @@
    match inputs.K.kernel with
    | Spmv -> B.spmv ~machine b ~x:(vec "c") ~y:(vec "a")
    | Spmm -> B.spmm ~machine b ~c:(mat "C") ~a:(mat "A")
    | Spadd3 -> snd (B.spadd3 ~machine b (sparse "C") (sparse "D"))
    | Sddmm when system = Ctf ->
        Ctf.sddmm ~machine b ~c:(mat "C") ~d:(mat "D") ~a:(sparse "A")
    | Spttv when system = Ctf -> Ctf.spttv ~machine b ~c:(vec "c") ~a:(sparse "A")
    | Mttkrp when system = Ctf ->
        Ctf.mttkrp ~machine b ~c:(mat "C") ~d:(mat "D") ~a:(mat "A")
    | Sddmm | Spttv | Mttkrp ->
        Common.dnc
          (system_name system ^ ": " ^ kernel_name inputs.K.kernel ^ " unsupported")
  in
  match system with
  | Spdistal -> run_spdistal ~machine ~auto ?iterations ~cache inputs
  | Spdistal_cpu_leaf ->
      (* SpDISTAL's CPU kernel on the same number of nodes (paper Fig. 11/12
         compare against "SpDISTAL's CPU kernel using all the resources on a
         node"). *)
      let nodes =
        match machine.Machine.kind with
        | Machine.Cpu -> Machine.pieces machine
        | Machine.Gpu -> Machine.nodes machine
      in
      run_spdistal ~machine:(cpu_machine ~nodes) ~auto ?iterations ~cache inputs
  | Spdistal_batched ->
      if inputs.K.kernel <> Spmm then Common.dnc "batched schedule is SpMM-only"
      else run_spdistal ~machine ~batched:true ~auto ?iterations ~cache inputs
  | Petsc -> baseline (module Petsc)
  | Trilinos -> baseline (module Trilinos)
  | Ctf -> baseline (module Ctf)

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

let cells kind ~pieces ~tensor (inputs : K.inputs) =
  let kernel = inputs.K.kernel in
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
            tensor;
            result = run ~system ~machine inputs;
          })
        (systems_for kernel kind))
    pieces

let sweep ?quick kind ~counts kernels =
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun (e : Datasets.entry) ->
          cells kind ~pieces:(counts kernel) ~tensor:e.Datasets.ds_name
            (K.inputs kernel (e.Datasets.load ())))
        (datasets_for ?quick kernel))
    kernels
