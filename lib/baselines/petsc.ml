open Spdistal_runtime
open Spdistal_formats

(* Flop-equivalent cost of one dynamic MatSetValues insertion during sparse
   assembly (~25 ns at Lassen's nominal 1 Tflop/s node). *)
let insert_flops = 800.

(* Device synchronization per GPU MatMult (PETSc's synchronous execution;
   Legion's deferred execution avoids this — paper §VI-B). *)
let gpu_sync = 15e-6

(* PETSc's local SpMM kernel relative to the Senanayake et al. schedule
   SpDISTAL generates (paper: 2.01x median overall on SpMM). *)
let spmm_kernel_penalty = 1.15

(* Multi-GPU SpMM staging penalty, per the paper's personal communication
   with the PETSc developers ("significant performance penalty when moving
   from one to multiple GPUs"). *)
let gpu_spmm_penalty machine c_bytes =
  c_bytes /. machine.Machine.params.net_bw

(* One MPI rank per core. *)
let layout machine =
  Common.layout machine ~cpu_ranks_per_node:machine.Machine.params.cpu_cores

(* VecScatter: two log-depth message rounds per exchange.  MatMult overlaps
   the off-diagonal scatter with the diagonal-block local compute. *)
let scatter_latency machine =
  2. *. machine.Machine.params.net_alpha *. Common.log2f (Machine.nodes machine)

let gpu machine = machine.Machine.kind = Machine.Gpu

let spmv ~machine b ~x ~y =
  Common.seq_spmv b x y;
  let lay = layout machine in
  let r = lay.Common.ranks in
  let counts = Common.row_block_nnz b ~blocks:r in
  let rows = b.Tensor.dims.(0) in
  if
    gpu machine
    && Array.exists
         (fun n ->
           (* vals + crd + amortized pos, plus the rank's local vector
              blocks (ghosts are second-order). *)
           (float_of_int n *. 20.)
           +. ((Dense.vec_bytes x +. Dense.vec_bytes y) /. float_of_int r)
           > Machine.piece_mem machine)
         counts
  then Common.dnc "PETSc GPU SpMV: matrix block exceeds device memory"
  else
    let t_compute = Common.spmv_compute machine lay ~rows counts in
    let t_comm =
      Common.exchange machine b ~width:1. ~latency:(scatter_latency machine)
    in
    let sync =
      Common.barrier machine lay
      +.
      if gpu machine then
        (* Synchronous execution stages the local vector block through the
           host every MatMult (Legion's deferred execution keeps data
           device-resident, paper §VI-B). *)
        gpu_sync
        +. (2. *. 8. *. float_of_int (rows / r)
            /. machine.Machine.params.nvlink_bw)
      else 0.
    in
    Common.ok (Common.overlap ~compute:t_compute ~comm:t_comm +. sync)

let spmm ~machine b ~c ~a =
  Common.seq_spmm b c a;
  let lay = layout machine in
  let r = lay.Common.ranks in
  let cols = float_of_int c.Dense.cols in
  (* GPU memory check: each rank holds its B block, its A block, and the
     gathered C rows. *)
  let counts = Common.row_block_nnz b ~blocks:r in
  let ghosts = Common.row_block_ghosts b ~blocks:r in
  if
    gpu machine
    && Array.exists2
         (fun n g ->
           (float_of_int n *. 20.)
           +. (float_of_int g *. cols *. 8.)
           +. (Dense.mat_bytes c /. float_of_int r)
           +. (Dense.mat_bytes a /. float_of_int r)
           > Machine.piece_mem machine)
         counts ghosts
  then Common.dnc "PETSc GPU SpMM: gathered C exceeds device memory"
  else
    let t_compute =
      spmm_kernel_penalty
      *. Common.spmm_compute machine lay ~rows:b.Tensor.dims.(0) ~cols counts
    in
    let t_comm =
      Common.exchange machine b ~width:cols ~latency:(scatter_latency machine)
    in
    let penalty =
      match machine.Machine.kind with
      | Machine.Gpu when Machine.pieces machine > 1 ->
          gpu_spmm_penalty machine (Dense.mat_bytes c) +. gpu_sync
      | Machine.Gpu -> gpu_sync
      | Machine.Cpu -> 0.
    in
    Common.ok
      (Common.overlap ~compute:t_compute ~comm:t_comm
      +. Common.barrier machine lay
      +. penalty)

let spadd3 ~machine b c d =
  if gpu machine then
    (* PETSc lacks GPU sparse addition with unknown output pattern. *)
    (None, Common.dnc "PETSc: GPU MatAXPY with unknown pattern unsupported")
  else
    let sum, _, t =
      Common.pairwise_add3 machine (layout machine) ~insert_flops ~name:"petsc"
        b c d
    in
    (Some sum, Common.ok t)
