open Spdistal_runtime
open Spdistal_formats

(* Static Kokkos scheduling penalty relative to dynamic load balance. *)
let static_penalty = 1.25

(* Tpetra SpMM local kernel vs the Senanayake et al. schedule (the paper
   attributes SpDISTAL's 3.8x median SpMM advantage to the leaf kernel). *)
let spmm_kernel_penalty = 3.0

(* Flop-equivalent cost of one insertion in TwoMatrixAdd assembly (~60 ns;
   the paper measures 38.5x on SpAdd3 vs SpDISTAL's fused single pass). *)
let insert_flops = 3_000.

(* One MPI rank per socket, Kokkos threads inside. *)
let layout machine =
  Common.layout machine ~cpu_ranks_per_node:2 ~static_penalty

(* Single-gather Import: one message per rank carrying all needed remote
   entries.  Tpetra's apply overlaps the Import with the locally-owned
   compute. *)
let import machine b ~width =
  Common.exchange machine b ~width ~latency:machine.Machine.params.net_alpha

(* UVM: overflow beyond device memory is paged in and out each iteration. *)
let uvm_penalty machine resident =
  match machine.Machine.kind with
  | Machine.Cpu -> 0.
  | Machine.Gpu ->
      let over = resident -. Machine.piece_mem machine in
      if over > 0. then 2. *. over /. machine.Machine.params.uvm_page_bw else 0.

let spmv ~machine b ~x ~y =
  Common.seq_spmv b x y;
  let lay = layout machine in
  let r = lay.Common.ranks in
  let counts = Common.row_block_nnz b ~blocks:r in
  let rows = b.Tensor.dims.(0) in
  let t_compute = Common.spmv_compute machine lay ~rows counts in
  let t_comm = import machine b ~width:1. in
  let staging =
    match machine.Machine.kind with
    | Machine.Gpu ->
        (* UVM-managed vectors fault through the host each apply. *)
        4. *. 8. *. float_of_int (rows / r) /. machine.Machine.params.nvlink_bw
    | Machine.Cpu -> 0.
  in
  Common.ok
    (Common.overlap ~compute:t_compute ~comm:t_comm
    +. Common.barrier machine lay
    +. staging)

let spmm ~machine b ~c ~a =
  Common.seq_spmm b c a;
  let lay = layout machine in
  let r = lay.Common.ranks in
  let cols = float_of_int c.Dense.cols in
  let counts = Common.row_block_nnz b ~blocks:r in
  let ghosts = Common.row_block_ghosts b ~blocks:r in
  let t_compute =
    spmm_kernel_penalty
    *. Common.spmm_compute machine lay ~rows:b.Tensor.dims.(0) ~cols counts
  in
  let t_comm = import machine b ~width:cols in
  (* Per-rank residency for the UVM model. *)
  let resident =
    Array.fold_left Float.max 0.
      (Array.map2
         (fun n g ->
           (float_of_int n *. 20.)
           +. (float_of_int g *. cols *. 8.)
           +. ((Dense.mat_bytes c +. Dense.mat_bytes a) /. float_of_int r))
         counts ghosts)
  in
  Common.ok
    (Common.overlap ~compute:t_compute ~comm:t_comm
    +. Common.barrier machine lay
    +. uvm_penalty machine resident)

let spadd3 ~machine b c d =
  let sum, tmp, t =
    Common.pairwise_add3 machine (layout machine) ~insert_flops ~name:"trilinos"
      b c d
  in
  let resident =
    float_of_int (Tensor.bytes b + Tensor.bytes c + Tensor.bytes d + Tensor.bytes tmp)
    /. float_of_int (Machine.pieces machine)
  in
  (Some sum, Common.ok (t +. uvm_penalty machine resident))
