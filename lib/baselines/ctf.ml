open Spdistal_runtime
open Spdistal_formats

(* ------------------------------------------------------------------ *)
(* Calibration constants.  All per-element overheads are expressed in
   flop-equivalents (flops at the machine's nominal rate) so machine
   scaling applies to them uniformly; each is annotated with the paper
   observation it reproduces.                                           *)
(* ------------------------------------------------------------------ *)

(* Generic interpreted contraction, per sparse element (~20 ns/elt at
   1 Tflop/s): index arithmetic, virtualized dispatch, summation buffers.
   Target: 299x median on SpMV (paper Fig. 10a). *)
let interp_spmv_flops = 6_500.

(* Same path on 3-tensor times vector (sorting included).  Target: 161x
   median (Fig. 10e). *)
let interp_spttv_flops = 3_500.

(* Interpreted SpMM does real blocked dense work per element and column.
   Target: tens-of-x slowdown (Fig. 10b). *)
let interp_spmm_flops_per_col = 500.

(* Pairwise interpreted sparse summation.  Target: 19.2x on SpAdd3
   (Fig. 10c). *)
let interp_add_flops = 300.

(* Hand-written special kernels (Zhang et al. [31]).  SDDMM target: 15.3x
   median (Fig. 10d); MTTKRP target: parity (Fig. 10f). *)
let special_sddmm_flops = 13_000.
let special_mttkrp_flops = 0.

(* Element cost of redistribution-side sorting into cyclic layouts. *)
let sort_flops = 6_000.

(* CTF's blocked layout advantage on tensors with dense modes ("patents"):
   the paper observes CTF completing MTTKRP on patents significantly faster
   than on much smaller tensors. *)
let dense_mode_bonus = 0.6

let has_dense_second_level (t : Tensor.t) =
  Array.length t.Tensor.levels > 1
  &&
  match t.Tensor.levels.(1) with
  | Level.Dense _ -> true
  | Level.Compressed _ | Level.Singleton _ -> false

(* One MPI rank per core. *)
let layout machine =
  Common.layout machine ~cpu_ranks_per_node:machine.Machine.params.cpu_cores

(* The paper could not use CTF's GPU backend: every kernel refuses a GPU
   machine, [gpu] shaping the refusal into the kernel's return type. *)
let on_cpu machine ~gpu run =
  match machine.Machine.kind with
  | Machine.Cpu -> run ()
  | Machine.Gpu -> gpu (Common.dnc "CTF: no usable GPU backend")

(* All-to-all redistribution of [bytes] into a cyclic layout: the data
   crosses the network twice (pack + place), nodes participate in
   parallel. *)
let redistribute machine bytes =
  let nodes = Machine.nodes machine in
  if nodes = 1 then bytes *. 2. /. machine.Machine.params.cpu_mem_bw
  else
    (2. *. machine.Machine.params.net_alpha *. Common.log2f nodes)
    +. (2. *. bytes /. (machine.Machine.params.net_bw *. float_of_int nodes))

(* Rank-granular static imbalance: the busiest rank's elements at one-core
   throughput, in flop-equivalents per element; [counts] blocks a tensor's
   elements over the ranks. *)
let imbalanced_time machine (counts : blocks:int -> int array) ~flops_per_elt
    ~bytes_per_elt =
  let lay = layout machine in
  Common.balance_time machine lay
    (fun n -> (flops_per_elt *. float_of_int n, bytes_per_elt *. float_of_int n))
    (counts ~blocks:lay.Common.ranks)

let barrier machine = Common.barrier machine (layout machine)

let nodesf machine = float_of_int (Machine.nodes machine)

(* Working set of a generic contraction: input + redistribution source and
   destination buffers, plus dense padding when CTF blocks a dense-mode
   tensor ("patents" SpTTV OOM at 1 node). *)
let generic_mem machine (t : Tensor.t) =
  let base = 3. *. float_of_int (Tensor.bytes t) /. nodesf machine in
  let padding =
    if has_dense_second_level t then
      float_of_int (Array.fold_left ( * ) 1 t.Tensor.dims) *. 8. /. nodesf machine
    else 0.
  in
  base +. padding

(* The kernel's time, or a DNC when its working set [mem] per node exceeds
   node memory. *)
let finish machine ~what ~mem time =
  let cap = machine.Machine.params.node_mem in
  if mem > cap then
    Common.dnc
      (Printf.sprintf "CTF %s: %.2e B/node exceeds %.2e B node memory" what mem cap)
  else Common.ok time

let spmv ~machine b ~x ~y =
  on_cpu machine ~gpu:Fun.id @@ fun () ->
  Common.seq_spmv b x y;
  let t_redis =
    redistribute machine (float_of_int (Tensor.bytes b))
    +. redistribute machine (Dense.vec_bytes x +. Dense.vec_bytes y)
  in
  let t_work =
    imbalanced_time machine (Common.row_block_nnz b)
      ~flops_per_elt:(interp_spmv_flops +. sort_flops)
      ~bytes_per_elt:24.
  in
  finish machine ~what:"SpMV" ~mem:(generic_mem machine b)
    (t_redis +. t_work +. barrier machine)

let spmm ~machine b ~c ~a =
  on_cpu machine ~gpu:Fun.id @@ fun () ->
  Common.seq_spmm b c a;
  let cols = float_of_int c.Dense.cols in
  let t_redis =
    redistribute machine (float_of_int (Tensor.bytes b))
    +. redistribute machine (Dense.mat_bytes c +. Dense.mat_bytes a)
  in
  let t_work =
    imbalanced_time machine (Common.row_block_nnz b)
      ~flops_per_elt:((interp_spmm_flops_per_col *. cols) +. sort_flops)
      ~bytes_per_elt:(16. +. (8. *. cols))
  in
  let mem =
    generic_mem machine b
    +. ((Dense.mat_bytes c +. Dense.mat_bytes a) /. nodesf machine)
  in
  finish machine ~what:"SpMM" ~mem (t_redis +. t_work +. barrier machine)

let spadd3 ~machine b c d =
  on_cpu machine ~gpu:(fun r -> (None, r)) @@ fun () ->
  let result = Common.seq_add3 ~name:"A_ctf" b c d in
  (* Two pairwise interpreted summations.  Operands already in the
     summation layout are not re-shuffled: the first pass moves both
     inputs, the second only the remaining operand. *)
  let pass ~redis t1 t2 =
    redistribute machine (float_of_int redis)
    +. imbalanced_time machine
         (fun ~blocks ->
           Array.map2 ( + )
             (Common.row_block_nnz t1 ~blocks)
             (Common.row_block_nnz t2 ~blocks))
         ~flops_per_elt:interp_add_flops ~bytes_per_elt:16.
    +. barrier machine
  in
  let tmp = Common.seq_add3 ~name:"ctf_tmp" b c c in
  let time =
    pass ~redis:(Tensor.bytes b + Tensor.bytes c) b c
    +. pass ~redis:(Tensor.bytes d) tmp d
  in
  let mem = generic_mem machine b +. generic_mem machine c +. generic_mem machine d in
  let r = finish machine ~what:"SpAdd3" ~mem time in
  ((if r.Common.dnc = None then Some result else None), r)

let sddmm ~machine b ~c ~d ~a =
  on_cpu machine ~gpu:Fun.id @@ fun () ->
  Common.seq_sddmm b c d a;
  let cols = float_of_int c.Dense.cols in
  let t_redis = redistribute machine (float_of_int (Tensor.bytes b)) in
  let t_work =
    imbalanced_time machine (Common.row_block_nnz b)
      ~flops_per_elt:(special_sddmm_flops +. (2. *. cols))
      ~bytes_per_elt:(16. +. (16. *. cols))
  in
  let mem =
    generic_mem machine b
    +. ((Dense.mat_bytes c +. Dense.mat_bytes d) /. nodesf machine)
  in
  finish machine ~what:"SDDMM" ~mem (t_redis +. t_work +. barrier machine)

let spttv ~machine b ~c ~a =
  on_cpu machine ~gpu:Fun.id @@ fun () ->
  Common.seq_spttv b c a;
  let t_redis = redistribute machine (float_of_int (Tensor.bytes b)) in
  (* Cyclic layouts block at fiber granularity. *)
  let t_work =
    imbalanced_time machine (Common.fiber_block_nnz b)
      ~flops_per_elt:interp_spttv_flops ~bytes_per_elt:24.
  in
  finish machine ~what:"SpTTV" ~mem:(generic_mem machine b)
    (t_redis +. t_work +. barrier machine)

let mttkrp ~machine b ~c ~d ~a =
  on_cpu machine ~gpu:Fun.id @@ fun () ->
  Common.seq_mttkrp b c d a;
  let cols = float_of_int a.Dense.cols in
  let dense_path = has_dense_second_level b in
  let bonus = if dense_path then dense_mode_bonus else 1.0 in
  (* The hand-written kernel [31] contracts in the tensor's resident
     layout: no per-call redistribution. *)
  let t_work =
    bonus
    *. imbalanced_time machine (Common.fiber_block_nnz b)
         ~flops_per_elt:(special_mttkrp_flops +. (4. *. cols))
         ~bytes_per_elt:(16. +. (8. *. cols))
  in
  (* Memory: redistribution buffers; per-rank replicated factor matrices on
     the hyper-sparse path (the "freebase_sampled" OOM at every node count);
     a sparse Khatri-Rao intermediate distributed across nodes (the
     "freebase_music" OOM at 1-2 nodes).  The dense-mode path blocks factor
     matrices instead of replicating them and streams the intermediate. *)
  let d1 = b.Tensor.dims.(1) and d2 = b.Tensor.dims.(2) in
  let factor_bytes = float_of_int (d1 + d2) *. cols *. 8. in
  (* Streams over the resident layout: 3x input buffers only, no dense
     padding even for dense-mode tensors. *)
  let mem =
    (3. *. float_of_int (Tensor.bytes b) /. nodesf machine)
    +. (if dense_path then factor_bytes
        else factor_bytes *. float_of_int machine.Machine.params.cpu_cores)
    +.
    if dense_path then 0.
    else 0.8 *. float_of_int (Tensor.nnz b) *. cols *. 8. /. nodesf machine
  in
  finish machine ~what:"SpMTTKRP" ~mem (t_work +. barrier machine)
