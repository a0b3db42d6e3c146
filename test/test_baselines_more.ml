(* Numeric agreement of every baseline kernel against the shared sequential
   reference, plus cost-profile invariants the paper's evaluation relies
   on. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_baselines

let machine nodes = Machine.make ~kind:Machine.Cpu [| nodes |]
let b = lazy (Helpers.rand_csr ~seed:51 18 18 0.3)
let b3 = lazy (Helpers.rand_csf ~seed:52 6 7 8 0.12)

let test_ctf_spmm_numerics () =
  let b = Lazy.force b in
  let c = Core.Kernels.dense_mat "C" 18 4 in
  let a = Dense.mat_create "A" 18 4 in
  let expect = Dense.mat_create "E" 18 4 in
  Common.seq_spmm b c expect;
  let r = Ctf.spmm ~machine:(machine 2) b ~c ~a in
  Alcotest.(check bool) "completes" true (r.Common.dnc = None);
  Helpers.check_float "values" 0. (Dense.mat_dist a expect)

let test_petsc_trilinos_spmm_numerics () =
  let b = Lazy.force b in
  let expect = Dense.mat_create "E" 18 4 in
  Common.seq_spmm b (Core.Kernels.dense_mat "C" 18 4) expect;
  List.iter
    (fun (name, run) ->
      let c = Core.Kernels.dense_mat "C" 18 4 in
      let a = Dense.mat_create "A" 18 4 in
      let r = run ~c ~a in
      Alcotest.(check bool) (name ^ " ok") true (r.Common.dnc = None);
      Helpers.check_float (name ^ " values") 0. (Dense.mat_dist a expect))
    [
      ("petsc", fun ~c ~a -> Petsc.spmm ~machine:(machine 2) b ~c ~a);
      ("trilinos", fun ~c ~a -> Trilinos.spmm ~machine:(machine 2) b ~c ~a);
    ]

let test_ctf_sddmm_numerics () =
  let b = Lazy.force b in
  let c = Core.Kernels.dense_mat "C" 18 4 in
  let d = Core.Kernels.dense_mat "D" 4 18 in
  let a = Assemble.copy_pattern ~name:"A" b in
  let expect = Assemble.copy_pattern ~name:"E" b in
  Common.seq_sddmm b c d expect;
  let r = Ctf.sddmm ~machine:(machine 2) b ~c ~d ~a in
  Alcotest.(check bool) "completes" true (r.Common.dnc = None);
  Alcotest.(check bool) "values" true
    (Coo.equal (Tensor.to_coo a) (Tensor.to_coo expect))

let test_ctf_spttv_mttkrp_numerics () =
  let b = Lazy.force b3 in
  let cvec = Core.Kernels.dense_vec "c" 8 in
  let a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
  let expect = Assemble.copy_pattern ~name:"E" ~levels:2 b in
  Common.seq_spttv b cvec expect;
  let r = Ctf.spttv ~machine:(machine 2) b ~c:cvec ~a in
  Alcotest.(check bool) "spttv completes" true (r.Common.dnc = None);
  Alcotest.(check bool) "spttv values" true
    (Coo.equal (Tensor.to_coo a) (Tensor.to_coo expect));
  let c = Core.Kernels.dense_mat "C" 7 4 and d = Core.Kernels.dense_mat "D" 8 4 in
  let am = Dense.mat_create "A" 6 4 and em = Dense.mat_create "E" 6 4 in
  Common.seq_mttkrp b c d em;
  let r = Ctf.mttkrp ~machine:(machine 2) b ~c ~d ~a:am in
  Alcotest.(check bool) "mttkrp completes" true (r.Common.dnc = None);
  Helpers.check_float "mttkrp values" 0. (Dense.mat_dist am em)

let test_seq_kernels_vs_dense_reference () =
  (* The shared sequential kernels themselves against the brute-force dense
     evaluator (they anchor every baseline's numerics). *)
  let open Spdistal_exec in
  let b = Lazy.force b in
  let x = Core.Kernels.dense_vec "c" 18 in
  let y = Dense.vec_create "a" 18 in
  Common.seq_spmv b x y;
  let bindings =
    [ ("a", Operand.vec y); ("B", Operand.sparse b); ("c", Operand.vec x) ]
  in
  Helpers.check_float "seq_spmv = dense reference" 0.
    (Validate.max_error bindings Spdistal_ir.Tin.spmv)

let test_baselines_scale_down_with_nodes () =
  (* On the dataset-scaled machine, compute dominates latency and the
     baselines strong-scale. *)
  let machine n =
    Machine.make
      ~params:(Machine.scale_params 5_000. Machine.lassen)
      ~kind:Machine.Cpu [| n |]
  in
  let big =
    Spdistal_workloads.Synth.uniform ~name:"S" ~rows:3000 ~cols:3000
      ~nnz:60_000 ~seed:53
  in
  List.iter
    (fun (name, run) ->
      let t n = (run (machine n)).Common.time in
      Alcotest.(check bool) (name ^ " strong-scales") true (t 8 < t 1))
    [
      ( "petsc",
        fun m ->
          let x = Core.Kernels.dense_vec "x" 3000 in
          let y = Dense.vec_create "y" 3000 in
          Petsc.spmv ~machine:m big ~x ~y );
      ( "trilinos",
        fun m ->
          let x = Core.Kernels.dense_vec "x" 3000 in
          let y = Dense.vec_create "y" 3000 in
          Trilinos.spmv ~machine:m big ~x ~y );
      ( "ctf",
        fun m ->
          let x = Core.Kernels.dense_vec "x" 3000 in
          let y = Dense.vec_create "y" 3000 in
          Ctf.spmv ~machine:m big ~x ~y );
    ]

let test_petsc_gpu_staging_penalty () =
  (* PETSc's GPU SpMV pays per-iteration host staging that SpDISTAL's
     deferred execution avoids (paper Fig. 13: 1.05-1.29x). *)
  let banded = Spdistal_workloads.Synth.banded ~name:"wk" ~n:10_000 ~band:14 in
  let params = Machine.scale_params 5_000. Machine.lassen in
  let mg = Machine.make ~params ~kind:Machine.Gpu [| 4 |] in
  let x = Core.Kernels.dense_vec "x" 10_000 in
  let y = Dense.vec_create "y" 10_000 in
  let petsc = Petsc.spmv ~machine:mg banded ~x ~y in
  let spd = Core.Spdistal.run (Core.Kernels.spmv_problem ~machine:mg banded) in
  match spd.Core.Spdistal.dnc with
  | Some r -> Alcotest.fail r
  | None ->
      let ratio = petsc.Common.time /. Cost.total spd.Core.Spdistal.cost in
      Alcotest.(check bool)
        (Printf.sprintf "SpDISTAL faster on GPU weak scaling (%.2fx)" ratio)
        true (ratio > 1.0 && ratio < 1.5)

let test_gpu_vs_cpu_node_ratio () =
  (* 4 GPUs vs one 40-core node lands near the paper's 2x for sparse
     kernels (Fig. 12). *)
  let b3 =
    Spdistal_workloads.Synth.tensor3_uniform ~name:"r" ~dims:[| 400; 300; 200 |]
      ~nnz:50_000 ~seed:54
  in
  let params = Machine.scale_params 5_000. Machine.lassen in
  let cm = Machine.make ~params ~kind:Machine.Cpu [| 1 |] in
  let gm = Machine.make ~params ~kind:Machine.Gpu [| 4 |] in
  let t machine ?schedule () =
    match
      Core.Spdistal.time_of
        (Core.Spdistal.run (Core.Kernels.spttv_problem ~machine ?schedule b3))
    with
    | Some t -> t
    | None -> Alcotest.fail "DNC"
  in
  let ratio =
    t cm ()
    /. t gm ~schedule:(Core.Kernels.spttv_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "GPU node ~2x CPU node (%.2fx)" ratio)
    true
    (ratio > 1.4 && ratio < 3.2)

let suite =
  [
    Alcotest.test_case "CTF SpMM numerics" `Quick test_ctf_spmm_numerics;
    Alcotest.test_case "PETSc/Trilinos SpMM numerics" `Quick
      test_petsc_trilinos_spmm_numerics;
    Alcotest.test_case "CTF SDDMM numerics" `Quick test_ctf_sddmm_numerics;
    Alcotest.test_case "CTF SpTTV/MTTKRP numerics" `Quick
      test_ctf_spttv_mttkrp_numerics;
    Alcotest.test_case "sequential kernels vs dense reference" `Quick
      test_seq_kernels_vs_dense_reference;
    Alcotest.test_case "baselines strong-scale" `Quick
      test_baselines_scale_down_with_nodes;
    Alcotest.test_case "PETSc GPU staging penalty (Fig 13)" `Quick
      test_petsc_gpu_staging_penalty;
    Alcotest.test_case "GPU/CPU node ratio (Fig 12)" `Quick
      test_gpu_vs_cpu_node_ratio;
  ]
