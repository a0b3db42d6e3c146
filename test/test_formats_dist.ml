(* Distribution over non-CSR formats: these exercise the Table I level
   functions that CSR never reaches — universe partitions of Compressed
   levels (partitionByValueRanges + preimage) for CSC and DCSR drivers. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec

let machine pieces = Core.Spdistal.machine ~kind:Machine.Cpu [| pieces |]
let blocked = Tdn.Blocked { tensor_dim = 0; machine_dim = 0 }

let spmv_problem_with b ~pieces =
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Dense.vec_create "a" n in
  let c = Dense.vec_init "c" m (fun i -> 1. +. float_of_int (i mod 5)) in
  Core.Spdistal.problem ~machine:(machine pieces)
    ~operands:
      [
        ("a", Operand.vec a, blocked);
        ("B", Operand.sparse b, blocked);
        ("c", Operand.vec c, Tdn.Replicated);
      ]
    ~stmt:Tin.spmv
    ~schedule:(Core.Kernels.spmv_row ())

let check problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Alcotest.fail r
  | None ->
      Helpers.check_float "matches reference" 0.
        (Validate.max_error (Core.Spdistal.bindings problem)
           problem.Core.Spdistal.stmt)

let coo = lazy (Helpers.rand_coo_matrix ~seed:41 14 16 0.3)

let test_spmv_csc () =
  (* CSC stores columns first: distributing rows (i) partitions the
     Compressed level by coordinate value ranges. *)
  let b = Tensor.csc ~name:"B" (Lazy.force coo) in
  List.iter (fun p -> check (spmv_problem_with b ~pieces:p)) [ 1; 3; 5 ]

let test_spmv_dcsr () =
  (* DCSR: both levels compressed; the row level's universe partition
     buckets the stored row coordinates. *)
  let b =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Compressed_k; Level.Compressed_k |]
      (Lazy.force coo)
  in
  List.iter (fun p -> check (spmv_problem_with b ~pieces:p)) [ 1; 3; 5 ]

let test_spmv_coo_like () =
  (* A fully-dense first level with compressed second is CSR; a dense-dense
     matrix exercises the dense-leaf value path. *)
  let b = Tensor.dense_of_coo ~name:"B" (Lazy.force coo) in
  List.iter (fun p -> check (spmv_problem_with b ~pieces:p)) [ 1; 4 ]

let test_dcsr_partition_structure () =
  (* The universe partition of a DCSR row level is a value-range bucketing
     of its crd region; verify against the built plan's partition
     environment. *)
  let b =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Compressed_k; Level.Compressed_k |]
      (Lazy.force coo)
  in
  let problem = spmv_problem_with b ~pieces:2 in
  let plan =
    Core.Spdistal.plan ~trace:Spdistal_obs.Trace.null
      ~backend:Compile_leaf.Interp problem
  in
  let env = plan.Cache.e_prepared.Interp.pp_penv in
  let crd_part = Part_eval.find_partition env "B1CrdPart" in
  Alcotest.(check bool) "row buckets are disjoint" true
    crd_part.Partition.disjoint;
  Alcotest.(check bool) "complete" true (Partition.is_complete crd_part);
  (* Every bucketed position's row coordinate falls in its block. *)
  let crd = Tensor.crd_of b 0 in
  let rows = b.Tensor.dims.(0) in
  Array.iteri
    (fun c s ->
      Iset.iter
        (fun p ->
          let v = Region.get crd p in
          let lo = c * rows / 2 and hi = ((c + 1) * rows / 2) - 1 in
          Alcotest.(check bool) "value in range" true (v >= lo && v <= hi))
        s)
    crd_part.Partition.subsets

let test_coo_roundtrip () =
  let coo = Lazy.force coo in
  let t = Tensor.coo_matrix ~name:"B" coo in
  Alcotest.(check int) "one position per nnz at level 0"
    (Coo.nnz (Coo.sort_dedup coo))
    (Tensor.level_extent t 0);
  Alcotest.(check bool) "roundtrip" true (Coo.equal coo (Tensor.to_coo t));
  (* Pointwise agreement with the CSR encoding. *)
  let csr = Tensor.csr ~name:"C" coo in
  for i = 0 to coo.Coo.dims.(0) - 1 do
    for j = 0 to coo.Coo.dims.(1) - 1 do
      Helpers.check_float "entry" (Tensor.get csr [| i; j |])
        (Tensor.get t [| i; j |])
    done
  done

let test_spmv_coo_format () =
  (* Distributed SpMV over a COO matrix: the row level is non-unique
     compressed (value-range universe partition), the column level is
     Singleton. *)
  let b = Tensor.coo_matrix ~name:"B" (Lazy.force coo) in
  List.iter (fun p -> check (spmv_problem_with b ~pieces:p)) [ 1; 2; 4 ]

let test_spmv_coo_nnz_split () =
  (* Non-zero split over COO: equal split of the fused position space. *)
  let b = Tensor.coo_matrix ~name:"B" (Lazy.force coo) in
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Dense.vec_create "a" n in
  let c = Dense.vec_init "c" m (fun i -> 1. +. float_of_int (i mod 5)) in
  let problem =
    Core.Spdistal.problem ~machine:(machine 3)
      ~operands:
        [
          ("a", Operand.vec a, blocked);
          ("B", Operand.sparse b, Tdn.Fused_non_zero { dims = [ 0; 1 ]; machine_dim = 0 });
          ("c", Operand.vec c, Tdn.Replicated);
        ]
      ~stmt:Tin.spmv
      ~schedule:(Core.Kernels.spmv_nnz ())
  in
  check problem

let test_singleton_under_shared_parent_rejected () =
  Alcotest.check_raises "needs unique parents"
    (Invalid_argument
       "Tensor.of_coo: Singleton level under shared parent positions")
    (fun () ->
      ignore
        (Tensor.of_coo ~name:"X"
           ~formats:[| Level.Compressed_k; Level.Singleton_k |]
           (Coo.make [| 2; 3 |] [ ([| 0; 1 |], 1.); ([| 0; 2 |], 2.) ])))

let test_spttv_csf_nnz_pieces () =
  (* Deeper non-zero splits of a 3-tensor across odd piece counts. *)
  let b3 = Helpers.rand_csf ~seed:43 7 9 11 0.08 in
  List.iter
    (fun p ->
      let problem =
        Core.Kernels.spttv_problem ~machine:(machine p)
          ~schedule:(Core.Kernels.spttv_nnz ()) b3
      in
      check problem)
    [ 1; 3; 7 ]

let test_mttkrp_patents_format () =
  (* (Dense, Dense, Compressed) driver: the inner dense level uses the
     Scale/Unscale dense partition propagation. *)
  let b =
    Spdistal_workloads.Synth.tensor3_dense_modes ~name:"P" ~dims:[| 3; 5; 40 |]
      ~nnz:300 ~seed:44
  in
  List.iter
    (fun p ->
      check (Core.Kernels.mttkrp_problem ~machine:(machine p) ~cols:4 b))
    [ 1; 2; 4 ]

let test_dense_gemm_via_format_language () =
  (* DISTAL's dense subset falls out of the format language: a matrix with
     two Dense levels drives the same universe-partition machinery, giving a
     distributed dense GEMM with no special casing. *)
  let coo = Helpers.rand_coo_matrix ~seed:45 8 6 0.9 in
  let b = Tensor.dense_of_coo ~name:"B" coo in
  let cmat = Dense.mat_init "C" 6 5 (fun i j -> float_of_int ((i * 5) + j + 1)) in
  let a = Dense.mat_create "A" 8 5 in
  let problem =
    Core.Spdistal.problem ~machine:(machine 3)
      ~operands:
        [
          ("A", Operand.mat a, blocked);
          ("B", Operand.sparse b, blocked);
          ("C", Operand.mat cmat, Tdn.Replicated);
        ]
      ~stmt:Tin.spmm
      ~schedule:(Core.Kernels.spmm_row ())
  in
  check problem

let suite =
  [
    Alcotest.test_case "distributed SpMV over CSC" `Quick test_spmv_csc;
    Alcotest.test_case "distributed SpMV over DCSR" `Quick test_spmv_dcsr;
    Alcotest.test_case "distributed SpMV over dense-dense" `Quick
      test_spmv_coo_like;
    Alcotest.test_case "DCSR value-range partition structure" `Quick
      test_dcsr_partition_structure;
    Alcotest.test_case "COO (nonunique+singleton) roundtrip" `Quick
      test_coo_roundtrip;
    Alcotest.test_case "distributed SpMV over COO" `Quick test_spmv_coo_format;
    Alcotest.test_case "non-zero split over COO" `Quick test_spmv_coo_nnz_split;
    Alcotest.test_case "singleton validation" `Quick
      test_singleton_under_shared_parent_rejected;
    Alcotest.test_case "SpTTV CSF non-zero split, odd pieces" `Quick
      test_spttv_csf_nnz_pieces;
    Alcotest.test_case "MTTKRP over (D,D,C)" `Quick test_mttkrp_patents_format;
    Alcotest.test_case "dense GEMM via the format language" `Quick
      test_dense_gemm_via_format_language;
  ]
