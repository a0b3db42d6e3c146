open Spdistal_runtime
open Spdistal_formats
open Spdistal_baselines

let machine nodes = Machine.make ~kind:Machine.Cpu [| nodes |]

let b = lazy (Helpers.rand_csr ~seed:31 20 20 0.25)

(* Dense reference SpMV. *)
let ref_spmv (t : Tensor.t) (x : Dense.vec) =
  let y = Dense.vec_create "ref" t.Tensor.dims.(0) in
  Tensor.iter_nnz t (fun c _ v ->
      Dense.vec_set y c.(0) (Dense.vec_get y c.(0) +. (v *. Dense.vec_get x c.(1))));
  y

let test_numerics_agree () =
  let b = Lazy.force b in
  let x = Dense.vec_init "x" 20 (fun i -> float_of_int (i + 1)) in
  let expect = ref_spmv b x in
  List.iter
    (fun (name, runner) ->
      let y = Dense.vec_create "y" 20 in
      let r = runner y in
      Alcotest.(check bool) (name ^ " completes") true (r.Common.dnc = None);
      Helpers.check_float (name ^ " numerics") 0. (Dense.vec_dist expect y))
    [
      ("petsc", fun y -> Petsc.spmv ~machine:(machine 2) b ~x ~y);
      ("trilinos", fun y -> Trilinos.spmv ~machine:(machine 2) b ~x ~y);
      ("ctf", fun y -> Ctf.spmv ~machine:(machine 2) b ~x ~y);
    ]

let test_add3_agree () =
  let b = Lazy.force b in
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:1 b in
  let d = Core.Kernels.shift_last_dim ~name:"D" ~by:2 b in
  let expect = Common.seq_add3 ~name:"ref" b c d in
  List.iter
    (fun (name, out) ->
      match out with
      | Some t, (r : Common.result) ->
          Alcotest.(check bool) (name ^ " ok") true (r.Common.dnc = None);
          Alcotest.(check bool) (name ^ " numerics") true
            (Coo.equal (Tensor.to_coo expect) (Tensor.to_coo t))
      | None, _ -> Alcotest.fail (name ^ " returned no result"))
    [
      ("petsc", Petsc.spadd3 ~machine:(machine 2) b c d);
      ("trilinos", Trilinos.spadd3 ~machine:(machine 2) b c d);
      ("ctf", Ctf.spadd3 ~machine:(machine 2) b c d);
    ]

let test_seq_add3_matches_reference () =
  (* Against an independent dense sum. *)
  let b = Lazy.force b in
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:1 b in
  let d = Core.Kernels.shift_last_dim ~name:"D" ~by:2 b in
  let sum = Common.seq_add3 ~name:"S" b c d in
  for i = 0 to 19 do
    for j = 0 to 19 do
      Helpers.check_float "sum entry"
        (Tensor.get b [| i; j |] +. Tensor.get c [| i; j |] +. Tensor.get d [| i; j |])
        (Tensor.get sum [| i; j |])
    done
  done

let test_ctf_slower_than_spdistal () =
  let b =
    Spdistal_workloads.Synth.uniform ~name:"U2" ~rows:1500 ~cols:1500
      ~nnz:30_000 ~seed:6
  in
  let m = machine 2 in
  let x = Core.Kernels.dense_vec "x" 1500 and y = Dense.vec_create "y" 1500 in
  let ctf = Ctf.spmv ~machine:m b ~x ~y in
  let spd = Core.Spdistal.run (Core.Kernels.spmv_problem ~machine:m b) in
  match spd.Core.Spdistal.dnc with
  | Some r -> Alcotest.fail r
  | None ->
      Alcotest.(check bool) "interpretation is orders of magnitude slower" true
        (ctf.Common.time > 20. *. Cost.total spd.Core.Spdistal.cost)

let test_petsc_pairwise_add_penalty () =
  let b = Lazy.force b in
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:1 b in
  let d = Core.Kernels.shift_last_dim ~name:"D" ~by:2 b in
  let m = machine 2 in
  let _, petsc = Petsc.spadd3 ~machine:m b c d in
  let spd = Core.Spdistal.run (Core.Kernels.spadd3_problem ~machine:m b) in
  Alcotest.(check bool) "pairwise adds slower than fusion" true
    (petsc.Common.time > Cost.total spd.Core.Spdistal.cost)

let test_petsc_unsupported () =
  let m = machine 2 in
  let mg = Machine.make ~kind:Machine.Gpu [| 2 |] in
  let b = Lazy.force b in
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:1 b in
  let d = Core.Kernels.shift_last_dim ~name:"D" ~by:2 b in
  let _, r = Petsc.spadd3 ~machine:mg b c d in
  Alcotest.(check bool) "petsc gpu spadd3 is DNC" true (r.Common.dnc <> None);
  ignore m

let test_ctf_requires_cpu () =
  let mg = Machine.make ~kind:Machine.Gpu [| 2 |] in
  let b = Lazy.force b in
  let x = Core.Kernels.dense_vec "x" 20 and y = Dense.vec_create "y" 20 in
  Alcotest.(check (option string))
    "ctf gpu is DNC" (Some "CTF: no usable GPU backend")
    (Ctf.spmv ~machine:mg b ~x ~y).Common.dnc;
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:1 b in
  let d = Core.Kernels.shift_last_dim ~name:"D" ~by:2 b in
  match Ctf.spadd3 ~machine:mg b c d with
  | None, r ->
      Alcotest.(check (option string))
        "ctf gpu spadd3 is DNC" (Some "CTF: no usable GPU backend") r.Common.dnc
  | Some _, _ -> Alcotest.fail "ctf gpu spadd3 returned a sum"

let test_trilinos_uvm_pages_instead_of_oom () =
  (* Trilinos fits oversize GPU problems via UVM at a paging penalty. *)
  let b = Helpers.rand_csr ~seed:33 60 60 0.4 in
  let params = Machine.scale_params 5e8 Machine.lassen in
  let mg = Machine.make ~params ~kind:Machine.Gpu [| 2 |] in
  let c = Core.Kernels.dense_mat "C" 60 8 and a = Dense.mat_create "A" 60 8 in
  let r = Trilinos.spmm ~machine:mg b ~c ~a in
  Alcotest.(check bool) "trilinos completes under memory pressure" true
    (r.Common.dnc = None);
  (* PETSc DNCs on the same configuration. *)
  let c2 = Core.Kernels.dense_mat "C" 60 8 and a2 = Dense.mat_create "A" 60 8 in
  let rp = Petsc.spmm ~machine:mg b ~c:c2 ~a:a2 in
  Alcotest.(check bool) "petsc OOMs" true (rp.Common.dnc <> None)

let test_row_block_analysis () =
  let coo =
    Coo.make [| 4; 4 |]
      [ ([| 0; 0 |], 1.); ([| 0; 3 |], 1.); ([| 1; 1 |], 1.); ([| 3; 0 |], 1.) ]
  in
  let t = Tensor.csr ~name:"T" coo in
  Alcotest.(check (list int)) "nnz per 2 blocks" [ 3; 1 ]
    (Array.to_list (Common.row_block_nnz t ~blocks:2));
  (* Ghosts: block 0 owns cols 0-1, its rows touch col 3 -> 1 ghost;
     block 1 owns cols 2-3, its rows touch col 0 -> 1 ghost. *)
  Alcotest.(check (list int)) "ghosts" [ 1; 1 ]
    (Array.to_list (Common.row_block_ghosts t ~blocks:2))

let suite =
  [
    Alcotest.test_case "baseline numerics agree (spmv)" `Quick test_numerics_agree;
    Alcotest.test_case "baseline numerics agree (spadd3)" `Quick test_add3_agree;
    Alcotest.test_case "seq_add3 reference" `Quick test_seq_add3_matches_reference;
    Alcotest.test_case "CTF interpretation penalty" `Quick
      test_ctf_slower_than_spdistal;
    Alcotest.test_case "PETSc pairwise-add penalty" `Quick
      test_petsc_pairwise_add_penalty;
    Alcotest.test_case "PETSc GPU spadd3 unsupported" `Quick test_petsc_unsupported;
    Alcotest.test_case "CTF is CPU-only" `Quick test_ctf_requires_cpu;
    Alcotest.test_case "Trilinos UVM vs PETSc OOM" `Quick
      test_trilinos_uvm_pages_instead_of_oom;
    Alcotest.test_case "row block analysis" `Quick test_row_block_analysis;
  ]
