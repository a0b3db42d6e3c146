(* Property tests over the full compile-partition-execute pipeline: every
   kernel on random tensors, random piece counts, both distribution
   strategies — the distributed result must equal the dense reference. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_exec

let machine pieces = Core.Spdistal.machine ~kind:Machine.Cpu [| pieces |]

let arb_coo3 =
  let open QCheck in
  let gen =
    Gen.(
      let* d1 = int_range 1 7 in
      let* d2 = int_range 1 7 in
      let* d3 = int_range 1 7 in
      let* n = int_range 0 25 in
      let* entries =
        list_repeat n
          (let* i = int_range 0 (d1 - 1) in
           let* j = int_range 0 (d2 - 1) in
           let* k = int_range 0 (d3 - 1) in
           let* v = int_range 1 9 in
           Gen.return ([| i; j; k |], float_of_int v))
      in
      Gen.return (Coo.make [| d1; d2; d3 |] entries))
  in
  make
    ~print:(fun c ->
      Printf.sprintf "%dx%dx%d coo, %d entries" c.Coo.dims.(0) c.Coo.dims.(1)
        c.Coo.dims.(2) (Coo.nnz c))
    gen

let exact problem =
  let res = Core.Spdistal.run problem in
  res.Core.Spdistal.dnc = None
  && Validate.max_error (Core.Spdistal.bindings problem) problem.Core.Spdistal.stmt
     < 1e-9

let with_matrix coo f =
  let b = Tensor.csr ~name:"B" coo in
  if Tensor.nnz b = 0 then true else f b

let with_tensor3 coo f =
  let b =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
      coo
  in
  if Tensor.nnz b = 0 then true else f b

let prop_spmm =
  Helpers.qtest ~count:50 "random SpMM (row) exact"
    QCheck.(pair Helpers.arb_coo_matrix (Helpers.int_in 1 5))
    (fun (coo, pieces) ->
      with_matrix coo (fun b ->
          exact (Core.Kernels.spmm_problem ~machine:(machine pieces) ~cols:3 b)))

let prop_sddmm =
  Helpers.qtest ~count:50 "random SDDMM (nnz) exact"
    QCheck.(pair Helpers.arb_coo_matrix (Helpers.int_in 1 5))
    (fun (coo, pieces) ->
      with_matrix coo (fun b ->
          exact (Core.Kernels.sddmm_problem ~machine:(machine pieces) ~cols:3 b)))

let prop_spttv =
  Helpers.qtest ~count:50 "random SpTTV (row and nnz) exact"
    QCheck.(pair arb_coo3 (Helpers.int_in 1 5))
    (fun (coo, pieces) ->
      with_tensor3 coo (fun b ->
          exact (Core.Kernels.spttv_problem ~machine:(machine pieces) b)
          && exact
               (Core.Kernels.spttv_problem ~machine:(machine pieces)
                  ~schedule:(Core.Kernels.spttv_nnz ()) b)))

let prop_mttkrp =
  Helpers.qtest ~count:50 "random SpMTTKRP (row and nnz) exact"
    QCheck.(pair arb_coo3 (Helpers.int_in 1 5))
    (fun (coo, pieces) ->
      with_tensor3 coo (fun b ->
          exact (Core.Kernels.mttkrp_problem ~machine:(machine pieces) ~cols:3 b)
          && exact
               (Core.Kernels.mttkrp_problem ~machine:(machine pieces) ~cols:3
                  ~schedule:(Core.Kernels.mttkrp_nnz ()) b)))

let prop_formats_agree =
  Helpers.qtest ~count:40 "CSR, CSC, DCSR, COO drivers all exact"
    QCheck.(pair Helpers.arb_coo_matrix (Helpers.int_in 1 4))
    (fun (coo, pieces) ->
      if Coo.nnz (Coo.sort_dedup coo) = 0 then true
      else
        let blocked = Spdistal_ir.Tdn.Blocked { tensor_dim = 0; machine_dim = 0 } in
        let check b =
          let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
          let a = Dense.vec_create "a" n in
          let c = Dense.vec_init "c" m (fun i -> float_of_int (i + 1)) in
          exact
            (Core.Spdistal.problem ~machine:(machine pieces)
               ~operands:
                 [
                   ("a", Operand.vec a, blocked);
                   ("B", Operand.sparse b, blocked);
                   ("c", Operand.vec c, Spdistal_ir.Tdn.Replicated);
                 ]
               ~stmt:Spdistal_ir.Tin.spmv
               ~schedule:(Core.Kernels.spmv_row ()))
        in
        check (Tensor.csr ~name:"B" coo)
        && check (Tensor.csc ~name:"B" coo)
        && check
             (Tensor.of_coo ~name:"B"
                ~formats:[| Level.Compressed_k; Level.Compressed_k |]
                coo)
        && check (Tensor.coo_matrix ~name:"B" coo))

let prop_workspace_equals_merge =
  Helpers.qtest ~count:40 "workspace SpAdd3 = merge SpAdd3"
    QCheck.(pair Helpers.arb_coo_matrix (Helpers.int_in 1 4))
    (fun (coo, pieces) ->
      with_matrix coo (fun b ->
          let p1 = Core.Kernels.spadd3_problem ~machine:(machine pieces) b in
          let p2 =
            Core.Kernels.spadd3_problem ~machine:(machine pieces)
              ~schedule:(Core.Kernels.spadd3_workspace ()) b
          in
          exact p1 && exact p2
          &&
          let a1 = Operand.find_sparse (Core.Spdistal.bindings p1) "A" in
          let a2 = Operand.find_sparse (Core.Spdistal.bindings p2) "A" in
          Coo.equal (Tensor.to_coo a1) (Tensor.to_coo a2)))

let prop_gpu_equals_cpu_numerics =
  Helpers.qtest ~count:30 "GPU and CPU schedules produce identical numbers"
    QCheck.(pair Helpers.arb_coo_matrix (Helpers.int_in 1 4))
    (fun (coo, pieces) ->
      with_matrix coo (fun b ->
          let pc = Core.Kernels.spmv_problem ~machine:(machine pieces) b in
          let pg =
            Core.Kernels.spmv_problem
              ~machine:(Core.Spdistal.machine ~kind:Machine.Gpu [| pieces |])
              b
          in
          exact pc && exact pg
          &&
          let a1 = Operand.find_vec (Core.Spdistal.bindings pc) "a" in
          let a2 = Operand.find_vec (Core.Spdistal.bindings pg) "a" in
          Dense.vec_dist a1 a2 < 1e-12))

let suite =
  [
    prop_spmm;
    prop_sddmm;
    prop_spttv;
    prop_mttkrp;
    prop_formats_agree;
    prop_workspace_equals_merge;
    prop_gpu_equals_cpu_numerics;
  ]
