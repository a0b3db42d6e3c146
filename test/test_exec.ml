open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec

(* --- Operand ------------------------------------------------------------ *)

let test_operand () =
  let t = Helpers.rand_csr 5 6 0.3 in
  let b = [ ("B", Operand.sparse t); ("v", Operand.vec (Dense.vec_create "v" 6)) ] in
  Alcotest.(check int) "dim" 6 (Operand.dim (Operand.find b "B").Operand.data 1);
  Alcotest.(check int) "vec order" 1 (Operand.order (Operand.find b "v").Operand.data);
  Helpers.check_float "vec slice bytes" 8.
    (Operand.slice_bytes (Operand.find b "v").Operand.data 0);
  (try
     ignore (Operand.find_vec b "B");
     Alcotest.fail "expected Error.Error for wrong operand kind"
   with Error.Error e ->
     Alcotest.(check string)
       "wrong kind" "config[B]: operand is not a vector" (Error.to_string e));
  let env = Operand.env_of_bindings b in
  Alcotest.(check int) "env size" 2 (List.length env)

(* --- Part_eval ---------------------------------------------------------- *)

let spmv_bindings ?(rows = 8) ?(cols = 9) ?(density = 0.3) () =
  let b = Helpers.rand_csr rows cols density in
  [
    ("a", Operand.vec (Dense.vec_create "a" rows));
    ("B", Operand.sparse b);
    ("c", Operand.vec (Dense.vec_init "c" cols float_of_int));
  ]

let test_part_eval_spmv () =
  let bindings = spmv_bindings () in
  let env_l = Operand.env_of_bindings bindings in
  let prog = Lower.lower ~env:env_l ~grid:[| 2 |] Tin.spmv (Core.Kernels.spmv_row ()) in
  let penv = Part_eval.create bindings in
  let loops = Part_eval.eval_partitions penv prog in
  Alcotest.(check int) "one distributed loop" 1 (List.length loops);
  let rows_part = Part_eval.find_partition penv "B1Part" in
  Alcotest.(check bool) "row partition complete" true (Partition.is_complete rows_part);
  let vals_part = Part_eval.find_partition penv "BValsPart" in
  let b = Operand.find_sparse bindings "B" in
  Alcotest.(check int) "vals partition covers nnz" (Tensor.nnz b)
    (Iset.cardinal (Partition.union_of_colors vals_part));
  Alcotest.(check bool) "vals disjoint under row split" true
    vals_part.Partition.disjoint;
  (* The gather partition of c names the columns each piece touches. *)
  let gather = Part_eval.find_partition penv "cGatherPart_j" in
  Alcotest.(check int) "gather colors" 2 (Partition.colors gather)

let test_part_eval_nnz_alias () =
  let bindings = spmv_bindings ~rows:6 ~cols:6 ~density:0.5 () in
  let env_l = Operand.env_of_bindings bindings in
  let prog = Lower.lower ~env:env_l ~grid:[| 3 |] Tin.spmv (Core.Kernels.spmv_nnz ()) in
  let penv = Part_eval.create bindings in
  ignore (Part_eval.eval_partitions penv prog);
  let vals_part = Part_eval.find_partition penv "BValsPart" in
  let b = Operand.find_sparse bindings "B" in
  let n = Tensor.nnz b in
  (* Equal-cardinality split of the stored values. *)
  Array.iter
    (fun s ->
      let c = Iset.cardinal s in
      Alcotest.(check bool) "balanced" true (c >= n / 3 && c <= (n / 3) + 1))
    vals_part.Partition.subsets;
  Alcotest.(check bool) "dependent ops executed" true (penv.Part_eval.dep_ops > 0)

(* --- Leaf work accounting ------------------------------------------------ *)

let test_leaf_work_counts () =
  let bindings = spmv_bindings ~rows:10 ~cols:10 ~density:0.4 () in
  let b = Operand.find_sparse bindings "B" in
  let leaf =
    {
      Loop_ir.leaf_stmt = Tin.spmv;
      driver = Loop_ir.Sparse_driver "B";
      nnz_split = false;
      parallel = true;
      out_reduce = false;
      leaf_row_part = None;
      use_workspace = false;
      col_split = 1;
    }
  in
  let n = Tensor.nnz b in
  let res =
    Leaf.execute ~bindings ~leaf
      ~shard_vals:(fun _ -> Iset.range n)
      ~rows:None ~col_range:None ()
  in
  Helpers.check_float "2 flops per nnz" (2. *. float_of_int n)
    res.Leaf.work.Task.flops;
  Alcotest.(check bool) "no atomics on row split" false
    res.Leaf.work.Task.atomics;
  (* Same leaf under nnz split with a dense output reduces atomically. *)
  let res2 =
    Leaf.execute ~bindings
      ~leaf:{ leaf with Loop_ir.nnz_split = true }
      ~shard_vals:(fun _ -> Iset.range n)
      ~rows:None ~col_range:None ()
  in
  Alcotest.(check bool) "atomics under nnz split" true res2.Leaf.work.Task.atomics

let test_leaf_partial_shard () =
  (* Executing two disjoint half-shards equals executing the whole. *)
  let bindings = spmv_bindings ~rows:10 ~cols:10 ~density:0.4 () in
  let bindings2 = spmv_bindings ~rows:10 ~cols:10 ~density:0.4 () in
  let b = Operand.find_sparse bindings "B" in
  let n = Tensor.nnz b in
  let leaf =
    {
      Loop_ir.leaf_stmt = Tin.spmv;
      driver = Loop_ir.Sparse_driver "B";
      nnz_split = true;
      parallel = true;
      out_reduce = true;
      leaf_row_part = None;
      use_workspace = false;
      col_split = 1;
    }
  in
  let run bs shards =
    List.iter
      (fun s ->
        ignore
          (Leaf.execute ~bindings:bs ~leaf ~shard_vals:(fun _ -> s) ~rows:None
             ~col_range:None ()))
      shards
  in
  run bindings [ Iset.range n ];
  run bindings2 [ Iset.interval 0 ((n / 2) - 1); Iset.interval (n / 2) (n - 1) ];
  let a1 = Operand.find_vec bindings "a" and a2 = Operand.find_vec bindings2 "a" in
  Helpers.check_float "halves equal whole" 0. (Dense.vec_dist a1 a2)

(* --- Interp end-to-end --------------------------------------------------- *)

let run_problem = Helpers.run_validated

let machine = Helpers.cpu_machine

let test_all_kernels_all_pieces () =
  let b = Helpers.rand_csr ~seed:21 12 14 0.25 in
  let b3 = Helpers.rand_csf ~seed:22 6 7 8 0.1 in
  List.iter
    (fun pieces ->
      let m = machine pieces in
      ignore (run_problem (Core.Kernels.spmv_problem ~machine:m b));
      ignore
        (run_problem
           (Core.Kernels.spmv_problem ~machine:m ~nonzero_dist:true
              ~schedule:(Core.Kernels.spmv_nnz ()) b));
      ignore (run_problem (Core.Kernels.spmm_problem ~machine:m ~cols:5 b));
      ignore (run_problem (Core.Kernels.spadd3_problem ~machine:m b));
      ignore (run_problem (Core.Kernels.sddmm_problem ~machine:m ~cols:5 b));
      ignore (run_problem (Core.Kernels.spttv_problem ~machine:m b3));
      ignore
        (run_problem (Core.Kernels.spttv_problem ~machine:m ~nonzero_dist:true b3));
      ignore (run_problem (Core.Kernels.mttkrp_problem ~machine:m ~cols:5 b3));
      ignore
        (run_problem
           (Core.Kernels.mttkrp_problem ~machine:m ~cols:5 ~nonzero_dist:true b3)))
    [ 1; 2; 5 ]

let test_gpu_and_batched () =
  let b = Helpers.rand_csr ~seed:23 12 14 0.25 in
  let mg = Core.Spdistal.machine ~kind:Machine.Gpu [| 4 |] in
  ignore (run_problem (Core.Kernels.spmv_problem ~machine:mg b));
  ignore
    (run_problem (Core.Kernels.spmm_problem ~machine:mg ~cols:6 ~nonzero_dist:true b));
  let m2 = Core.Spdistal.machine ~kind:Machine.Gpu [| 2; 2 |] in
  ignore (run_problem (Core.Kernels.spmm_problem ~machine:m2 ~cols:6 ~batched:true b))

let test_more_pieces_not_slower_on_big_input () =
  (* Strong scaling sanity on a large enough matrix. *)
  let b =
    Spdistal_workloads.Synth.uniform ~name:"U" ~rows:2000 ~cols:2000 ~nnz:40_000
      ~seed:5
  in
  let t1 = run_problem (Core.Kernels.spmv_problem ~machine:(machine 1) b) in
  let t8 = run_problem (Core.Kernels.spmv_problem ~machine:(machine 8) b) in
  Alcotest.(check bool) "8 nodes faster than 1" true (t8 < t1)

(* A tiny GPU memory forces a DNC, like the paper's Fig. 11 cells. *)
let tiny_gpu_spmm () =
  let b = Helpers.rand_csr ~seed:25 40 40 0.5 in
  let params =
    { (Machine.scale_params 1e9 Machine.lassen) with Machine.net_alpha = 1e-6 }
  in
  let m = Core.Spdistal.machine ~params ~kind:Machine.Gpu [| 2 |] in
  Core.Kernels.spmm_problem ~machine:m ~cols:8 b

let test_oom_dnc () =
  let res = Core.Spdistal.run (tiny_gpu_spmm ()) in
  Alcotest.(check bool) "DNC reported" true (res.Core.Spdistal.dnc <> None)

let test_oom_dnc_restores_output () =
  (* Through a warm-start context: leaves write the output inside the
     launch before the reduce step's memory check raises, so the DNC must
     put the pristine output back. *)
  let p = tiny_gpu_spmm () in
  let out () =
    let a = Operand.find_mat (Core.Spdistal.bindings p) "A" in
    Array.map Int64.bits_of_float a.Dense.data
  in
  let pristine = out () in
  let ctx = Core.Spdistal.Context.create p in
  List.iter
    (fun iterations ->
      let res = Core.Spdistal.Context.run ~iterations ctx in
      Alcotest.(check bool) "DNC reported" true (res.Core.Spdistal.dnc <> None);
      Alcotest.(check bool)
        (Printf.sprintf "output pristine after DNC (%d iterations)" iterations)
        true
        (out () = pristine))
    [ 1; 2 ]

let test_nnz_sched_typed_error () =
  List.iter
    (fun vars ->
      match
        Core.Kernels.nnz_sched ~vars ~tensor:"B" ~tensors:[ "a"; "B"; "c" ] ()
      with
      | _ -> Alcotest.fail "nnz_sched accepted fewer than two variables"
      | exception Error.Error { Error.phase = Error.Config; _ } -> ())
    [ []; [ "i" ] ]

let test_show_compiles () =
  let b = Helpers.rand_csr ~seed:26 6 6 0.4 in
  let p = Core.Kernels.spmv_problem ~machine:(machine 2) b in
  let s = Core.Spdistal.show p in
  Alcotest.(check bool) "pretty plan nonempty" true (String.length s > 100)

(* --- Placement ----------------------------------------------------------- *)

let test_placement_matching_avoids_comm () =
  (* Matched data/computation distribution: zero bytes moved (paper §II-D);
     a mismatched distribution pays to reshape. *)
  let b = Helpers.rand_csr ~seed:27 30 30 0.2 in
  let m = machine 3 in
  let matched = Core.Kernels.spmv_problem ~machine:m b in
  let r1 = Core.Spdistal.run matched in
  Helpers.check_float "no bytes moved when matched" 0.
    r1.Core.Spdistal.cost.Cost.bytes_moved;
  let mismatched =
    Core.Kernels.spmv_problem ~machine:m ~nonzero_dist:true
      ~schedule:(Core.Kernels.spmv_row ()) b
  in
  let r2 = Core.Spdistal.run mismatched in
  Alcotest.(check bool) "mismatch moves data" true
    (r2.Core.Spdistal.cost.Cost.bytes_moved > 0.);
  Alcotest.(check bool) "mismatch is slower" true
    (Cost.total r2.Core.Spdistal.cost > Cost.total r1.Core.Spdistal.cost)

(* --- Random cross-validation --------------------------------------------- *)

let prop_random_spmv =
  Helpers.qtest ~count:60 "random SpMV matches dense reference (row and nnz)"
    QCheck.(pair Helpers.arb_coo_matrix (QCheck.int_range 1 5))
    (fun (coo, pieces) ->
      let b = Tensor.csr ~name:"B" coo in
      if Tensor.nnz b = 0 then true
      else begin
        let m = machine pieces in
        let ok p =
          let res = Core.Spdistal.run p in
          res.Core.Spdistal.dnc = None
          && Validate.max_error (Core.Spdistal.bindings p) p.Core.Spdistal.stmt
             < 1e-9
        in
        ok (Core.Kernels.spmv_problem ~machine:m b)
        && ok
             (Core.Kernels.spmv_problem ~machine:m ~nonzero_dist:true
                ~schedule:(Core.Kernels.spmv_nnz ()) b)
      end)

let test_workspace_spadd3 () =
  (* The workspace strategy must produce the identical output to the k-way
     merge. *)
  let b = Helpers.rand_csr ~seed:71 25 25 0.3 in
  let p1 = Core.Kernels.spadd3_problem ~machine:(machine 3) b in
  let p2 =
    Core.Kernels.spadd3_problem ~machine:(machine 3)
      ~schedule:(Core.Kernels.spadd3_workspace ()) b
  in
  ignore (run_problem p1);
  ignore (run_problem p2);
  let a1 = Operand.find_sparse (Core.Spdistal.bindings p1) "A" in
  let a2 = Operand.find_sparse (Core.Spdistal.bindings p2) "A" in
  Alcotest.(check bool) "identical outputs" true
    (Coo.equal (Tensor.to_coo a1) (Tensor.to_coo a2))

let prop_random_spadd3 =
  Helpers.qtest ~count:40 "random SpAdd3 matches dense reference"
    QCheck.(pair Helpers.arb_coo_matrix (QCheck.int_range 1 4))
    (fun (coo, pieces) ->
      let b = Tensor.csr ~name:"B" coo in
      if Tensor.nnz b = 0 then true
      else begin
        let p = Core.Kernels.spadd3_problem ~machine:(machine pieces) b in
        let res = Core.Spdistal.run p in
        res.Core.Spdistal.dnc = None
        && Validate.max_error (Core.Spdistal.bindings p) p.Core.Spdistal.stmt
           < 1e-9
      end)

(* --- Compiled vs interpreter leaf backends ------------------------------ *)

(* The compiled closures must be indistinguishable from the reference
   interpreter: bit-identical outputs, launch records and Cost, on every
   kernel of the catalog, under fault injection, and across warm-cache
   iterations (which replay cached compiled leaves). *)

let launch_sig trace =
  let module Trace = Spdistal_obs.Trace in
  List.map
    (fun sp ->
      ( sp.Trace.sp_name,
        Int64.bits_of_float sp.Trace.sp_start,
        Int64.bits_of_float sp.Trace.sp_dur ))
    (Helpers.launch_spans trace)

let run_with backend ?faults ?iterations make =
  let p = make () in
  let res, trace =
    Helpers.run_traced ?faults ?iterations ~leaf_backend:backend p
  in
  match res.Core.Spdistal.dnc with
  | Some r -> `Dnc r
  | None ->
      `Ok
        ( Helpers.snapshot p,
          Helpers.cost_sig res.Core.Spdistal.cost,
          launch_sig trace )

let check_backends_agree name ?faults ?iterations make =
  let ri = run_with Compile_leaf.Interp ?faults ?iterations make in
  let rc = run_with Compile_leaf.Compiled ?faults ?iterations make in
  match (ri, rc) with
  | `Dnc a, `Dnc b -> Alcotest.(check string) (name ^ ": same DNC") a b
  | `Ok (o_i, c_i, l_i), `Ok (o_c, c_c, l_c) ->
      Alcotest.(check bool)
        (name ^ ": outputs bit-identical")
        true
        (Spdistal_fuzz.Snapshot.equal o_i o_c);
      Alcotest.(check bool)
        (name ^ ": cost bit-identical")
        true
        (Spdistal_fuzz.Snapshot.equal c_i c_c);
      Alcotest.(check bool) (name ^ ": launch records identical") true (l_i = l_c)
  | `Dnc r, `Ok _ -> Alcotest.fail (name ^ ": DNC only on interp: " ^ r)
  | `Ok _, `Dnc r -> Alcotest.fail (name ^ ": DNC only on compiled: " ^ r)

let test_backend_equivalence_sweep () =
  List.iter
    (fun (name, make) ->
      check_backends_agree name make;
      check_backends_agree
        (name ^ "+faults")
        ~faults:(Fault.make ~seed:5 ~rate:0.1 ~retries:8 ())
        make;
      check_backends_agree (name ^ "+warm") ~iterations:3 make)
    (Helpers.kernel_problems () @ Helpers.nnz_kernel_problems ())

(* Operands that disagree on an index variable's extent fail with a typed
   error, not [Invalid_argument]. *)
let test_validate_inconsistent_domain () =
  let b = Helpers.rand_csr ~seed:5 10 10 0.3 in
  let bindings =
    [
      ("a", Operand.vec (Dense.vec_create "a" 10));
      ("B", Operand.sparse b);
      ("c", Operand.vec (Dense.vec_create "c" 7));
    ]
  in
  match Validate.reference bindings Tin.spmv with
  | _ -> Alcotest.fail "inconsistent domains accepted"
  | exception Error.Error { Error.phase = Error.Config; _ } -> ()

(* SpMM with [C] bound to [A]'s storage would read its own partial sums.
   Every run path refuses it with a typed error naming both operands,
   before any leaf writes, on either leaf backend. *)
let test_aliased_output_rejected () =
  let b = Helpers.rand_csr ~seed:45 64 64 0.2 in
  let aliased () =
    let p = Core.Kernels.spmm_problem ~machine:(Helpers.cpu_machine 2) ~cols:64 b in
    let bindings = Core.Spdistal.bindings p in
    (Operand.find bindings "C").Operand.data <- (Operand.find bindings "A").Operand.data;
    p
  in
  let module S = Core.Spdistal in
  List.iter
    (fun (name, run) ->
      let p = aliased () in
      let before = Array.copy (Operand.find_mat (S.bindings p) "A").Dense.data in
      match run p with
      | () -> Alcotest.failf "%s: an output aliasing an input was accepted" name
      | exception Error.Error ({ Error.phase = Error.Config; _ } as e) ->
          let msg = Error.to_string e in
          Alcotest.(check bool)
            (name ^ ": names A and C: " ^ msg)
            true
            (Helpers.contains msg "output A" && Helpers.contains msg "input C");
          Alcotest.(check bool)
            (name ^ ": output untouched")
            true
            (before = (Operand.find_mat (S.bindings p) "A").Dense.data))
    [
      ("Spdistal.run", fun p -> ignore (S.run p));
      ( "Spdistal.run interp",
        fun p -> ignore (S.run ~leaf_backend:Compile_leaf.Interp p) );
      ("Spdistal.run ~iterations:2", fun p -> ignore (S.run ~iterations:2 p));
      ("Context.run", fun p -> ignore (S.Context.run (S.Context.create p)));
    ]

let suite =
  [
    Alcotest.test_case "operand bindings" `Quick test_operand;
    Alcotest.test_case "partition evaluation (spmv row)" `Quick
      test_part_eval_spmv;
    Alcotest.test_case "partition evaluation (spmv nnz)" `Quick
      test_part_eval_nnz_alias;
    Alcotest.test_case "leaf work accounting" `Quick test_leaf_work_counts;
    Alcotest.test_case "leaf shards compose" `Quick test_leaf_partial_shard;
    Alcotest.test_case "all kernels x pieces vs reference" `Slow
      test_all_kernels_all_pieces;
    Alcotest.test_case "gpu and batched schedules" `Quick test_gpu_and_batched;
    Alcotest.test_case "strong scaling sanity" `Quick
      test_more_pieces_not_slower_on_big_input;
    Alcotest.test_case "OOM becomes DNC" `Quick test_oom_dnc;
    Alcotest.test_case "warm-start DNC restores the output" `Quick
      test_oom_dnc_restores_output;
    Alcotest.test_case "nnz_sched: typed Config error" `Quick
      test_nnz_sched_typed_error;
    Alcotest.test_case "show pretty plan" `Quick test_show_compiles;
    Alcotest.test_case "matched distribution avoids communication" `Quick
      test_placement_matching_avoids_comm;
    Alcotest.test_case "workspace SpAdd3 = merge SpAdd3" `Quick
      test_workspace_spadd3;
    Alcotest.test_case "compiled = interp leaves (catalog, faults, warm)" `Slow
      test_backend_equivalence_sweep;
    prop_random_spmv;
    prop_random_spadd3;
    Alcotest.test_case "validate: inconsistent domains are typed" `Quick
      test_validate_inconsistent_domain;
    Alcotest.test_case "an output aliasing an input is a typed error" `Quick
      test_aliased_output_rejected;
  ]
