(* Deeper interpreter invariants: cost-model behavior, reductions under
   aliased output partitions, column chunking, placement variants. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec

let cpu = Helpers.cpu_machine

let run_ok = Helpers.run_ok

let test_flops_counted () =
  let b = Helpers.rand_csr ~seed:61 20 20 0.3 in
  let n = float_of_int (Tensor.nnz b) in
  let cost = run_ok (Core.Kernels.spmv_problem ~machine:(cpu 3) b) in
  Helpers.check_float "SpMV flops = 2 nnz" (2. *. n) cost.Cost.flops;
  let cost = run_ok (Core.Kernels.spmm_problem ~machine:(cpu 3) ~cols:5 b) in
  Helpers.check_float "SpMM flops = 2 nnz cols" (2. *. n *. 5.) cost.Cost.flops

let test_nnz_split_reduction_charged () =
  let b = Helpers.rand_csr ~seed:62 40 40 0.4 in
  let cost =
    run_ok
      (Core.Kernels.spmv_problem ~machine:(cpu 4)
         ~schedule:(Core.Kernels.spmv_nnz ()) b)
  in
  (* The aliased row partition forces output reduction messages. *)
  Alcotest.(check bool) "reduction messages recorded" true (cost.Cost.messages > 0);
  Alcotest.(check bool) "reduction bytes recorded" true (cost.Cost.bytes_moved > 0.)

let test_launch_overhead_grows () =
  let b = Helpers.rand_csr ~seed:63 30 30 0.3 in
  let o pieces =
    (run_ok (Core.Kernels.spmv_problem ~machine:(cpu pieces) b)).Cost.overhead
  in
  Alcotest.(check bool) "more pieces, more runtime overhead" true (o 8 > o 1)

let test_batched_grid_partial_results () =
  (* On a 2-D grid, row partitions have grid.(0) colors and each piece
     computes a column chunk; the combination must still cover A exactly
     once. *)
  let b = Helpers.rand_csr ~seed:64 16 16 0.35 in
  List.iter
    (fun grid ->
      let m = Core.Spdistal.machine ~kind:Machine.Gpu grid in
      let p =
        Core.Kernels.spmm_problem ~machine:m ~cols:6
          ~schedule:(Core.Kernels.spmm_batched ~proc:Schedule.Gpu_thread ()) b
      in
      ignore (run_ok p);
      Helpers.check_float
        (Printf.sprintf "grid %dx%d exact" grid.(0) grid.(1))
        0.
        (Validate.max_error (Core.Spdistal.bindings p) p.Core.Spdistal.stmt))
    [ [| 1; 2 |]; [| 2; 2 |]; [| 4; 2 |]; [| 2; 4 |] ]

let test_atomic_penalty_in_cost () =
  (* The same work costs more under a non-zero split on CPUs (reduction
     atomics, paper §VI-A1): compare compute components at 1 piece where
     partitioning effects vanish. *)
  let b = Helpers.rand_csr ~seed:65 60 60 0.3 in
  let row = run_ok (Core.Kernels.spmv_problem ~machine:(cpu 1) b) in
  let nnz =
    run_ok
      (Core.Kernels.spmv_problem ~machine:(cpu 1)
         ~schedule:(Core.Kernels.spmv_nnz ()) b)
  in
  Alcotest.(check bool) "atomics make the nnz leaf slower" true
    (nnz.Cost.compute > row.Cost.compute)

let test_replicated_placement_no_bcast () =
  (* With c replicated, no broadcast; with c blocked (mismatched vs the
     needed gather), bytes move. *)
  let b = Helpers.rand_csr ~seed:66 30 30 0.4 in
  let blocked = Tdn.Blocked { tensor_dim = 0; machine_dim = 0 } in
  let mk c_dist =
    let a = Dense.vec_create "a" 30 in
    let c = Dense.vec_init "c" 30 float_of_int in
    Core.Spdistal.problem ~machine:(cpu 3)
      ~operands:
        [
          ("a", Operand.vec a, blocked);
          ("B", Operand.sparse b, blocked);
          ("c", Operand.vec c, c_dist);
        ]
      ~stmt:Tin.spmv
      ~schedule:(Core.Kernels.spmv_row ())
  in
  let repl = run_ok (mk Tdn.Replicated) in
  Helpers.check_float "replicated: nothing moves" 0. repl.Cost.bytes_moved;
  let blk = run_ok (mk blocked) in
  Alcotest.(check bool) "blocked c: gather traffic" true (blk.Cost.bytes_moved > 0.)

let test_one_piece_equals_sequential_flops () =
  (* A single piece must see every stored value exactly once. *)
  let b3 = Helpers.rand_csf ~seed:67 5 6 7 0.15 in
  let cost = run_ok (Core.Kernels.spttv_problem ~machine:(cpu 1) b3) in
  Helpers.check_float "SpTTV flops = 2 nnz"
    (2. *. float_of_int (Tensor.nnz b3))
    cost.Cost.flops

let test_cost_split_components () =
  let c = Cost.create () in
  let m = cpu 2 in
  Cost.record_launch_split c ~machine:m ~comm_times:[| 0.5; 0.1 |]
    ~leaf_times:[| 0.2; 0.6 |];
  (* critical = max(0.7, 0.7) = 0.7; leaf critical = 0.6; comm = 0.1. *)
  Helpers.check_float "compute part" 0.6 c.Cost.compute;
  Helpers.check_float "comm part" 0.1 c.Cost.comm;
  Helpers.check_float "total"
    (0.7 +. Machine.launch_overhead m)
    (Cost.total c)

let test_sddmm_no_atomics_under_nnz () =
  (* SDDMM writes each non-zero's own output position: the nnz split needs
     no atomics, which is why the paper uses it everywhere for SDDMM. *)
  let b = Helpers.rand_csr ~seed:68 50 50 0.3 in
  let sd = run_ok (Core.Kernels.sddmm_problem ~machine:(cpu 1) ~cols:4 b) in
  (* Compare against SpMV-nnz on the same data, which does pay atomics. *)
  let b2 = Helpers.rand_csr ~seed:68 50 50 0.3 in
  let mv =
    run_ok
      (Core.Kernels.spmv_problem ~machine:(cpu 1)
         ~schedule:(Core.Kernels.spmv_nnz ()) b2)
  in
  (* Both are nnz-split; only SpMV's compute includes the atomic factor.
     Scale-free check: SDDMM (4 cols) does ~4x SpMV's flops, so compute
     ratio under ~8 confirms no extra multiplier. Crude but effective. *)
  Alcotest.(check bool) "sddmm not atomically penalized" true
    (sd.Cost.compute /. mv.Cost.compute < 8.)

let test_distributed_reduction_loop () =
  (* Distributing over the reduction variable j: valid, numerically exact,
     and every piece's full partial output must be reduced. *)
  let b = Helpers.rand_csr ~seed:69 30 30 0.4 in
  let sched =
    [
      Schedule.Divide { v = "j"; outer = "jo"; inner = "ji" };
      Schedule.Distribute [ "jo" ];
      Schedule.Communicate { tensors = [ "a"; "B"; "c" ]; at = "jo" };
      Schedule.Parallelize { v = "ji"; proc = Schedule.Cpu_thread };
    ]
  in
  let p = Core.Kernels.spmv_problem ~machine:(cpu 4) ~schedule:sched b in
  let cost = run_ok p in
  Helpers.check_float "exact" 0.
    (Validate.max_error (Core.Spdistal.bindings p) Tin.spmv);
  (* Reduction traffic: (pieces-1) full copies of a. *)
  Alcotest.(check bool) "reduction bytes charged" true
    (cost.Cost.bytes_moved >= 3. *. 30. *. 8.)

let suite =
  [
    Alcotest.test_case "flops accounting" `Quick test_flops_counted;
    Alcotest.test_case "nnz split charges reduction" `Quick
      test_nnz_split_reduction_charged;
    Alcotest.test_case "launch overhead grows with pieces" `Quick
      test_launch_overhead_grows;
    Alcotest.test_case "2-D grids stay exact" `Quick
      test_batched_grid_partial_results;
    Alcotest.test_case "atomic penalty visible" `Quick test_atomic_penalty_in_cost;
    Alcotest.test_case "replication vs blocked gather" `Quick
      test_replicated_placement_no_bcast;
    Alcotest.test_case "single piece flop exactness" `Quick
      test_one_piece_equals_sequential_flops;
    Alcotest.test_case "cost split components" `Quick test_cost_split_components;
    Alcotest.test_case "SDDMM needs no atomics" `Quick
      test_sddmm_no_atomics_under_nnz;
    Alcotest.test_case "distributed reduction loop" `Quick
      test_distributed_reduction_loop;
  ]
