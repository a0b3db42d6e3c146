(* Load balance: the two SpMV algorithms of paper §II-D on a skewed matrix.

   The row-based algorithm (universe partition of i) assigns each processor
   an equal range of rows — heavily skewed rows make some processors do far
   more work.  The non-zero-based algorithm fuses i and j, non-zero-splits
   the fused space (B |->^{ij->f}_~f M), and pays a reduction into a instead;
   its leaf work is perfectly balanced.

   Run with: dune exec examples/load_balance.exe *)

open Spdistal_runtime
open Spdistal_exec

let run name problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Printf.printf "%-24s DNC: %s\n" name r
  | None ->
      let c = res.Core.Spdistal.cost in
      Printf.printf
        "%-24s time %8.3f ms   compute %8.3f ms   comm %8.3f ms   %.2e B moved\n"
        name
        (1000. *. Cost.total c)
        (1000. *. c.Cost.compute) (1000. *. c.Cost.comm) c.Cost.bytes_moved;
      (* Cheap correctness spot-check against a sequential SpMV. *)
      let b = Operand.find_sparse (Core.Spdistal.bindings problem) "B" in
      let a = Operand.find_vec (Core.Spdistal.bindings problem) "a" in
      let c_in = Operand.find_vec (Core.Spdistal.bindings problem) "c" in
      let expect = Spdistal_formats.Dense.vec_create "ref" a.Spdistal_formats.Dense.n in
      Spdistal_baselines.Common.seq_spmv b c_in expect;
      assert (Spdistal_formats.Dense.vec_dist a expect < 1e-9)

let () =
  let pieces = 16 in
  (* Lassen scaled to the workload size, so times read like full-size runs
     (see Machine.scale_params). *)
  let params = Machine.scale_params 5_000. Machine.lassen in
  let machine = Core.Spdistal.machine ~params ~kind:Machine.Cpu [| pieces |] in
  Printf.printf "machine: %s\n\n" (Format.asprintf "%a" Machine.pp machine);

  (* A matrix whose non-zeros concentrate in one region of the row space:
     universe partitions of i cannot balance it (paper Fig. 5's point), the
     fused non-zero partition can. *)
  let skewed =
    let rng = ref 99 in
    let next n = rng := ((!rng * 1103515245) + 12345) land 0x3fffffff; !rng mod n in
    let entries = ref [] in
    let rows = 20_000 and cols = 20_000 in
    for _ = 1 to 400_000 do
      (* Half the mass lands in the first 1/16th of the rows. *)
      let i = if next 2 = 0 then next (rows / 16) else next rows in
      entries := ([| i; next cols |], 1.) :: !entries
    done;
    Spdistal_formats.Tensor.csr ~name:"skewed"
      (Spdistal_formats.Coo.make [| rows; cols |] !entries)
  in
  (* A balanced banded matrix for contrast. *)
  let banded = Spdistal_workloads.Synth.banded ~name:"banded" ~n:30_000 ~band:13 in

  Printf.printf "--- hub-concentrated matrix (%d nnz) ---\n"
    (Spdistal_formats.Tensor.nnz skewed);
  Printf.printf "data distributions: row-blocked vs fused non-zero (%s)\n"
    (Format.asprintf "%a" (Spdistal_ir.Tdn.pp ~tensor:"B")
       (Spdistal_ir.Tdn.Fused_non_zero { dims = [ 0; 1 ]; machine_dim = 0 }));
  run "row-based" (Core.Kernels.spmv_problem ~machine skewed);
  run "non-zero-based"
    (Core.Kernels.spmv_problem ~machine ~schedule:(Core.Kernels.spmv_nnz ())
       skewed);
  (* §II-D's closing remark: a row-based schedule over non-zero-placed data
     is valid but pays to reshape the data every iteration. *)
  run "mismatched (row/nnz)"
    (Core.Spdistal.with_schedule
       (Core.Kernels.spmv_problem ~machine
          ~schedule:(Core.Kernels.spmv_nnz ()) skewed)
       ~schedule:(Core.Kernels.spmv_row ()) ~tdns:[]);

  Printf.printf "\n--- balanced banded matrix (%d nnz) ---\n"
    (Spdistal_formats.Tensor.nnz banded);
  run "row-based" (Core.Kernels.spmv_problem ~machine banded);
  run "non-zero-based"
    (Core.Kernels.spmv_problem ~machine ~schedule:(Core.Kernels.spmv_nnz ())
       banded);
  print_newline ();
  print_endline
    "On the skewed matrix the non-zero split balances the leaf work; on the\n\
     balanced matrix it only adds reduction traffic (paper §II-D tradeoff)."
