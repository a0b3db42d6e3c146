(* Piece-to-color mapping on multi-dimensional grids (the square-grid
   ambiguity fix) and bit-exact determinism of parallel piece simulation. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_exec
open Core

(* ------------------------------------------------------------------ *)
(* color_for: axis dispatch, square 2x2 grid                           *)
(* ------------------------------------------------------------------ *)

let part ~axis colors =
  Partition.make ~axis (Iset.range (colors * 10))
    (Array.init colors (fun c -> Iset.interval (c * 10) ((c * 10) + 9)))

let test_color_for_square_grid () =
  (* On a 2x2 grid a row partition and a column partition both have two
     colors; only the axis tag can tell them apart.  Pieces are row-major:
     piece = x * gy + y. *)
  let grid = [| 2; 2 |] and pieces = 4 in
  let rows = part ~axis:(Partition.Grid_dim 0) 2 in
  let cols = part ~axis:(Partition.Grid_dim 1) 2 in
  let colors p piece = Interp.color_for ~grid ~pieces p piece in
  Alcotest.(check (list int))
    "row partition follows grid dim 0" [ 0; 0; 1; 1 ]
    (List.init 4 (colors rows));
  Alcotest.(check (list int))
    "column partition follows grid dim 1" [ 0; 1; 0; 1 ]
    (List.init 4 (colors cols));
  let flat = part ~axis:Partition.Flat 4 in
  Alcotest.(check (list int))
    "flat partition is indexed by piece id" [ 0; 1; 2; 3 ]
    (List.init 4 (colors flat))

let test_color_for_rejects_mismatch () =
  let grid = [| 2; 2 |] and pieces = 4 in
  let check_rejects name p =
    try
      ignore (Interp.color_for ~grid ~pieces p 0);
      Alcotest.fail (name ^ ": expected Error.Error")
    with Error.Error { Error.phase = Error.Launch; _ } -> ()
  in
  (* A flat partition must have one color per piece — the old color-count
     heuristic silently accepted 2 colors here. *)
  check_rejects "flat with 2 colors" (part ~axis:Partition.Flat 2);
  check_rejects "axis beyond grid" (part ~axis:(Partition.Grid_dim 2) 2);
  check_rejects "wrong color count for axis" (part ~axis:(Partition.Grid_dim 0) 3)

let test_color_for_3d () =
  let grid = [| 2; 3; 2 |] and pieces = 12 in
  let p1 = part ~axis:(Partition.Grid_dim 1) 3 in
  Alcotest.(check (list int))
    "middle axis, stride = trailing dims"
    [ 0; 0; 1; 1; 2; 2; 0; 0; 1; 1; 2; 2 ]
    (List.init 12 (Interp.color_for ~grid ~pieces p1))

(* ------------------------------------------------------------------ *)
(* Batched SpMM on a square 2x2 GPU grid: numeric regression           *)
(* ------------------------------------------------------------------ *)

let mat_data p name =
  match (Operand.find (Spdistal.bindings p) name).Operand.data with
  | Operand.Mat m -> m
  | _ -> Alcotest.fail (name ^ " is not a dense matrix")

let test_batched_spmm_2x2 () =
  let b = Helpers.rand_csr ~seed:31 40 40 0.08 in
  let machine = Spdistal.machine ~kind:Machine.Gpu [| 2; 2 |] in
  let cols = 8 in
  let p =
    Kernels.spmm_problem ~machine ~cols
      ~schedule:(Kernels.spmm_batched ~proc:Spdistal_ir.Schedule.Gpu_thread ()) b
  in
  let r = Spdistal.run p in
  Alcotest.(check (option string)) "completes" None r.Spdistal.dnc;
  let a = mat_data p "A" and c = mat_data p "C" in
  (* Dense reference in the driver's storage order. *)
  let reference = Array.make (40 * cols) 0. in
  let coo = Tensor.to_coo b in
  for e = 0 to Coo.nnz coo - 1 do
    let i = coo.Coo.coords.(0).(e) and k = coo.Coo.coords.(1).(e) in
    let v = coo.Coo.vals.(e) in
    for j = 0 to cols - 1 do
      reference.((i * cols) + j) <-
        reference.((i * cols) + j) +. (v *. c.Dense.data.((k * cols) + j))
    done
  done;
  Array.iteri
    (fun i expect ->
      Helpers.check_float (Printf.sprintf "A.(%d)" i) expect a.Dense.data.(i))
    reference

(* ------------------------------------------------------------------ *)
(* Determinism: parallel simulation is bit-identical to sequential     *)
(* ------------------------------------------------------------------ *)

(* Run the same freshly-built problem at both degrees and require every Cost
   field and every operand's storage to match bit for bit.  Signatures come
   from Helpers.snapshot / Helpers.cost_sig (shared with the fuzzer). *)
let check_deterministic name make =
  let run_with domains =
    let p = make () in
    let r = Spdistal.run ~domains p in
    (r.Spdistal.dnc, Helpers.cost_sig r.Spdistal.cost, Helpers.snapshot p)
  in
  let dnc1, cost1, out1 = run_with 1 in
  let dnc4, cost4, out4 = run_with 4 in
  Alcotest.(check (option string)) (name ^ ": same dnc") dnc1 dnc4;
  Alcotest.(check bool) (name ^ ": cost fields bit-identical") true (cost1 = cost4);
  Alcotest.(check bool) (name ^ ": outputs bit-identical") true (out1 = out4)

let test_determinism_fig10 () =
  List.iter
    (fun (name, make) -> check_deterministic name make)
    (Helpers.kernel_problems ~mseed:41 ~tseed:42 ~batched:false ())

let test_determinism_reductions () =
  (* nnz-split schedules take the deferred-leaf path (overlapping output
     writes reduce on the reducing domain). *)
  List.iter
    (fun (name, make) -> check_deterministic name make)
    (Helpers.nnz_kernel_problems ())

let test_determinism_batched () =
  let machine = Helpers.gpu_machine [| 2; 2 |] in
  let matrix = Helpers.rand_csr ~seed:45 40 40 0.08 in
  check_deterministic "spmm-batched-2x2" (fun () ->
      Kernels.spmm_problem ~machine ~cols:8
        ~schedule:(Kernels.spmm_batched ~proc:Spdistal_ir.Schedule.Gpu_thread ()) matrix)

let suite =
  [
    Alcotest.test_case "color_for on a square grid" `Quick test_color_for_square_grid;
    Alcotest.test_case "color_for rejects mismatches" `Quick test_color_for_rejects_mismatch;
    Alcotest.test_case "color_for on a 3-d grid" `Quick test_color_for_3d;
    Alcotest.test_case "batched SpMM on 2x2 grid" `Quick test_batched_spmm_2x2;
    Alcotest.test_case "fig10 kernels deterministic" `Quick test_determinism_fig10;
    Alcotest.test_case "nnz-split kernels deterministic" `Quick test_determinism_reductions;
    Alcotest.test_case "batched SpMM deterministic" `Quick test_determinism_batched;
  ]
