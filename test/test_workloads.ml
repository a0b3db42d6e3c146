open Spdistal_formats
open Spdistal_workloads

let test_banded () =
  let t = Synth.banded ~name:"b" ~n:100 ~band:5 in
  Alcotest.(check int) "rows" 100 t.Tensor.dims.(0);
  (* Interior rows have exactly [band] entries. *)
  let open Spdistal_runtime in
  let pos = Tensor.pos_of t 1 in
  let lo, hi = Region.get pos 50 in
  Alcotest.(check int) "interior row width" 5 (hi - lo + 1);
  Alcotest.(check bool) "nnz close to n*band" true
    (abs (Tensor.nnz t - 500) < 20)

let test_uniform_deterministic () =
  let a = Synth.uniform ~name:"u" ~rows:50 ~cols:50 ~nnz:300 ~seed:9 in
  let b = Synth.uniform ~name:"u" ~rows:50 ~cols:50 ~nnz:300 ~seed:9 in
  Alcotest.(check bool) "same seed, same tensor" true
    (Coo.equal (Tensor.to_coo a) (Tensor.to_coo b));
  let c = Synth.uniform ~name:"u" ~rows:50 ~cols:50 ~nnz:300 ~seed:10 in
  Alcotest.(check bool) "different seed differs" false
    (Coo.equal (Tensor.to_coo a) (Tensor.to_coo c))

let test_power_law_structure () =
  let t = Synth.power_law ~name:"p" ~rows:500 ~cols:500 ~nnz:5000 ~alpha:1.0 ~seed:3 in
  let counts = Spdistal_baselines.Common.row_block_nnz t ~blocks:500 in
  let mx = Array.fold_left max 0 counts in
  let mean = Tensor.nnz t / 500 in
  Alcotest.(check bool) "has hubs (max >> mean)" true (mx > 4 * mean);
  Alcotest.(check bool) "hubs are capped" true (mx <= max 32 (200 * 5000 / 500))

let test_bounded_degree () =
  let t = Synth.bounded_degree ~name:"k" ~rows:300 ~cols:300 ~lo:2 ~hi:4 ~seed:4 in
  let counts = Spdistal_baselines.Common.row_block_nnz t ~blocks:300 in
  Array.iter
    (fun c -> Alcotest.(check bool) "degree within bounds" true (c >= 1 && c <= 4))
    counts

let test_stencil () =
  let t = Synth.stencil ~name:"s" ~n:200 ~points:9 in
  Alcotest.(check bool) "about points per row" true
    (abs (Tensor.nnz t - (200 * 9)) < 100)

let test_tensor3_generators () =
  let u = Synth.tensor3_uniform ~name:"t3" ~dims:[| 20; 20; 20 |] ~nnz:500 ~seed:5 in
  Alcotest.(check int) "order" 3 (Tensor.order u);
  let s =
    Synth.tensor3_skewed ~name:"t3s" ~dims:[| 50; 50; 20 |] ~nnz:2000 ~alpha:1.2 ~seed:6
  in
  Alcotest.(check bool) "skewed built" true (Tensor.nnz s > 1000);
  let d = Synth.tensor3_dense_modes ~name:"t3d" ~dims:[| 3; 4; 500 |] ~nnz:600 ~seed:7 in
  (match d.Tensor.levels.(1) with
  | Level.Dense _ -> ()
  | Level.Compressed _ | Level.Singleton _ ->
      Alcotest.fail "patents-style tensor needs dense mode 1");
  Alcotest.(check bool) "dense-modes nnz near target" true
    (abs (Tensor.nnz d - 600) < 60)

let test_datasets_table () =
  Alcotest.(check int) "14 datasets" 14 (List.length Datasets.all);
  Alcotest.(check int) "10 matrices" 10 (List.length Datasets.matrices);
  Alcotest.(check int) "4 tensors" 4 (List.length Datasets.tensors3);
  let e = Datasets.find "patents" in
  Alcotest.(check bool) "patents is a 3-tensor" true (e.Datasets.ds_kind = Datasets.Tensor3);
  let open Spdistal_runtime in
  Alcotest.check_raises "unknown dataset"
    (Error.Error
       {
         Error.phase = Error.Config;
         kernel = None;
         piece = None;
         node = None;
         what = "unknown dataset nope";
       })
    (fun () -> ignore (Datasets.find "nope"))

let test_datasets_memoized () =
  let e = Datasets.find "nell-2" in
  let a = e.Datasets.load () and b = e.Datasets.load () in
  Alcotest.(check bool) "same physical tensor" true (a == b);
  Datasets.clear_cache ();
  let c = e.Datasets.load () in
  Alcotest.(check bool) "rebuilt after clear" true (a != c)

let test_table2_renders () =
  let s = Format.asprintf "%a" Datasets.pp_table2 () in
  Alcotest.(check bool) "mentions freebase_music" true
    (Helpers.contains s "freebase_music")

let test_srng () =
  let open Spdistal_runtime in
  let r = Srng.create 1 in
  let a = Srng.int r 100 and b = Srng.int r 100 in
  Alcotest.(check bool) "stream advances" true (a <> b || Srng.int r 100 <> b);
  let r2 = Srng.create 1 in
  Alcotest.(check int) "deterministic" a (Srng.int r2 100);
  for _ = 1 to 100 do
    let z = Srng.zipf r ~n:50 ~alpha:1.0 in
    Alcotest.(check bool) "zipf in range" true (z >= 0 && z < 50);
    let f = Srng.float r in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 1.)
  done

let suite =
  [
    Alcotest.test_case "banded" `Quick test_banded;
    Alcotest.test_case "uniform deterministic" `Quick test_uniform_deterministic;
    Alcotest.test_case "power law structure" `Quick test_power_law_structure;
    Alcotest.test_case "bounded degree" `Quick test_bounded_degree;
    Alcotest.test_case "stencil" `Quick test_stencil;
    Alcotest.test_case "3-tensor generators" `Quick test_tensor3_generators;
    Alcotest.test_case "datasets table" `Quick test_datasets_table;
    Alcotest.test_case "datasets memoized" `Quick test_datasets_memoized;
    Alcotest.test_case "table II renders" `Quick test_table2_renders;
    Alcotest.test_case "srng" `Quick test_srng;
  ]
