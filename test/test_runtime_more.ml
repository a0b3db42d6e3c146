(* Runtime-layer coverage not exercised elsewhere: region semantics,
   coordinate-tree printing. *)

open Spdistal_runtime

let m_cpu = Machine.make ~kind:Machine.Cpu [| 4 |]
let m_gpu = Machine.make ~kind:Machine.Gpu [| 8 |]

let test_region_semantics () =
  let r = Region.create "r" 5 0 in
  let gen = Region.generation () in
  Region.set r 2 42;
  Alcotest.(check bool) "set bumps the generation" true
    (Region.generation () > gen);
  Alcotest.(check int) "get after set" 42 (Region.get r 2);
  Alcotest.(check int) "size" 5 (Region.size r);
  let sub = Region.subregion r (Iset.interval 1 3) in
  Alcotest.(check int) "subregion shares storage" 42 (Region.get sub 2);
  Region.set sub 3 7;
  Alcotest.(check int) "writes visible through parent" 7 (Region.get r 3);
  Alcotest.(check int) "subregion size" 3 (Region.size sub);
  Alcotest.(check int) "extent is parent's" 5 (Region.extent sub);
  Alcotest.(check bool) "ids distinct across allocations" true
    ((Region.create "a" 1 0).Region.id <> (Region.create "b" 1 0).Region.id);
  Alcotest.(check int) "subregion keeps parent id" r.Region.id sub.Region.id;
  Alcotest.check_raises "subregion escaping parent"
    (Error.Error
       {
         Error.phase = Error.Partition_eval;
         kernel = Some "r";
         piece = None;
         node = None;
         what = "Region.subregion: not a subset";
       }) (fun () ->
      ignore (Region.subregion r (Iset.interval 3 9)));
  Helpers.check_float "fold sums" (42. +. 7.)
    (Region.fold (fun _ v acc -> float_of_int v +. acc) sub 0.)

let test_gpu_p2p_vs_network () =
  Alcotest.(check bool) "nvlink faster than network" true
    (Machine.p2p_time m_gpu ~intra_node:true ~bytes:1e7
    < Machine.p2p_time m_gpu ~intra_node:false ~bytes:1e7)

let test_coord_tree_pp () =
  let t =
    Spdistal_formats.Tensor.csr ~name:"B"
      (Spdistal_formats.Coo.make [| 2; 2 |]
         [ ([| 0; 0 |], 1.); ([| 1; 1 |], 2. ) ])
  in
  let s =
    Format.asprintf "%a" Spdistal_formats.Coord_tree.pp
      (Spdistal_formats.Coord_tree.of_tensor t)
  in
  Alcotest.(check bool) "renders values" true (Helpers.contains s "0=1");
  Alcotest.(check bool) "renders second row" true (Helpers.contains s "1=2")

let test_iset_stress () =
  (* Large interval algebra stays consistent. *)
  let evens = Iset.of_intervals (List.init 500 (fun i -> (4 * i, (4 * i) + 1))) in
  let all = Iset.range 2000 in
  let odds = Iset.diff all evens in
  Alcotest.(check int) "cardinalities partition" 2000
    (Iset.cardinal evens + Iset.cardinal odds);
  Alcotest.(check bool) "disjoint" true (Iset.disjoint evens odds);
  Alcotest.(check bool) "union restores" true
    (Iset.equal all (Iset.union evens odds));
  Alcotest.(check int) "interval count" 500 (Iset.interval_count evens)

let test_partition_pp () =
  let p = Partition.equal_blocks (Iset.range 6) 2 in
  let s = Format.asprintf "%a" Partition.pp p in
  Alcotest.(check bool) "labels disjoint" true (Helpers.contains s "disjoint")

let suite =
  [
    Alcotest.test_case "region semantics" `Quick test_region_semantics;
    Alcotest.test_case "nvlink vs network" `Quick test_gpu_p2p_vs_network;
    Alcotest.test_case "coord tree printing" `Quick test_coord_tree_pp;
    Alcotest.test_case "iset stress" `Quick test_iset_stress;
    Alcotest.test_case "partition printing" `Quick test_partition_pp;
  ]
