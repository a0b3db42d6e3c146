open Spdistal_formats

let coo_small =
  Coo.make [| 4; 5 |]
    [
      ([| 0; 1 |], 1.);
      ([| 0; 3 |], 2.);
      ([| 2; 0 |], 3.);
      ([| 2; 4 |], 4.);
      ([| 3; 2 |], 5.);
    ]

let test_coo_sort_dedup () =
  let c =
    Coo.make [| 3; 3 |] [ ([| 2; 1 |], 1.); ([| 0; 0 |], 2.); ([| 2; 1 |], 3.) ]
  in
  let s = Coo.sort_dedup c in
  Alcotest.(check int) "deduped" 2 (Coo.nnz s);
  Alcotest.(check (list (pair (list int) (float 0.))))
    "sorted, summed"
    [ ([ 0; 0 ], 2.); ([ 2; 1 ], 4.) ]
    (Coo.to_alist s)

let test_coo_drop_zeros () =
  let c = Coo.make [| 2; 2 |] [ ([| 0; 0 |], 1.); ([| 0; 0 |], -1.) ] in
  Alcotest.(check int) "kept explicit zero" 1 (Coo.nnz (Coo.sort_dedup c));
  Alcotest.(check int) "dropped zero" 0
    (Coo.nnz (Coo.sort_dedup ~drop_zeros:true c))

let test_coo_permute () =
  let p = Coo.permute coo_small [| 1; 0 |] in
  Alcotest.(check (list int)) "dims swapped" [ 5; 4 ] (Array.to_list p.Coo.dims);
  Alcotest.(check bool) "transposed entry" true
    (List.mem ([ 1; 0 ], 1.) (Coo.to_alist p))

let test_coo_bounds () =
  Alcotest.check_raises "out of bounds"
    (Spdistal_runtime.Error.Error
       {
         phase = Config;
         kernel = None;
         piece = None;
         node = None;
         what = "Coo.make: coord 5 out of bounds [0,5) in dim 1";
       })
    (fun () -> ignore (Coo.make [| 4; 5 |] [ ([| 0; 5 |], 1.) ]))

let test_csr_construction () =
  let t = Tensor.csr ~name:"B" coo_small in
  Alcotest.(check int) "nnz" 5 (Tensor.nnz t);
  Helpers.check_float "get present" 4. (Tensor.get t [| 2; 4 |]);
  Helpers.check_float "get absent" 0. (Tensor.get t [| 1; 1 |]);
  Alcotest.(check int) "level extent rows" 4 (Tensor.level_extent t 0);
  Alcotest.(check int) "level extent nnz" 5 (Tensor.level_extent t 1);
  Alcotest.(check int) "leaf parent of (2,4)" 2
    ((Spdistal_ir.Level_funcs.iter_of_level t.Tensor.levels.(1))
       .Spdistal_ir.Level_funcs.li_locate 3)

let test_csc_construction () =
  let t = Tensor.csc ~name:"B" coo_small in
  Helpers.check_float "get via csc" 3. (Tensor.get t [| 2; 0 |]);
  Alcotest.(check bool) "roundtrip" true (Coo.equal coo_small (Tensor.to_coo t))

let test_dense_tensor () =
  let t = Tensor.dense_of_coo ~name:"D" coo_small in
  Alcotest.(check int) "dense stores everything" 20 (Tensor.nnz t);
  Helpers.check_float "dense get" 5. (Tensor.get t [| 3; 2 |]);
  Helpers.check_float "dense zero" 0. (Tensor.get t [| 1; 1 |])

let test_csf_3tensor () =
  let coo =
    Coo.make [| 3; 3; 3 |]
      [ ([| 0; 0; 1 |], 1.); ([| 0; 2; 2 |], 2.); ([| 2; 2; 2 |], 4. ) ]
  in
  let t =
    Tensor.of_coo ~name:"T"
      ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
      coo
  in
  Alcotest.(check int) "nnz" 3 (Tensor.nnz t);
  Alcotest.(check int) "level 1 extent (fibers)" 3 (Tensor.level_extent t 1);
  Alcotest.(check bool) "roundtrip" true (Coo.equal coo (Tensor.to_coo t))

let test_patents_format () =
  let coo =
    Coo.make [| 2; 2; 4 |]
      [ ([| 0; 0; 1 |], 1.); ([| 0; 1; 2 |], 2.); ([| 1; 1; 3 |], 3.) ]
  in
  let t =
    Tensor.of_coo ~name:"P"
      ~formats:[| Level.Dense_k; Level.Dense_k; Level.Compressed_k |]
      coo
  in
  (* Two dense levels collapse into 4 fiber positions. *)
  Alcotest.(check int) "dense pair positions" 4 (Tensor.level_extent t 1);
  Alcotest.(check bool) "roundtrip" true (Coo.equal coo (Tensor.to_coo t));
  Helpers.check_float "get" 2. (Tensor.get t [| 0; 1; 2 |])

let test_iter_matches_get () =
  let t = Helpers.rand_csr 9 7 0.3 in
  Tensor.iter_nnz t (fun coords _ v ->
      Helpers.check_float "iter value = get" v (Tensor.get t (Array.copy coords)))

let prop_roundtrip_csr =
  Helpers.qtest "COO -> CSR -> COO roundtrip" Helpers.arb_coo_matrix (fun coo ->
      let t = Tensor.csr ~name:"B" coo in
      Coo.equal coo (Tensor.to_coo t))

let prop_roundtrip_csc =
  Helpers.qtest "COO -> CSC -> COO roundtrip" Helpers.arb_coo_matrix (fun coo ->
      let t = Tensor.csc ~name:"B" coo in
      Coo.equal coo (Tensor.to_coo t))

(* Every supported matrix format, not just CSR/CSC.  Equality is on the
   non-zero multiset ([drop_zeros]): all-dense level combinations surface
   structural zeros as explicit entries, which are not part of the logical
   tensor.  Singleton only appears under a non-unique parent — elsewhere
   duplicate coordinates would collide on a shared parent position. *)
let matrix_formats =
  [
    ("dd", [| Level.Dense_k; Level.Dense_k |], [| 0; 1 |]);
    ("dc", [| Level.Dense_k; Level.Compressed_k |], [| 0; 1 |]);
    ("dc-csc", [| Level.Dense_k; Level.Compressed_k |], [| 1; 0 |]);
    ("cd", [| Level.Compressed_k; Level.Dense_k |], [| 0; 1 |]);
    ("cc", [| Level.Compressed_k; Level.Compressed_k |], [| 0; 1 |]);
    ("nc", [| Level.Compressed_nonunique_k; Level.Compressed_k |], [| 0; 1 |]);
    ("ns", [| Level.Compressed_nonunique_k; Level.Singleton_k |], [| 0; 1 |]);
    ("nn", [| Level.Compressed_nonunique_k; Level.Compressed_nonunique_k |], [| 0; 1 |]);
  ]

let nonzeros coo = Coo.to_alist (Coo.sort_dedup ~drop_zeros:true coo)

let roundtrips_all_formats coo =
  List.for_all
    (fun (name, formats, mode_order) ->
      let t = Tensor.of_coo ~name ~formats ~mode_order coo in
      nonzeros coo = nonzeros (Tensor.to_coo t))
    matrix_formats

let prop_roundtrip_all_formats =
  Helpers.qtest "COO -> every format -> COO preserves the nnz multiset"
    Helpers.arb_coo_matrix roundtrips_all_formats

let test_roundtrip_edge_inputs () =
  (* The empty tensor (the phantom-Singleton-position regression the fuzzer
     found) and duplicate coordinates (summed on construction). *)
  let empty = Coo.make [| 3; 4 |] [] in
  Alcotest.(check bool) "empty roundtrips" true (roundtrips_all_formats empty);
  List.iter
    (fun (name, formats, mode_order) ->
      let t = Tensor.of_coo ~name ~formats ~mode_order empty in
      Alcotest.(check int) ("empty " ^ name ^ " stores nothing") 0
        (List.length (nonzeros (Tensor.to_coo t))))
    matrix_formats;
  let dups =
    Coo.make [| 3; 4 |]
      [ ([| 1; 2 |], 2.); ([| 1; 2 |], 3.); ([| 0; 0 |], 1.); ([| 1; 2 |], 4. ) ]
  in
  Alcotest.(check bool) "duplicates roundtrip" true (roundtrips_all_formats dups);
  let t = Tensor.csr ~name:"B" dups in
  Helpers.check_float "duplicates summed" 9. (Tensor.get t [| 1; 2 |]);
  Alcotest.(check int) "two stored entries" 2 (Tensor.nnz t)

let prop_csr_csc_agree =
  Helpers.qtest "CSR and CSC agree pointwise" Helpers.arb_coo_matrix (fun coo ->
      let a = Tensor.csr ~name:"B" coo and b = Tensor.csc ~name:"B" coo in
      let ok = ref true in
      for i = 0 to coo.Coo.dims.(0) - 1 do
        for j = 0 to coo.Coo.dims.(1) - 1 do
          if Tensor.get a [| i; j |] <> Tensor.get b [| i; j |] then ok := false
        done
      done;
      !ok)

(* The compressed level's [li_locate] (a binary search of the monotone pos
   ranges) finds every leaf position's parent row. *)
let prop_leaf_parent =
  Helpers.qtest "leaf_parent inverts row ranges" Helpers.arb_coo_matrix
    (fun coo ->
      let t = Tensor.csr ~name:"B" coo in
      let locate =
        (Spdistal_ir.Level_funcs.iter_of_level t.Tensor.levels.(1))
          .Spdistal_ir.Level_funcs.li_locate
      in
      let ok = ref true in
      Spdistal_runtime.Region.iter
        (fun r (lo, hi) ->
          for p = lo to hi do
            if locate p <> r then ok := false
          done)
        (Tensor.pos_of t 1);
      !ok)

let test_assemble () =
  let st = Assemble.stage ~rows:3 ~count:(fun r -> r) in
  Alcotest.(check int) "total" 3 st.Assemble.total;
  let t =
    Assemble.fill st
      ~row_fill:(fun r emit ->
        for k = 0 to r - 1 do
          emit k (float_of_int (r * 10 + k))
        done)
      ~name:"A" ~dims:[| 3; 4 |]
  in
  Helpers.check_float "filled (2,1)" 21. (Tensor.get t [| 2; 1 |]);
  Helpers.check_float "absent" 0. (Tensor.get t [| 0; 0 |])

let test_assemble_underflow () =
  let st = Assemble.stage ~rows:1 ~count:(fun _ -> 2) in
  Alcotest.check_raises "underflow detected"
    (Invalid_argument "Assemble.fill: row underflow") (fun () ->
      ignore
        (Assemble.fill st ~row_fill:(fun _ emit -> emit 0 1.) ~name:"A"
           ~dims:[| 1; 3 |]))

let test_copy_pattern () =
  let b = Helpers.rand_csf 4 5 6 0.2 in
  let a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
  Alcotest.(check int) "order" 2 (Tensor.order a);
  Alcotest.(check int) "vals extent = level-1 extent"
    (Tensor.level_extent b 1) (Tensor.nnz a);
  Tensor.iter_nnz a (fun _ _ v -> Helpers.check_float "zeroed" 0. v);
  let full = Assemble.copy_pattern ~name:"A2" b in
  Alcotest.(check int) "full copy keeps nnz" (Tensor.nnz b) (Tensor.nnz full)

(* A bad level count or a kept prefix that is not a permutation of its own
   dimensions is a configuration error, typed like every other rejection.
   SpTTV over a 3-tensor stored in mode order [0; 2; 1] reaches the second. *)
let test_copy_pattern_typed_errors () =
  let config what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Spdistal_runtime.Error.Error e ->
        Alcotest.(check string)
          (what ^ ": phase") "config"
          (Spdistal_runtime.Error.phase_name e.Spdistal_runtime.Error.phase)
  in
  let b = Helpers.rand_csf 4 5 6 0.2 in
  config "levels 0" (fun () -> Assemble.copy_pattern ~name:"A" ~levels:0 b);
  config "levels 4" (fun () -> Assemble.copy_pattern ~name:"A" ~levels:4 b);
  let permuted =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
      ~mode_order:[| 0; 2; 1 |] (Helpers.rand_coo3 4 5 6 0.2)
  in
  config "spttv over mode order [0; 2; 1]" (fun () ->
      Core.Kernels.spttv_problem ~machine:(Helpers.cpu_machine 2) permuted)

let test_coord_tree () =
  let t = Tensor.csr ~name:"B" coo_small in
  let tree = Coord_tree.of_tensor t in
  Alcotest.(check int) "paths = nnz" 5 (List.length (Coord_tree.paths tree));
  (* The coordinate tree stores only non-empty paths: row 1 is absent. *)
  Alcotest.(check int) "level 0 width = rows with entries" 3
    (Coord_tree.level_width tree 0);
  Alcotest.(check int) "level 1 width = nnz" 5 (Coord_tree.level_width tree 1)

let test_dense_containers () =
  let v = Dense.vec_init "v" 4 float_of_int in
  Helpers.check_float "vec get" 2. (Dense.vec_get v 2);
  Dense.vec_set v 2 9.;
  Helpers.check_float "vec set" 9. (Dense.vec_get v 2);
  let m = Dense.mat_init "m" 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  Helpers.check_float "mat get" 5. (Dense.mat_get m 1 2);
  Helpers.check_float "mat bytes" 48. (Dense.mat_bytes m);
  let m2 = Dense.mat_create "m2" 2 3 in
  Helpers.check_float "dist" 5. (Dense.mat_dist m m2)

let suite =
  [
    Alcotest.test_case "coo sort/dedup" `Quick test_coo_sort_dedup;
    Alcotest.test_case "coo drop zeros" `Quick test_coo_drop_zeros;
    Alcotest.test_case "coo permute" `Quick test_coo_permute;
    Alcotest.test_case "coo bounds check" `Quick test_coo_bounds;
    Alcotest.test_case "csr construction" `Quick test_csr_construction;
    Alcotest.test_case "csc construction" `Quick test_csc_construction;
    Alcotest.test_case "dense tensor" `Quick test_dense_tensor;
    Alcotest.test_case "csf 3-tensor" `Quick test_csf_3tensor;
    Alcotest.test_case "patents format (D,D,C)" `Quick test_patents_format;
    Alcotest.test_case "iter matches get" `Quick test_iter_matches_get;
    prop_roundtrip_csr;
    prop_roundtrip_csc;
    prop_roundtrip_all_formats;
    Alcotest.test_case "roundtrip edge inputs" `Quick test_roundtrip_edge_inputs;
    prop_csr_csc_agree;
    prop_leaf_parent;
    Alcotest.test_case "two-phase assembly" `Quick test_assemble;
    Alcotest.test_case "assembly underflow" `Quick test_assemble_underflow;
    Alcotest.test_case "copy_pattern" `Quick test_copy_pattern;
    Alcotest.test_case "copy_pattern: typed Config errors" `Quick
      test_copy_pattern_typed_errors;
    Alcotest.test_case "coordinate tree" `Quick test_coord_tree;
    Alcotest.test_case "dense containers" `Quick test_dense_containers;
  ]
