open Spdistal_runtime

let test_equal_blocks () =
  let is = Iset.range 10 in
  let p = Partition.equal_blocks is 3 in
  Alcotest.(check int) "colors" 3 (Partition.colors p);
  Alcotest.(check bool) "disjoint" true p.Partition.disjoint;
  Alcotest.(check bool) "complete" true (Partition.is_complete p);
  (* Blocks partition the universe span. *)
  Alcotest.(check (list int))
    "block 0" [ 0; 1; 2 ]
    (Iset.elements (Partition.subset p 0))

let test_equal_blocks_sparse_universe () =
  (* Universe partition of a sparse set: members bucketed by span blocks. *)
  let is = Iset.of_list [ 0; 9 ] in
  let p = Partition.equal_blocks is 2 in
  Alcotest.(check (list int)) "left" [ 0 ] (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "right" [ 9 ] (Iset.elements (Partition.subset p 1))

let test_equal_cardinality () =
  (* Skewed set: cardinality split balances counts, unlike universe split. *)
  let is = Iset.of_intervals [ (0, 7); (100, 101) ] in
  let p = Partition.equal_cardinality is 2 in
  Alcotest.(check int) "half" 5 (Iset.cardinal (Partition.subset p 0));
  Alcotest.(check int) "other half" 5 (Iset.cardinal (Partition.subset p 1));
  Alcotest.(check bool) "complete" true (Partition.is_complete p);
  Alcotest.(check bool) "disjoint" true p.Partition.disjoint

let test_by_bounds () =
  let is = Iset.range 10 in
  let p = Partition.by_bounds is [| (0, 4); (5, 9) |] in
  Alcotest.(check bool) "disjoint" true p.Partition.disjoint;
  let p2 = Partition.by_bounds is [| (0, 6); (4, 9) |] in
  Alcotest.(check bool) "aliased bounds" false p2.Partition.disjoint

let test_by_value_ranges () =
  let values = Region.of_array "v" [| 5; 1; 9; 1; 5 |] in
  let p =
    Partition.by_value_ranges ~values (Iset.range 5) [| (0, 4); (5, 9) |]
  in
  Alcotest.(check (list int)) "small values" [ 1; 3 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "large values" [ 0; 2; 4 ]
    (Iset.elements (Partition.subset p 1))

let test_make_validates () =
  try
    ignore (Partition.make (Iset.range 3) [| Iset.interval 2 5 |]);
    Alcotest.fail "expected Error.Error for escaping subset"
  with Error.Error e ->
    Alcotest.(check string)
      "phase and message"
      "partition-eval: Partition.make: subset escapes parent"
      (Error.to_string e)

let prop_equal_blocks_laws =
  Helpers.qtest "equal_blocks: disjoint and complete"
    QCheck.(pair Helpers.arb_iset (Helpers.int_in 1 8))
    (fun (is, pieces) ->
      let p = Partition.equal_blocks is pieces in
      p.Partition.disjoint && Partition.is_complete p)

let prop_equal_cardinality_balance =
  Helpers.qtest "equal_cardinality: near-equal counts, disjoint, complete"
    QCheck.(pair Helpers.arb_iset (Helpers.int_in 1 8))
    (fun (is, pieces) ->
      let p = Partition.equal_cardinality is pieces in
      let n = Iset.cardinal is in
      let ok_balance =
        Array.for_all
          (fun s ->
            let c = Iset.cardinal s in
            c >= n / pieces && c <= (n / pieces) + 1)
          p.Partition.subsets
      in
      p.Partition.disjoint && Partition.is_complete p && ok_balance)

let suite =
  [
    Alcotest.test_case "equal_blocks" `Quick test_equal_blocks;
    Alcotest.test_case "equal_blocks on sparse universe" `Quick
      test_equal_blocks_sparse_universe;
    Alcotest.test_case "equal_cardinality" `Quick test_equal_cardinality;
    Alcotest.test_case "by_bounds" `Quick test_by_bounds;
    Alcotest.test_case "by_value_ranges" `Quick test_by_value_ranges;
    Alcotest.test_case "make validates" `Quick test_make_validates;
    prop_equal_blocks_laws;
    prop_equal_cardinality_balance;
  ]
