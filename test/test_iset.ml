open Spdistal_runtime

let check_list = Alcotest.(check (list int))

let test_construction () =
  check_list "interval" [ 3; 4; 5 ] (Iset.elements (Iset.interval 3 5));
  check_list "empty interval" [] (Iset.elements (Iset.interval 5 3));
  check_list "range" [ 0; 1; 2 ] (Iset.elements (Iset.range 3));
  check_list "singleton" [ 7 ] (Iset.elements (Iset.singleton 7));
  check_list "of_list dedups and sorts" [ 1; 2; 9 ]
    (Iset.elements (Iset.of_list [ 9; 1; 2; 2; 1 ]));
  check_list "of_intervals merges overlaps" [ 1; 2; 3; 4; 5 ]
    (Iset.elements (Iset.of_intervals [ (3, 5); (1, 2) ]));
  Alcotest.(check int)
    "adjacent intervals merge" 1
    (Iset.interval_count (Iset.of_intervals [ (0, 2); (3, 5) ]))

let test_queries () =
  let s = Iset.of_intervals [ (0, 2); (5, 7) ] in
  Alcotest.(check bool) "mem inside" true (Iset.mem 6 s);
  Alcotest.(check bool) "mem gap" false (Iset.mem 3 s);
  Alcotest.(check bool) "mem outside" false (Iset.mem 9 s);
  Alcotest.(check int) "cardinal" 6 (Iset.cardinal s);
  Alcotest.(check int) "min" 0 (Iset.min_elt s);
  Alcotest.(check int) "max" 7 (Iset.max_elt s);
  Alcotest.(check int) "nth across gap" 5 (Iset.nth s 3);
  Alcotest.check_raises "nth out of bounds" (Invalid_argument "Iset.nth")
    (fun () -> ignore (Iset.nth s 6));
  Alcotest.(check bool) "intersects overlapping" true
    (Iset.intersects_interval s 2 4);
  Alcotest.(check bool) "intersects gap" false (Iset.intersects_interval s 3 4)

let test_operations () =
  let a = Iset.of_intervals [ (0, 4) ] and b = Iset.of_intervals [ (3, 8) ] in
  check_list "union" [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] (Iset.elements (Iset.union a b));
  check_list "inter" [ 3; 4 ] (Iset.elements (Iset.inter a b));
  check_list "diff" [ 0; 1; 2 ] (Iset.elements (Iset.diff a b));
  Alcotest.(check bool) "subset" true (Iset.subset (Iset.interval 1 2) a);
  Alcotest.(check bool) "not subset" false (Iset.subset b a);
  Alcotest.(check bool) "disjoint" true
    (Iset.disjoint (Iset.interval 0 1) (Iset.interval 5 6))

(* Reference implementation via sorted lists. *)
let model s = Iset.elements s

let prop_union =
  Helpers.qtest "union = model union"
    QCheck.(pair Helpers.arb_iset Helpers.arb_iset)
    (fun (a, b) ->
      model (Iset.union a b)
      = List.sort_uniq compare (model a @ model b))

let prop_inter =
  Helpers.qtest "inter = model inter"
    QCheck.(pair Helpers.arb_iset Helpers.arb_iset)
    (fun (a, b) ->
      model (Iset.inter a b) = List.filter (fun x -> Iset.mem x b) (model a))

let prop_diff =
  Helpers.qtest "diff = model diff"
    QCheck.(pair Helpers.arb_iset Helpers.arb_iset)
    (fun (a, b) ->
      model (Iset.diff a b)
      = List.filter (fun x -> not (Iset.mem x b)) (model a))

let prop_canonical =
  Helpers.qtest "union with self is identity" Helpers.arb_iset (fun a ->
      Iset.equal a (Iset.union a a))

let prop_cardinal =
  Helpers.qtest "cardinal counts elements" Helpers.arb_iset (fun a ->
      Iset.cardinal a = List.length (model a))

let prop_nth =
  Helpers.qtest "nth enumerates in order" Helpers.arb_iset (fun a ->
      List.mapi (fun k _ -> Iset.nth a k) (model a) = model a)

let prop_intersects_interval =
  Helpers.qtest "intersects_interval = model"
    QCheck.(triple Helpers.arb_iset (int_range 0 70) (int_range (-4) 10))
    (fun (s, lo, len) ->
      let hi = lo + len in
      Iset.intersects_interval s lo hi
      = List.exists (fun x -> lo <= x && x <= hi) (model s))

let prop_intersects_agrees_with_inter =
  Helpers.qtest "intersects_interval = non-empty inter"
    QCheck.(triple Helpers.arb_iset (int_range 0 70) (int_range 0 10))
    (fun (s, lo, len) ->
      let hi = lo + len in
      Iset.intersects_interval s lo hi
      = not (Iset.is_empty (Iset.inter s (Iset.interval lo hi))))

let test_edge_cases () =
  let e = Iset.empty in
  check_list "union with empty" [ 1; 2 ]
    (Iset.elements (Iset.union e (Iset.interval 1 2)));
  check_list "diff from empty" [] (Iset.elements (Iset.diff e (Iset.interval 1 2)));
  check_list "diff of empty rhs" [ 1; 2 ]
    (Iset.elements (Iset.diff (Iset.interval 1 2) e));
  check_list "inter with empty" [] (Iset.elements (Iset.inter (Iset.interval 1 2) e));
  Alcotest.(check bool)
    "intersects on empty set" false (Iset.intersects_interval e 0 10);
  Alcotest.(check bool)
    "intersects with inverted interval" false
    (Iset.intersects_interval (Iset.interval 0 10) 5 3);
  Alcotest.(check bool)
    "intersects at a shared endpoint" true
    (Iset.intersects_interval (Iset.interval 0 4) 4 8);
  (* Adjacent intervals: union coalesces, inter stays empty, diff splits. *)
  let u = Iset.union (Iset.interval 0 3) (Iset.interval 4 7) in
  Alcotest.(check int) "adjacent union coalesces" 1 (Iset.interval_count u);
  check_list "adjacent inter is empty" []
    (Iset.elements (Iset.inter (Iset.interval 0 3) (Iset.interval 4 7)));
  let d = Iset.diff (Iset.interval 0 7) (Iset.interval 4 4) in
  Alcotest.(check int) "punching a hole splits" 2 (Iset.interval_count d);
  check_list "hole contents" [ 0; 1; 2; 3; 5; 6; 7 ] (Iset.elements d)

(* Stack-safety at partition scale: 10^6 disjoint intervals.  [union]'s merge
   used to be non-tail-recursive and overflowed the stack well below this. *)
let big_iset ~offset ~n =
  Iset.of_intervals (List.init n (fun i -> ((6 * i) + offset, (6 * i) + offset + 1)))

let test_large_interval_lists () =
  let n = 1_000_000 in
  let a = big_iset ~offset:0 ~n and b = big_iset ~offset:3 ~n in
  let u = Iset.union a b in
  Alcotest.(check int) "union interval count" (2 * n) (Iset.interval_count u);
  Alcotest.(check int) "union cardinal" (4 * n) (Iset.cardinal u);
  Alcotest.(check bool) "inter of disjoint" true (Iset.is_empty (Iset.inter a b));
  Alcotest.(check bool) "diff recovers left operand" true
    (Iset.equal a (Iset.diff u b));
  Alcotest.(check bool) "union with self is identity" true
    (Iset.equal a (Iset.union a a))

let prop_union_inter_large =
  Helpers.qtest ~count:3 "union/inter/diff identities at 1e6 intervals"
    QCheck.(pair (int_range 0 2) (int_range 3 4))
    (fun (off_a, off_b) ->
      let n = 1_000_000 in
      let a = big_iset ~offset:off_a ~n and b = big_iset ~offset:off_b ~n in
      let u = Iset.union a b in
      Iset.cardinal u = Iset.cardinal a + Iset.cardinal b - Iset.cardinal (Iset.inter a b)
      && Iset.equal u (Iset.union (Iset.diff u b) b)
      && Iset.subset a u && Iset.subset b u)

let prop_diff_union_partition =
  Helpers.qtest "diff and inter partition the left operand"
    QCheck.(pair Helpers.arb_iset Helpers.arb_iset)
    (fun (a, b) ->
      Iset.equal a (Iset.union (Iset.diff a b) (Iset.inter a b)))

(* Raw interval streams, including empty (inverted) and overlapping ones. *)
let arb_intervals =
  QCheck.(
    list_of_size Gen.(int_range 0 20)
      (map (fun (lo, len) -> (lo, lo + len)) (pair (int_range 0 60) (int_range (-2) 8))))

let built ivs =
  let b = Iset.builder () in
  List.iter (fun (lo, hi) -> Iset.add_interval b lo hi) ivs;
  Iset.build b

let prop_builder_sorted =
  Helpers.qtest "builder = of_intervals on sorted input" arb_intervals
    (fun ivs ->
      let ivs = List.sort compare ivs in
      Iset.equal (built ivs) (Iset.of_intervals ivs))

let prop_builder_shuffled =
  Helpers.qtest "builder = of_intervals on shuffled input" arb_intervals
    (fun ivs -> Iset.equal (built ivs) (Iset.of_intervals ivs))

(* An in-order prefix, whose intervals extend or close the open run, then
   an arbitrary tail, which may start before it: both builder modes and the
   switch between them.  Compared as interval lists, not through
   [Iset.equal]. *)
let prop_builder_prefix_then_tail =
  Helpers.qtest "builder = of_intervals on in-order prefix then any tail"
    QCheck.(pair arb_intervals arb_intervals)
    (fun (prefix, tail) ->
      let ivs = List.sort compare prefix @ tail in
      Iset.to_intervals (built ivs) = Iset.to_intervals (Iset.of_intervals ivs))

let prop_max_elt =
  Helpers.qtest "max_elt is the last element" Helpers.arb_iset (fun a ->
      match List.rev (model a) with
      | [] -> Iset.is_empty a
      | x :: _ -> Iset.max_elt a = x)

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "queries" `Quick test_queries;
    Alcotest.test_case "operations" `Quick test_operations;
    Alcotest.test_case "edge cases" `Quick test_edge_cases;
    Alcotest.test_case "1e6-interval lists" `Quick test_large_interval_lists;
    prop_union_inter_large;
    prop_union;
    prop_inter;
    prop_diff;
    prop_canonical;
    prop_cardinal;
    prop_nth;
    prop_diff_union_partition;
    prop_intersects_interval;
    prop_intersects_agrees_with_inter;
    prop_builder_sorted;
    prop_builder_shuffled;
    prop_max_elt;
    prop_builder_prefix_then_tail;
  ]
