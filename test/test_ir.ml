open Spdistal_ir
module Error = Spdistal_runtime.Error

let compile_error what =
  Error.Error
    { Error.phase = Error.Compile; kernel = None; piece = None; node = None; what }

(* --- TIN ---------------------------------------------------------------- *)

let test_tin_vars () =
  Alcotest.(check (list string)) "spmv vars" [ "i"; "j" ] (Tin.index_vars Tin.spmv);
  Alcotest.(check (list string)) "spmv reductions" [ "j" ]
    (Tin.reduction_vars Tin.spmv);
  Alcotest.(check (list string)) "mttkrp vars" [ "i"; "l"; "j"; "k" ]
    (Tin.index_vars Tin.spmttkrp);
  Alcotest.(check (list string)) "sddmm reductions" [ "k" ]
    (Tin.reduction_vars Tin.sddmm)

let test_tin_shape () =
  Alcotest.(check bool) "spadd3 is pure addition" true
    (Tin.is_pure_addition Tin.spadd3);
  Alcotest.(check bool) "spmv is not" false (Tin.is_pure_addition Tin.spmv);
  Alcotest.(check int) "spadd3 rhs accesses" 3
    (List.length (Tin.rhs_accesses Tin.spadd3))

let test_tin_pp () =
  Alcotest.(check string) "spmv renders" "a(i) = B(i,j) * c(j)"
    (Tin.to_string Tin.spmv);
  Alcotest.(check string) "spadd3 renders" "A(i,j) = B(i,j) + C(i,j) + D(i,j)"
    (Tin.to_string Tin.spadd3)

let test_tin_validate () =
  let orders = [ ("a", 1); ("B", 2); ("c", 1) ] in
  let order_of n = List.assoc n orders in
  Tin.validate ~order_of Tin.spmv;
  Alcotest.check_raises "arity mismatch"
    (compile_error "Tin.validate: a accessed with 1 indices, order 3")
    (fun () -> Tin.validate ~order_of:(fun _ -> 3) Tin.spmv);
  let bad = Tin.assign "a" [ "i" ] (Tin.access "B" [ "j"; "k" ]) in
  Alcotest.check_raises "unbound lhs var"
    (compile_error "Tin.validate: lhs var i not bound on the rhs")
    (fun () ->
      Tin.validate ~order_of:(fun n -> if n = "a" then 1 else 2) bad)

(* --- Schedule ----------------------------------------------------------- *)

let test_analyze_universe () =
  let plan = Schedule.analyze Tin.spmv (Core.Kernels.spmv_row ()) in
  (match plan.Schedule.strategy with
  | Schedule.Universe_dist { var } -> Alcotest.(check string) "root var" "i" var
  | Schedule.Non_zero_dist _ -> Alcotest.fail "expected universe");
  Alcotest.(check (list string)) "dist vars" [ "io" ] plan.Schedule.dist_vars;
  Alcotest.(check bool) "parallel leaf" true (plan.Schedule.parallel_leaf <> None)

let test_analyze_nnz () =
  let plan = Schedule.analyze Tin.sddmm (Core.Kernels.sddmm_nnz ()) in
  match plan.Schedule.strategy with
  | Schedule.Non_zero_dist { tensor; fused } ->
      Alcotest.(check string) "pos tensor" "B" tensor;
      Alcotest.(check (list string)) "fused vars" [ "i"; "j" ] fused
  | Schedule.Universe_dist _ -> Alcotest.fail "expected non-zero"

let test_analyze_2d () =
  let plan = Schedule.analyze Tin.spmm (Core.Kernels.spmm_batched ()) in
  Alcotest.(check (list string)) "two dist vars" [ "io"; "jo" ]
    plan.Schedule.dist_vars;
  Alcotest.(check (option string)) "secondary" (Some "j")
    plan.Schedule.secondary_var

let test_analyze_errors () =
  let rejects label what sched =
    Alcotest.check_raises label
      (compile_error ("Schedule.analyze: " ^ what))
      (fun () ->
        ignore (Schedule.analyze Tin.spmv sched))
  in
  rejects "no distribute" "no distribute command" [];
  rejects "unknown var" "unknown variable z" [ Schedule.Distribute [ "z" ] ];
  (* Distributing a fused var without pos needs the transformation first. *)
  rejects "fused without pos"
    "distributing a fused coordinate loop requires a pos transformation first"
    [ Schedule.Fuse { f = "f"; a = "i"; b = "j" }; Schedule.Distribute [ "f" ] ];
  rejects "three distributed vars" "at most two distributed variables"
    [
      Schedule.Divide { v = "i"; outer = "io"; inner = "ii" };
      Schedule.Distribute [ "io"; "ii"; "j" ];
    ];
  rejects "2-D pos distribution"
    "2-D distribution is only supported for coordinate-value loops"
    [
      Schedule.Fuse { f = "f"; a = "i"; b = "j" };
      Schedule.Pos { v = "f"; pv = "fpos"; tensor = "B" };
      Schedule.Distribute [ "fpos"; "i" ];
    ]

let test_analyze_split_reorder () =
  (* split and reorder pass through provenance without affecting the
     distribution strategy. *)
  let sched =
    [
      Schedule.Split { v = "i"; outer = "io"; inner = "ii"; factor = 64 };
      Schedule.Reorder [ "io"; "j"; "ii" ];
      Schedule.Distribute [ "io" ];
      Schedule.Communicate { tensors = [ "a"; "B"; "c" ]; at = "io" };
      Schedule.Parallelize { v = "ii"; proc = Schedule.Cpu_thread };
    ]
  in
  let plan = Schedule.analyze Tin.spmv sched in
  (match plan.Schedule.strategy with
  | Schedule.Universe_dist { var } -> Alcotest.(check string) "root" "i" var
  | _ -> Alcotest.fail "expected universe");
  Alcotest.(check bool) "no workspace" false plan.Schedule.workspace;
  (* And the lowered program still executes correctly. *)
  let b = Helpers.rand_csr ~seed:91 10 10 0.4 in
  let prob =
    Core.Kernels.spmv_problem
      ~machine:(Core.Spdistal.machine ~kind:Spdistal_runtime.Machine.Cpu [| 2 |])
      ~schedule:sched b
  in
  let res = Core.Spdistal.run prob in
  Alcotest.(check bool) "runs" true (res.Core.Spdistal.dnc = None);
  Alcotest.(check bool) "exact" true
    (Spdistal_exec.Validate.max_error (Core.Spdistal.bindings prob) Tin.spmv
     < 1e-9)

(* --- TDN ---------------------------------------------------------------- *)

let test_tdn_blocked () =
  let stmt, sched =
    Tdn.to_schedule ~tensor:"B" ~order:2 (Tdn.Blocked { tensor_dim = 0; machine_dim = 0 })
  in
  Alcotest.(check string) "identity stmt" "B(x,y) = B(x,y)" (Tin.to_string stmt);
  let plan = Schedule.analyze stmt sched in
  match plan.Schedule.strategy with
  | Schedule.Universe_dist { var } -> Alcotest.(check string) "blocks x" "x" var
  | _ -> Alcotest.fail "expected universe"

let test_tdn_fused_nnz () =
  let stmt, sched =
    Tdn.to_schedule ~tensor:"B" ~order:3
      (Tdn.Fused_non_zero { dims = [ 0; 1; 2 ]; machine_dim = 0 })
  in
  let plan = Schedule.analyze stmt sched in
  match plan.Schedule.strategy with
  | Schedule.Non_zero_dist { tensor; fused } ->
      Alcotest.(check string) "tensor" "B" tensor;
      Alcotest.(check (list string)) "all dims fused" [ "x"; "y"; "z" ] fused
  | _ -> Alcotest.fail "expected non-zero"

let test_tdn_replicated_rejected () =
  Alcotest.check_raises "replicated has no partition"
    (compile_error "Tdn.to_schedule: Replicated has no partition")
    (fun () ->
      ignore (Tdn.to_schedule ~tensor:"c" ~order:1 Tdn.Replicated))

let test_tdn_pp () =
  Alcotest.(check string) "fused notation" "B |->^{xy->f}_~f M.0"
    (Format.asprintf "%a" (Tdn.pp ~tensor:"B")
       (Tdn.Fused_non_zero { dims = [ 0; 1 ]; machine_dim = 0 }))

(* --- Lower -------------------------------------------------------------- *)

let spmv_env =
  [
    ("a", Lower.Vec_op);
    ( "B",
      Lower.Sparse_op
        {
          formats = [| Spdistal_formats.Level.Dense_k; Spdistal_formats.Level.Compressed_k |];
          mode_order = [| 0; 1 |];
        } );
    ("c", Lower.Vec_op);
  ]

let test_lower_spmv_row () =
  let prog = Lower.lower ~env:spmv_env ~grid:[| 4 |] Tin.spmv (Core.Kernels.spmv_row ()) in
  Alcotest.(check int) "pieces" 4 (Loop_ir.pieces prog);
  (* The generated partition chain matches paper Fig. 9b: a bounds partition
     of the rows, pos copy, crd image, vals copy. *)
  Alcotest.(check (list string)) "partitions"
    [ "B1Part"; "B2PosPart"; "B2CrdPart"; "BValsPart"; "cGatherPart_j" ]
    (Loop_ir.defined_partitions prog);
  (* Exactly one distributed loop with a row-based leaf. *)
  let leafs =
    List.filter_map
      (function
        | Loop_ir.Distributed_for { leaf; _ } -> Some leaf
        | _ -> None)
      prog.Loop_ir.stmts
  in
  match leafs with
  | [ leaf ] ->
      Alcotest.(check bool) "not nnz split" false leaf.Loop_ir.nnz_split;
      Alcotest.(check bool) "no reduction" false leaf.Loop_ir.out_reduce;
      Alcotest.(check bool) "parallel" true leaf.Loop_ir.parallel
  | _ -> Alcotest.fail "expected one distributed loop"

let test_lower_spmv_nnz () =
  let prog = Lower.lower ~env:spmv_env ~grid:[| 4 |] Tin.spmv (Core.Kernels.spmv_nnz ()) in
  (* Non-zero strategy: crd bounds partition first, then preimage up. *)
  Alcotest.(check (list string)) "partitions"
    [ "B2CrdPart"; "B2PosPart"; "BValsPart"; "cGatherPart_j" ]
    (Loop_ir.defined_partitions prog);
  let leafs =
    List.filter_map
      (function
        | Loop_ir.Distributed_for { leaf; out_comm; _ } -> Some (leaf, out_comm)
        | _ -> None)
      prog.Loop_ir.stmts
  in
  match leafs with
  | [ (leaf, out_comm) ] ->
      Alcotest.(check bool) "nnz split" true leaf.Loop_ir.nnz_split;
      Alcotest.(check bool) "output reduction" true leaf.Loop_ir.out_reduce;
      Alcotest.(check bool) "output comm present" true (out_comm <> None)
  | _ -> Alcotest.fail "expected one distributed loop"

let test_lower_rejects_multi_sparse_product () =
  let env =
    [
      ("a", Lower.Vec_op);
      ( "B",
        Lower.Sparse_op
          {
            formats = [| Spdistal_formats.Level.Dense_k; Spdistal_formats.Level.Compressed_k |];
            mode_order = [| 0; 1 |];
          } );
      ( "c",
        Lower.Sparse_op
          {
            formats = [| Spdistal_formats.Level.Compressed_k |];
            mode_order = [| 0 |];
          } );
    ]
  in
  Alcotest.check_raises "two sparse operands in a product"
    (Spdistal_runtime.Error.Error
       {
         Spdistal_runtime.Error.phase = Spdistal_runtime.Error.Compile;
         kernel = None;
         piece = None;
         node = None;
         what = "Lower: products need exactly one sparse operand";
       })
    (fun () ->
      ignore (Lower.lower ~env ~grid:[| 2 |] Tin.spmv (Core.Kernels.spmv_row ())))

let test_pretty_output () =
  let prog = Lower.lower ~env:spmv_env ~grid:[| 2 |] Tin.spmv (Core.Kernels.spmv_row ()) in
  let s = Pretty.prog_to_string prog in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %s" needle) true
        (Helpers.contains s needle))
    [ "partitionByBounds"; "image"; "distributed for"; "B2PosPart" ]

(* The search's row candidates that [Lower] refuses: [Lower.check] refuses
   each with the [Compile] error [Lower.lower] raises, and accepts the row
   split of the same statement over its first variable. *)
let test_lower_check_refusals () =
  let module L = Spdistal_formats.Level in
  let csr =
    Lower.Sparse_op
      { formats = [| L.Dense_k; L.Compressed_k |]; mode_order = [| 0; 1 |] }
  and csf3 =
    Lower.Sparse_op
      {
        formats = [| L.Dense_k; L.Compressed_k; L.Compressed_k |];
        mode_order = [| 0; 1; 2 |];
      }
  in
  let row ?(ws = false) (stmt : Tin.stmt) v =
    let tensors =
      stmt.Tin.lhs.Tin.tensor
      :: List.map (fun a -> a.Tin.tensor) (Tin.rhs_accesses stmt)
    in
    [
      Schedule.Divide { v; outer = v ^ "o"; inner = v ^ "i" };
      Schedule.Distribute [ v ^ "o" ];
      Schedule.Communicate { tensors; at = v ^ "o" };
      Schedule.Parallelize { v = v ^ "i"; proc = Schedule.Cpu_thread };
    ]
    @ if ws then [ Schedule.Precompute { v = "j"; tensors = [ "A" ] } ] else []
  in
  let spmm_env = [ ("A", Lower.Mat_op); ("B", csr); ("C", Lower.Mat_op) ]
  and sddmm_env =
    [ ("A", csr); ("B", csr); ("C", Lower.Mat_op); ("D", Lower.Mat_op) ]
  and spadd3_env = [ ("A", csr); ("B", csr); ("C", csr); ("D", csr) ]
  and mttkrp_env =
    [
      ("A", Lower.Mat_op); ("B", csf3); ("C", Lower.Mat_op); ("D", Lower.Mat_op);
    ]
  in
  let merge_below =
    "Lower: a merge distributed over j, below B's outermost storage level, is \
     unsupported"
  in
  List.iter
    (fun (label, env, stmt, sched, what) ->
      (match Lower.check ~env stmt sched with
      | Ok () -> Alcotest.failf "%s: Lower.check accepted it" label
      | Error e ->
          Alcotest.check_raises
            (label ^ ": Lower.check's error")
            (compile_error what)
            (fun () -> raise (Error.Error e)));
      Alcotest.check_raises
        (label ^ ": Lower.lower raises it")
        (compile_error what)
        (fun () -> ignore (Lower.lower ~env ~grid:[| 4 |] stmt sched)))
    [
      ( "spmm row:j",
        spmm_env,
        Tin.spmm,
        row Tin.spmm "j",
        "Lower: B not indexed by distributed var j" );
      ("spadd3 row:j", spadd3_env, Tin.spadd3, row Tin.spadd3 "j", merge_below);
      ( "spadd3 row:j:ws",
        spadd3_env,
        Tin.spadd3,
        row ~ws:true Tin.spadd3 "j",
        merge_below );
      ( "spmttkrp row:l",
        mttkrp_env,
        Tin.spmttkrp,
        row Tin.spmttkrp "l",
        "Lower: B not indexed by distributed var l" );
      (* 2-D distributions: the second variable only chunks dense columns. *)
      ( "spmm batch:i,k",
        spmm_env,
        Tin.spmm,
        Schedule.batched ~tensors:[ "A"; "B"; "C" ] "i" "k",
        "Lower: 2-D distribution over k, not the output's last variable" );
      ( "spmv batch:i,i",
        spmv_env,
        Tin.spmv,
        Schedule.batched ~tensors:[ "a"; "B"; "c" ] "i" "i",
        "Lower: 2-D distribution over i on both machine dimensions" );
      ( "sddmm batch:i,j",
        sddmm_env,
        Tin.sddmm,
        Schedule.batched ~tensors:[ "A"; "B"; "C"; "D" ] "i" "j",
        "Lower: 2-D distribution over j, which indexes sparse A" );
    ];
  List.iter
    (fun (label, env, stmt) ->
      Alcotest.(check bool) (label ^ " row:i accepted") true
        (Lower.check ~env stmt (row stmt "i") = Ok ()))
    [
      ("spmm", spmm_env, Tin.spmm);
      ("spadd3", spadd3_env, Tin.spadd3);
      ("spmttkrp", mttkrp_env, Tin.spmttkrp);
    ]

(* The matched distribution of each schedule shape, written out by hand. *)
let test_matched () =
  let module L = Spdistal_formats.Level in
  let csr =
    Lower.Sparse_op
      { formats = [| L.Dense_k; L.Compressed_k |]; mode_order = [| 0; 1 |] }
  and csf3 =
    Lower.Sparse_op
      {
        formats = [| L.Dense_k; L.Compressed_k; L.Compressed_k |];
        mode_order = [| 0; 1; 2 |];
      }
  in
  let spttv_env = [ ("A", csr); ("B", csf3); ("c", Lower.Vec_op) ]
  and spmm_env = [ ("A", Lower.Mat_op); ("B", csr); ("C", Lower.Mat_op) ] in
  let blocked k = Tdn.Blocked { tensor_dim = k; machine_dim = 0 }
  and fused dims = Tdn.Fused_non_zero { dims; machine_dim = 0 } in
  let spttv_nnz vars =
    Schedule.nnz ~tensor:"B" ~tensors:[ "A"; "B"; "c" ] vars
  in
  List.iter
    (fun (label, env, stmt, sched, expected) ->
      Alcotest.(check bool) label true (Lower.matched ~env stmt sched = expected))
    [
      ( "spmv row:i",
        spmv_env,
        Tin.spmv,
        Core.Kernels.spmv_row (),
        [ ("a", blocked 0); ("B", blocked 0); ("c", Tdn.Replicated) ] );
      ( "spmv row:j",
        spmv_env,
        Tin.spmv,
        Schedule.row ~tensors:[ "a"; "B"; "c" ] "j",
        [ ("a", Tdn.Replicated); ("B", blocked 1); ("c", blocked 0) ] );
      ( "spmv nnz:B/1 (a single position-split variable is not fused)",
        spmv_env,
        Tin.spmv,
        Schedule.nnz ~tensor:"B" ~tensors:[ "a"; "B"; "c" ] [ "i" ],
        [
          ("a", blocked 0);
          ("B", Tdn.Non_zero { tensor_dim = 0; machine_dim = 0 });
          ("c", Tdn.Replicated);
        ] );
      ( "spttv nnz:B/2",
        spttv_env,
        Tin.spttv,
        spttv_nnz [ "i"; "j" ],
        [ ("A", fused [ 0; 1 ]); ("B", fused [ 0; 1 ]); ("c", Tdn.Replicated) ] );
      ( "spttv nnz:B/3",
        spttv_env,
        Tin.spttv,
        spttv_nnz [ "i"; "j"; "k" ],
        [ ("A", fused [ 0; 1 ]); ("B", fused [ 0; 1; 2 ]); ("c", Tdn.Replicated) ]
      );
      ( "spmm batch:i,j",
        spmm_env,
        Tin.spmm,
        Core.Kernels.spmm_batched (),
        [
          ("A", blocked 0);
          ("B", blocked 0);
          ("C", Tdn.Tiled { mappings = [ (1, 1) ] });
        ] );
    ];
  Alcotest.check_raises "a schedule analyze refuses"
    (compile_error "Schedule.analyze: no distribute command")
    (fun () -> ignore (Lower.matched ~env:spmv_env Tin.spmv []))

let suite =
  [
    Alcotest.test_case "tin index vars" `Quick test_tin_vars;
    Alcotest.test_case "tin shapes" `Quick test_tin_shape;
    Alcotest.test_case "tin printing" `Quick test_tin_pp;
    Alcotest.test_case "tin validation" `Quick test_tin_validate;
    Alcotest.test_case "analyze universe schedule" `Quick test_analyze_universe;
    Alcotest.test_case "analyze nnz schedule" `Quick test_analyze_nnz;
    Alcotest.test_case "analyze 2-D schedule" `Quick test_analyze_2d;
    Alcotest.test_case "analyze errors" `Quick test_analyze_errors;
    Alcotest.test_case "split and reorder" `Quick test_analyze_split_reorder;
    Alcotest.test_case "tdn blocked" `Quick test_tdn_blocked;
    Alcotest.test_case "tdn fused nnz" `Quick test_tdn_fused_nnz;
    Alcotest.test_case "tdn replicated rejected" `Quick test_tdn_replicated_rejected;
    Alcotest.test_case "tdn notation" `Quick test_tdn_pp;
    Alcotest.test_case "lower spmv row (Fig 9b)" `Quick test_lower_spmv_row;
    Alcotest.test_case "lower spmv nnz" `Quick test_lower_spmv_nnz;
    Alcotest.test_case "lower rejects sparse products" `Quick
      test_lower_rejects_multi_sparse_product;
    Alcotest.test_case "Lower.check refuses what Lower refuses" `Quick
      test_lower_check_refusals;
    Alcotest.test_case "pretty printer" `Quick test_pretty_output;
    Alcotest.test_case "matched distribution of each schedule shape" `Quick
      test_matched;
  ]
