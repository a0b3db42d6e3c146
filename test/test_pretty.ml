(* Pretty-printer coverage: the rendered plans are the user-facing artifact
   (paper Fig. 9b), so their shape is pinned here. *)

open Spdistal_ir

let spmv_env =
  [
    ("a", Lower.Vec_op);
    ( "B",
      Lower.Sparse_op
        {
          formats =
            [| Spdistal_formats.Level.Dense_k; Spdistal_formats.Level.Compressed_k |];
          mode_order = [| 0; 1 |];
        } );
    ("c", Lower.Vec_op);
  ]

let render sched =
  Pretty.prog_to_string (Lower.lower ~env:spmv_env ~grid:[| 2 |] Tin.spmv sched)

let test_row_plan_shape () =
  let s = render (Core.Kernels.spmv_row ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (Helpers.contains s needle))
    [
      "Coloring B1Coloring = {};";
      "for (int io = 0; io < 2; io++)";
      "B1Coloring[color] = {io * B[0].dim / 2, (io + 1) * B[0].dim / 2 - 1};";
      "auto B1Part = partitionByBounds(B1Coloring, B[0].dom);";
      "auto B2PosPart = copy(B1Part);";
      "auto B2CrdPart = image(B[1].pos, B2PosPart, B[1].crd);";
      "auto BValsPart = copy(B2CrdPart);";
      "imageValues(B[1].crd, B2CrdPart, c[0].dom)";
      "distributed for io in pieces";
      "leaf: a(i) = B(i,j) * c(j) over B [parallel]";
    ]

let test_nnz_plan_shape () =
  let s = render (Core.Kernels.spmv_nnz ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (Helpers.contains s needle))
    [
      "B.nnz";
      "auto B2CrdPart = partitionByBounds(B2Coloring, B[1].crd);";
      "auto B2PosPart = preimage(B[1].pos, B2CrdPart);";
      "[nnz-split]";
      "// output: communicate a by dim 0[B2PosPart] (reduction)";
    ]

let test_aexpr_precedence () =
  let open Loop_ir in
  let e = Mul (Add (Color_var "c", Int 1), Dim (Nnz_of "B")) in
  Alcotest.(check string) "parenthesized" "(c + 1) * B.nnz"
    (Format.asprintf "%a" Pretty.pp_aexpr e);
  let e2 = Sub (Div (Color_var "c", Int 2), Int 1) in
  Alcotest.(check string) "division" "c / 2 - 1"
    (Format.asprintf "%a" Pretty.pp_aexpr e2)

let test_rref_rendering () =
  let open Loop_ir in
  Alcotest.(check string) "pos" "B[1].pos"
    (Format.asprintf "%a" Pretty.pp_rref (Pos_r ("B", 1)));
  Alcotest.(check string) "dom" "c[0].dom"
    (Format.asprintf "%a" Pretty.pp_rref (Dom_r ("c", 0)))

let test_schedule_rendering () =
  let s = Format.asprintf "%a" Schedule.pp (Core.Kernels.spmv_nnz ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (Helpers.contains s needle))
    [ ".fuse(ij, i, j)"; ".pos(ij, fp, B)"; ".divide(fp, fpo, fpi, M)";
      ".distribute(fpo)"; ".communicate({a, B, c}, fpo)";
      ".parallelize(fpi, CPUThread)" ]

(* --- Sub-language round-trips -------------------------------------------
   TIN statements and schedules print to a textual form the fuzzer replays
   through [of_string]; parsing must invert printing on every stock kernel,
   and the printed forms themselves are pinned as goldens. *)

let all_stmts =
  [
    ("spmv", Tin.spmv);
    ("spmm", Tin.spmm);
    ("spadd3", Tin.spadd3);
    ("sddmm", Tin.sddmm);
    ("spttv", Tin.spttv);
    ("mttkrp", Tin.spmttkrp);
  ]

let test_tin_roundtrip () =
  List.iter
    (fun (name, s) ->
      let txt = Tin.to_string s in
      Alcotest.(check bool)
        (name ^ " reparses to the same AST")
        true
        (Tin.of_string_exn txt = s);
      Alcotest.(check string)
        (name ^ " reprints identically")
        txt
        (Tin.to_string (Tin.of_string_exn txt)))
    all_stmts

let test_tin_golden () =
  Alcotest.(check string) "spmv" "a(i) = B(i,j) * c(j)" (Tin.to_string Tin.spmv);
  Alcotest.(check string) "sddmm" "A(i,j) = B(i,j) * C(i,k) * D(k,j)"
    (Tin.to_string Tin.sddmm);
  Alcotest.(check string) "spadd3" "A(i,j) = B(i,j) + C(i,j) + D(i,j)"
    (Tin.to_string Tin.spadd3)

let test_tin_parse_errors () =
  List.iter
    (fun bad ->
      match Tin.of_string bad with
      | Ok _ -> Alcotest.fail ("parsed: " ^ bad)
      | Error _ -> ())
    [ ""; "a(i)"; "a(i) ="; "a(i) = B(i,"; "a(i) = B(i,j) *"; "= B(i,j)" ]

(* The raising parsers fail with a typed error carrying [of_string]'s
   text: [Compile] for statements and schedules, [Config] for spec lines. *)
let test_of_string_exn_typed () =
  let module Error = Spdistal_runtime.Error in
  let check what phase of_string of_string_exn bad =
    let m =
      match of_string bad with
      | Ok _ -> Alcotest.failf "%s parsed %S" what bad
      | Error m -> m
    in
    match of_string_exn bad with
    | _ -> Alcotest.failf "%s: of_string_exn returned on %S" what bad
    | exception Error.Error e ->
        Alcotest.(check string) (what ^ " phase") (Error.phase_name phase)
          (Error.phase_name e.Error.phase);
        Alcotest.(check bool) (what ^ " keeps the text") true
          (Helpers.contains e.Error.what m)
  in
  check "Tin" Error.Compile Tin.of_string Tin.of_string_exn "a(i) = B(i,";
  check "Schedule" Error.Compile Schedule.of_string Schedule.of_string_exn
    ".divide(i, io";
  check "Spec" Error.Config Spdistal_fuzz.Spec.of_string
    Spdistal_fuzz.Spec.of_string_exn "vars=i"

let all_schedules =
  [
    ("spmv-row", Core.Kernels.spmv_row ());
    ("spmv-row-gpu", Core.Kernels.spmv_row ~proc:Schedule.Gpu_thread ());
    ("spmv-nnz", Core.Kernels.spmv_nnz ());
    ("spadd3-workspace", Core.Kernels.spadd3_workspace ());
    ("spmm-batched", Core.Kernels.spmm_batched ());
    ("mttkrp-nnz", Core.Kernels.mttkrp_nnz ());
  ]

let test_schedule_roundtrip () =
  List.iter
    (fun (name, s) ->
      let txt = Schedule.to_string s in
      Alcotest.(check bool)
        (name ^ " reparses to the same schedule")
        true
        (Schedule.of_string_exn txt = s);
      Alcotest.(check string)
        (name ^ " reprints identically")
        txt
        (Schedule.to_string (Schedule.of_string_exn txt)))
    all_schedules

let test_schedule_golden () =
  Alcotest.(check string) "spmv row schedule"
    ".divide(i, io, ii, M)\n.distribute(io)\n.communicate({a, B, c}, io)\n\
     .parallelize(ii, CPUThread)"
    (Schedule.to_string (Core.Kernels.spmv_row ()));
  Alcotest.(check string) "spmm batched schedule"
    ".divide(i, io, ii, M)\n.divide(j, jo, ji, M)\n.distribute(io, jo)\n\
     .communicate({A, B, C}, jo)\n.parallelize(ii, CPUThread)"
    (Schedule.to_string (Core.Kernels.spmm_batched ()))

let suite =
  [
    Alcotest.test_case "row plan renders like Fig 9b" `Quick test_row_plan_shape;
    Alcotest.test_case "nnz plan renders" `Quick test_nnz_plan_shape;
    Alcotest.test_case "aexpr precedence" `Quick test_aexpr_precedence;
    Alcotest.test_case "rref rendering" `Quick test_rref_rendering;
    Alcotest.test_case "schedule rendering" `Quick test_schedule_rendering;
    Alcotest.test_case "tin roundtrip" `Quick test_tin_roundtrip;
    Alcotest.test_case "tin golden strings" `Quick test_tin_golden;
    Alcotest.test_case "tin parse errors" `Quick test_tin_parse_errors;
    Alcotest.test_case "of_string_exn raises typed errors" `Quick
      test_of_string_exn_typed;
    Alcotest.test_case "schedule roundtrip" `Quick test_schedule_roundtrip;
    Alcotest.test_case "schedule golden strings" `Quick test_schedule_golden;
  ]
