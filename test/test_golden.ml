(* Golden-file tests for the Obs.Report renderings of a fixed-seed SpMV
   trace (3 warm-start iterations of the comm-heavy SpMV, so the goldens
   pin down the amortization table too).

   The simulated-clock side of a report is a pure function of the problem,
   so both artifacts are byte-deterministic once host-wall lines (the only
   wall-clock content) are stripped.

   Regenerate with either of
     dune exec test/test_main.exe -- golden --update-golden
     SPDISTAL_UPDATE_GOLDEN=1 dune runtest
   from the repository root, then review the diff like any other code
   change. *)

module Report = Spdistal_obs.Report

(* Set from test_main's argv ([--update-golden]) or the environment. *)
let update =
  ref
    (match Sys.getenv_opt "SPDISTAL_UPDATE_GOLDEN" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let golden_dir () =
  match Sys.getenv_opt "SPDISTAL_GOLDEN_DIR" with
  | Some d -> d
  | None ->
      (* "golden" when running under dune (cwd = _build/.../test, with the
         files declared as deps); "test/golden" when run from the root. *)
      if Sys.file_exists "golden" then "golden"
      else if Sys.file_exists "test/golden" then "test/golden"
      else Alcotest.fail "no golden directory (set SPDISTAL_GOLDEN_DIR)"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Drop the host-wall tail: the only wall-clock (hence nondeterministic)
   lines in a rendered report. *)
let strip_wall text =
  String.split_on_char '\n' text
  |> List.filter (fun line -> not (Helpers.contains line "wall"))
  |> String.concat "\n"

let fixed_report () =
  let res, trace = Helpers.run_traced ~iterations:3 (Helpers.comm_spmv ()) in
  (match res.Core.Spdistal.dnc with Some r -> Alcotest.fail r | None -> ());
  Report.of_trace trace

let check_golden name actual =
  let path = Filename.concat (golden_dir ()) name in
  if !update then begin
    write_file path actual;
    Printf.printf "golden updated: %s\n%!" path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf "missing golden %s (regenerate with --update-golden)" path
  else
    Alcotest.(check string) (name ^ " matches golden") (read_file path) actual

let test_report_csv () =
  check_golden "spmv_iter3_report.csv" (Report.to_csv (fixed_report ()))

let test_report_text () =
  check_golden "spmv_iter3_report.txt"
    (strip_wall (Format.asprintf "%a" Report.pp (fixed_report ())))

(* The auto-scheduler's pricing table over the fixed-seed kernel catalog:
   every candidate's priced cost (or infeasibility) plus the winner per
   kernel.  The prices are pure functions of the (seeded) problems, so the
   table is byte-deterministic; a diff here means the search space, the
   cost model or the tie-breaking changed. *)
let auto_report_table () =
  let open Spdistal_opt in
  let b = Buffer.create 4096 in
  Buffer.add_string b "kernel,candidate,total_s\n";
  List.iter
    (fun (name, make) ->
      let rp = Auto.report (make ()) in
      let row label = function
        | Ok pr -> Printf.sprintf "%s,%s,%.9e\n" name label (Price.total pr)
        | Error _ -> Printf.sprintf "%s,%s,infeasible\n" name label
      in
      List.iter
        (fun v -> Buffer.add_string b (row v.Auto.v_label v.Auto.v_priced))
        rp.Auto.rp_verdicts;
      Buffer.add_string b (row "naive" rp.Auto.rp_naive);
      Buffer.add_string b
        (match rp.Auto.rp_winner with
        | Some (c, pr) ->
            Printf.sprintf "%s,winner=%s,%.9e\n" name c.Search.c_label
              (Price.total pr)
        | None -> Printf.sprintf "%s,winner=none,\n" name))
    (Helpers.kernel_problems () @ Helpers.nnz_kernel_problems ());
  Buffer.contents b

let test_auto_report () =
  check_golden "auto_report.csv" (auto_report_table ())

(* Every baseline time the figures divide by, bit for bit: one row per
   system, supported kernel and machine (1, 2 and 4 CPU nodes; 1 and 4
   GPUs), run through [Runner.run] on one synthetic matrix (sized so PETSc's
   one-GPU SpMM runs out of device memory and Trilinos pages through UVM)
   and one small 3-tensor.  A time is recorded as its IEEE-754 bits, a DNC
   cell as its reason; a diff here means a baseline cost model moved. *)
let baselines_table () =
  let open Spdistal_experiments in
  let module Common = Spdistal_baselines.Common in
  let matrix =
    Spdistal_workloads.Synth.uniform ~name:"B" ~rows:10_000 ~cols:10_000
      ~nnz:30_000 ~seed:17
  in
  let tensor = Helpers.rand_csf ~seed:19 24 20 16 0.05 in
  let machines =
    [
      ("cpu1", Runner.cpu_machine ~nodes:1);
      ("cpu2", Runner.cpu_machine ~nodes:2);
      ("cpu4", Runner.cpu_machine ~nodes:4);
      ("gpu1", Runner.gpu_machine ~gpus:1);
      ("gpu4", Runner.gpu_machine ~gpus:4);
    ]
  in
  let matrix_kernels = Runner.[ Spmv; Spmm; Spadd3 ] in
  let systems =
    Runner.
      [
        (Petsc, matrix_kernels);
        (Trilinos, matrix_kernels);
        (Ctf, matrix_kernels @ [ Sddmm; Spttv; Mttkrp ]);
      ]
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "system,kernel,machine,result\n";
  List.iter
    (fun (system, kernels) ->
      List.iter
        (fun kernel ->
          let t =
            if List.mem kernel Runner.kernels_for_tensor3 then tensor
            else matrix
          in
          List.iter
            (fun (mname, machine) ->
              let r = Runner.run ~kernel ~system ~machine t in
              Printf.bprintf b "%s,%s,%s,%s\n" (Runner.system_name system)
                (Runner.kernel_name kernel) mname
                (match r.Common.dnc with
                | Some reason -> "DNC " ^ reason
                | None ->
                    Printf.sprintf "0x%016Lx"
                      (Int64.bits_of_float r.Common.time)))
            machines)
        kernels)
    systems;
  Buffer.contents b

let test_baselines () = check_golden "baselines.csv" (baselines_table ())

(* The printed partitioning-and-compute programs of every evaluation
   kernel's hand schedule (CPU row split, GPU non-zero split, batched SpMM),
   each followed by the placement program of each of its sparse operands,
   plus placements that reach the remaining initial-partition cases: a COO
   matrix (Compressed_nonunique over Singleton) under universe and non-zero
   splits, a non-zero split of a CSR matrix's dense root, and a universe
   split of a dense level below the root (the strided partition).  Lowering is a pure function of the formats, the
   schedule and the grid, so the text is byte-deterministic; a diff here
   means a plan changed. *)
let plans_text () =
  let open Spdistal_ir in
  let module R = Spdistal_experiments.Runner in
  let module S = Core.Spdistal in
  let module Operand = Spdistal_exec.Operand in
  let module Synth = Spdistal_workloads.Synth in
  let module Tensor = Spdistal_formats.Tensor in
  let matrix = Synth.uniform ~name:"B" ~rows:60 ~cols:50 ~nnz:300 ~seed:17 in
  let csf =
    Synth.tensor3_uniform ~name:"B" ~dims:[| 12; 10; 8 |] ~nnz:150 ~seed:19
  in
  let ddc =
    Synth.tensor3_dense_modes ~name:"B" ~dims:[| 4; 5; 30 |] ~nnz:150 ~seed:23
  in
  let coo = Tensor.coo_matrix ~name:"B" (Tensor.to_coo matrix) in
  let b = Buffer.create 65536 in
  let section title prog =
    Printf.bprintf b "== %s\n%s\n" title (Pretty.prog_to_string prog)
  in
  let placement label ~env ~grid name tensor tdn =
    section
      (Format.asprintf "%s: placement %a" label (Tdn.pp ~tensor:name) tdn)
      (Lower.placement_of_tdn ~env ~grid ~tensor:name
         ~order:(Tensor.order tensor) tdn)
  in
  let problem label (p : S.problem) =
    section (label ^ ": plan") (S.compile p);
    let bindings = S.bindings p in
    let env = Operand.env_of_bindings bindings in
    List.iter
      (fun (name, (slot : Operand.slot), tdn) ->
        match (slot.Operand.data, tdn) with
        | _, Tdn.Replicated -> ()
        | Operand.Sparse t, _ ->
            placement label ~env ~grid:p.S.machine.Spdistal_runtime.Machine.grid
              name t tdn
        | _ -> ())
      p.S.operands
  in
  let machines =
    [ ("cpu4", R.cpu_machine ~nodes:4); ("gpu4", R.gpu_machine ~gpus:4) ]
  in
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun kernel ->
          let inputs =
            if List.mem kernel R.kernels_for_tensor3 then
              [ ("csf", csf); ("ddc", ddc) ]
            else [ ("csr", matrix) ]
          in
          List.iter
            (fun (iname, t) ->
              problem
                (Printf.sprintf "%s %s %s" (R.kernel_name kernel) mname iname)
                (R.problem_for ~kernel ~machine ~cols:8 t))
            inputs)
        R.all_kernels)
    machines;
  problem "SpMM gpu4 csr batched"
    (R.problem_for ~kernel:R.Spmm ~machine:(R.gpu_machine ~gpus:4) ~cols:8
       ~batched:true matrix);
  let env_of name t =
    Operand.env_of_bindings [ (name, Operand.sparse t) ]
  in
  List.iter
    (fun (label, t, tdns) ->
      List.iter
        (fun tdn -> placement label ~env:(env_of "B" t) ~grid:[| 4 |] "B" t tdn)
        tdns)
    [
      ("csr", matrix, Tdn.[ Non_zero { tensor_dim = 0; machine_dim = 0 } ]);
      ( "coo",
        coo,
        Tdn.
          [
            Blocked { tensor_dim = 0; machine_dim = 0 };
            Blocked { tensor_dim = 1; machine_dim = 0 };
            Non_zero { tensor_dim = 0; machine_dim = 0 };
            Fused_non_zero { dims = [ 0; 1 ]; machine_dim = 0 };
          ] );
      ( "ddc",
        ddc,
        Tdn.
          [
            Blocked { tensor_dim = 1; machine_dim = 0 };
            Fused_non_zero { dims = [ 0; 1 ]; machine_dim = 0 };
          ] );
    ];
  Buffer.contents b

let test_plans () = check_golden "plans.txt" (plans_text ())

let suite =
  [
    Alcotest.test_case "report csv golden" `Quick test_report_csv;
    Alcotest.test_case "report text golden" `Quick test_report_text;
    Alcotest.test_case "auto report golden" `Quick test_auto_report;
    Alcotest.test_case "baseline times golden" `Quick test_baselines;
    Alcotest.test_case "printed plans golden" `Quick test_plans;
  ]
