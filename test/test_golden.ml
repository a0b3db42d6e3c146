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

let suite =
  [
    Alcotest.test_case "report csv golden" `Quick test_report_csv;
    Alcotest.test_case "report text golden" `Quick test_report_text;
    Alcotest.test_case "auto report golden" `Quick test_auto_report;
    Alcotest.test_case "baseline times golden" `Quick test_baselines;
  ]
