open Spdistal_runtime
open Spdistal_experiments
module Common = Spdistal_baselines.Common

(* These tests pin the paper's *qualitative* results: who wins, where the
   crossovers and DNC cells fall. *)

let test_runner_systems () =
  Alcotest.(check int) "CPU SpMV compares four systems" 4
    (List.length (Runner.systems_for Runner.Spmv Machine.Cpu));
  Alcotest.(check bool) "GPU has no CTF" true
    (not (List.mem Runner.Ctf (Runner.systems_for Runner.Spmv Machine.Gpu)));
  Alcotest.(check bool) "GPU SpMM includes the batched variant" true
    (List.mem Runner.Spdistal_batched (Runner.systems_for Runner.Spmm Machine.Gpu))

let small_matrix =
  lazy
    (Spdistal_workloads.Synth.power_law ~name:"pl-test" ~rows:2_000 ~cols:2_000
       ~nnz:30_000 ~alpha:1.0 ~seed:77)

let test_runner_cells () =
  let b = Lazy.force small_matrix in
  let m = Runner.cpu_machine ~nodes:2 in
  List.iter
    (fun system ->
      let r = Runner.run ~kernel:Runner.Spmv ~system ~machine:m b in
      Alcotest.(check bool)
        (Runner.system_name system ^ " completes")
        true
        (r.Common.dnc = None && r.Common.time > 0.))
    (Runner.systems_for Runner.Spmv Machine.Cpu)

let test_spdistal_beats_ctf_by_orders () =
  let b = Lazy.force small_matrix in
  let m = Runner.cpu_machine ~nodes:2 in
  let spd = Runner.run ~kernel:Runner.Spmv ~system:Runner.Spdistal ~machine:m b in
  let ctf = Runner.run ~kernel:Runner.Spmv ~system:Runner.Ctf ~machine:m b in
  Alcotest.(check bool) "order-of-magnitude gap (paper: 299x median)" true
    (ctf.Common.time > 50. *. spd.Common.time)

let test_petsc_competitive_on_spmv () =
  let b = Lazy.force small_matrix in
  let m = Runner.cpu_machine ~nodes:2 in
  let spd = Runner.run ~kernel:Runner.Spmv ~system:Runner.Spdistal ~machine:m b in
  let petsc = Runner.run ~kernel:Runner.Spmv ~system:Runner.Petsc ~machine:m b in
  let ratio = petsc.Common.time /. spd.Common.time in
  Alcotest.(check bool)
    (Printf.sprintf "PETSc within hand-written range (got %.2fx)" ratio)
    true
    (ratio > 0.5 && ratio < 6.)

(* DNC pattern pins (paper Fig. 10 captions). *)
let test_ctf_dnc_patterns () =
  let music = (Spdistal_workloads.Datasets.find "freebase_music").Spdistal_workloads.Datasets.load () in
  let sampled = (Spdistal_workloads.Datasets.find "freebase_sampled").Spdistal_workloads.Datasets.load () in
  let patents = (Spdistal_workloads.Datasets.find "patents").Spdistal_workloads.Datasets.load () in
  let run k nodes t =
    Runner.run ~kernel:k ~system:Runner.Ctf ~machine:(Runner.cpu_machine ~nodes) t
  in
  (* "CTF OOM'ed on the freebase_music tensor on 1 and 2 nodes" *)
  Alcotest.(check bool) "music MTTKRP DNC at 1 node" true
    ((run Runner.Mttkrp 1 music).Common.dnc <> None);
  Alcotest.(check bool) "music MTTKRP DNC at 2 nodes" true
    ((run Runner.Mttkrp 2 music).Common.dnc <> None);
  Alcotest.(check bool) "music MTTKRP completes at 4 nodes" true
    ((run Runner.Mttkrp 4 music).Common.dnc = None);
  (* "on the freebase_sampled tensor at all node counts" *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "sampled MTTKRP DNC at %d nodes" n)
        true
        ((run Runner.Mttkrp n sampled).Common.dnc <> None))
    [ 1; 2; 4; 8; 16; 32 ];
  (* "CTF OOM'ed on the patents tensor on 1 node" (SpTTV) *)
  Alcotest.(check bool) "patents SpTTV DNC at 1 node" true
    ((run Runner.Spttv 1 patents).Common.dnc <> None);
  Alcotest.(check bool) "patents SpTTV completes at 2 nodes" true
    ((run Runner.Spttv 2 patents).Common.dnc = None);
  (* CTF completes patents MTTKRP (and competitively, paper Fig. 10f). *)
  Alcotest.(check bool) "patents MTTKRP completes at 1 node" true
    ((run Runner.Mttkrp 1 patents).Common.dnc = None)

let test_fig10_quick_pipeline () =
  let cells = Fig10.compute ~quick:true () in
  Alcotest.(check bool) "produced cells" true (List.length cells > 50);
  let s = Format.asprintf "%a" Fig10.print cells in
  Alcotest.(check bool) "renders SpMV section" true (Helpers.contains s "SpMV");
  match Fig10.median_speedup cells ~kernel:Runner.Spmv ~vs:Runner.Ctf with
  | Some m -> Alcotest.(check bool) "CTF median speedup large" true (m > 20.)
  | None -> Alcotest.fail "no median"

let test_fig12_quick_pipeline () =
  let cells = Fig12.compute ~quick:true () in
  Alcotest.(check bool) "produced cells" true (List.length cells > 0);
  let s = Format.asprintf "%a" Fig12.print cells in
  Alcotest.(check bool) "renders" true (Helpers.contains s "SpTTV")

let test_fig13_quick_pipeline () =
  let points = Fig13.compute ~quick:true () in
  let cpu_spd =
    List.filter
      (fun (p : Runner.cell) ->
        p.kind = Machine.Cpu && p.system = Runner.Spdistal)
      points
  in
  Alcotest.(check int) "two CPU points" 2 (List.length cpu_spd);
  List.iter
    (fun p ->
      Alcotest.(check bool) "completes" true (Runner.time p <> None))
    points;
  (* Weak scaling: times stay within 2x across piece counts. *)
  (match cpu_spd with
  | [ a; b ] -> (
      match (Runner.time a, Runner.time b) with
      | Some ta, Some tb ->
          Alcotest.(check bool) "flat-ish weak scaling" true
            (Float.max ta tb /. Float.min ta tb < 2.)
      | _ -> Alcotest.fail "missing times")
  | _ -> ());
  let s = Format.asprintf "%a" Fig13.print points in
  Alcotest.(check bool) "renders" true (Helpers.contains s "weak scaling")

let test_gpu_spmv_spdistal_vs_petsc () =
  (* Paper: SpDISTAL outperforms PETSc on most GPU SpMV configurations. *)
  let b = Lazy.force small_matrix in
  let m = Runner.gpu_machine ~gpus:4 in
  let spd = Runner.run ~kernel:Runner.Spmv ~system:Runner.Spdistal ~machine:m b in
  let petsc = Runner.run ~kernel:Runner.Spmv ~system:Runner.Petsc ~machine:m b in
  Alcotest.(check bool) "both complete" true
    (spd.Common.dnc = None && petsc.Common.dnc = None);
  Alcotest.(check bool) "SpDISTAL at least competitive" true
    (spd.Common.time < 1.5 *. petsc.Common.time)

let test_gpu_sddmm_fits_at_scale () =
  (* Fig. 11 SDDMM: the nnz-based GPU kernel OOMs at small GPU counts (B plus
     gathered factors exceed device memory) and completes once spread. *)
  let b = (Spdistal_workloads.Datasets.find "arabic-2005").Spdistal_workloads.Datasets.load () in
  let at gpus =
    Runner.run ~kernel:Runner.Sddmm ~system:Runner.Spdistal
      ~machine:(Runner.gpu_machine ~gpus) b
  in
  Alcotest.(check bool) "DNC at 1 GPU" true ((at 1).Common.dnc <> None);
  Alcotest.(check bool) "completes at 16 GPUs" true ((at 16).Common.dnc = None)

let test_csv_export () =
  let cells = Fig13.compute ~quick:true () in
  let csv = Csv.fig13 cells in
  Alcotest.(check bool) "header" true
    (Helpers.contains csv "kind,pieces,system,seconds");
  Alcotest.(check bool) "has cpu rows" true (Helpers.contains csv "cpu,1,SpDISTAL");
  let dir = Filename.temp_file "spdistal" "" in
  Sys.remove dir;
  let paths =
    Csv.write_all ~dir ~fig10:[] ~fig11:[] ~fig12:[] ~fig13:cells
  in
  Alcotest.(check int) "four files" 4 (List.length paths);
  List.iter (fun p -> Alcotest.(check bool) p true (Sys.file_exists p)) paths

let test_ablations_smoke () =
  let s = Format.asprintf "%a" Ablations.run_all () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (Helpers.contains s needle))
    [
      "universe vs non-zero partitions";
      "matched vs mismatched";
      "fused vs pairwise";
      "load-balanced";
      "format language";
      "COO (nonunique+singleton)";
    ]

let suite =
  [
    Alcotest.test_case "runner system lists" `Quick test_runner_systems;
    Alcotest.test_case "runner cells complete" `Quick test_runner_cells;
    Alcotest.test_case "CTF gap (Fig 10a)" `Quick test_spdistal_beats_ctf_by_orders;
    Alcotest.test_case "PETSc competitive (Fig 10a)" `Quick
      test_petsc_competitive_on_spmv;
    Alcotest.test_case "CTF DNC patterns (Fig 10 captions)" `Slow
      test_ctf_dnc_patterns;
    Alcotest.test_case "fig10 quick pipeline" `Slow test_fig10_quick_pipeline;
    Alcotest.test_case "fig12 quick pipeline" `Slow test_fig12_quick_pipeline;
    Alcotest.test_case "fig13 quick pipeline" `Slow test_fig13_quick_pipeline;
    Alcotest.test_case "GPU SpMV vs PETSc (Fig 11)" `Quick
      test_gpu_spmv_spdistal_vs_petsc;
    Alcotest.test_case "GPU SDDMM OOM boundary (Fig 11)" `Slow
      test_gpu_sddmm_fits_at_scale;
    Alcotest.test_case "ablations render" `Slow test_ablations_smoke;
    Alcotest.test_case "csv export" `Slow test_csv_export;
  ]
