(* spdistal: command-line driver.

   Subcommands:
     run      -- run one kernel on one dataset/system/machine cell
     prof     -- run one kernel traced and print a Legion-Prof-style report
     show     -- print the compiled partitioning plan for a kernel
     table2   -- print the dataset inventory (paper Table II)
     fig10 | fig11 | fig12 | fig13 -- regenerate an evaluation figure
     datasets -- list the dataset analogs
     trace-check -- validate a Chrome trace-event JSON file *)

open Cmdliner
open Spdistal_runtime
open Spdistal_workloads
open Spdistal_experiments
module Trace = Spdistal_obs.Trace
module Chrome_trace = Spdistal_obs.Chrome_trace
module Report = Spdistal_obs.Report
module Metrics = Spdistal_obs.Metrics
module Log = Spdistal_obs.Log
module Slo = Spdistal_obs.Slo

let kernel_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "spmv" -> Ok Runner.Spmv
    | "spmm" -> Ok Runner.Spmm
    | "spadd3" -> Ok Runner.Spadd3
    | "sddmm" -> Ok Runner.Sddmm
    | "spttv" -> Ok Runner.Spttv
    | "mttkrp" | "spmttkrp" -> Ok Runner.Mttkrp
    | _ -> Error (`Msg (Printf.sprintf "unknown kernel %s" s))
  in
  Arg.conv (parse, fun fmt k -> Format.fprintf fmt "%s" (Runner.kernel_name k))

let system_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "spdistal" -> Ok Runner.Spdistal
    | "spdistal-batched" | "batched" -> Ok Runner.Spdistal_batched
    | "petsc" -> Ok Runner.Petsc
    | "trilinos" -> Ok Runner.Trilinos
    | "ctf" -> Ok Runner.Ctf
    | _ -> Error (`Msg (Printf.sprintf "unknown system %s" s))
  in
  Arg.conv (parse, fun fmt s -> Format.fprintf fmt "%s" (Runner.system_name s))

let kernel_arg =
  Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")

let dataset_arg =
  Arg.(
    value
    & opt string "uk-2005"
    & info [ "d"; "dataset" ] ~docv:"NAME" ~doc:"Table II dataset analog")

let system_arg =
  Arg.(
    value
    & opt system_conv Runner.Spdistal
    & info [ "s"; "system" ] ~doc:"System: spdistal, spdistal-batched, petsc, trilinos, ctf")

let pieces_arg =
  Arg.(value & opt int 4 & info [ "n"; "pieces" ] ~doc:"Nodes (CPU) or GPUs")

let gpu_arg = Arg.(value & opt bool false & info [ "gpu" ] ~doc:"Use a GPU machine")
let cols_arg = Arg.(value & opt int 32 & info [ "cols" ] ~doc:"Dense width")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ]
        ~doc:
          "OCaml domains used to simulate the pieces of each distributed \
           launch concurrently (wall-clock only; results are bit-identical \
           at every degree).  0 defers to $(b,SPDISTAL_DOMAINS), which \
           defaults to 1 (sequential).")

(* Fold the --domains option into a command's action. *)
let set_domains d = if d > 0 then Machine.set_sim_domains d

let leaf_backend_conv =
  let module CL = Spdistal_exec.Compile_leaf in
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (CL.backend_of_string s)),
      fun fmt b -> Format.fprintf fmt "%s" (CL.backend_name b) )

let leaf_backend_arg =
  Arg.(
    value
    & opt (some leaf_backend_conv) None
    & info [ "leaf-backend" ] ~docv:"BACKEND"
        ~doc:
          "Leaf-kernel execution backend: $(b,compiled) (default) runs the \
           monomorphized per-(format x expression) closures specialized at \
           compile time; $(b,interp) runs the reference interpreter.  \
           Outputs, launch records and simulated cost are bit-identical \
           across backends (the interpreter is the differential oracle).  \
           Unset defers to $(b,SPDISTAL_LEAF_BACKEND).")

(* Fold --leaf-backend into a command's action: an explicit flag overrides
   SPDISTAL_LEAF_BACKEND for the whole process. *)
let set_leaf_backend = function
  | Some b -> Spdistal_exec.Compile_leaf.set_backend b
  | None -> ()

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the deterministic fault schedule (only meaningful with \
           $(b,--fault-rate) > 0).")

let fault_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "fault-rate" ] ~docv:"RATE"
        ~doc:
          "Per-event probability of node crash, message loss and straggler \
           injection.  Recovery is priced into the simulated cost; computed \
           tensors stay bit-identical to the fault-free run.  0 (default) \
           defers to $(b,SPDISTAL_FAULTS), which defaults to no faults.")

let max_retries_arg =
  Arg.(
    value & opt int 5
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Recovery attempts per fault before the run is declared DNC \
           (with $(b,--fault-rate)).")

(* Fold the fault options into a command's action: an explicit --fault-rate
   overrides SPDISTAL_FAULTS for the whole process. *)
let set_faults seed rate retries =
  if rate > 0. then Fault.set_default (Fault.make ~seed ~rate ~retries ())

let auto_arg =
  Arg.(
    value & flag
    & info [ "auto" ]
        ~doc:
          "Replace the hand-written schedule of SpDISTAL systems with the \
           auto-scheduler's pick: candidates from the statistics-driven \
           search are priced against the cost model (no leaf execution) and \
           the cheapest — never worse than the hand schedule — is run.  \
           Baseline systems are unaffected.")

let iterations_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "i"; "iterations" ] ~docv:"N"
        ~doc:
          "Run the kernel for $(docv) iterations through the warm-start \
           execution context: partitions are computed once on the cold first \
           iteration, cached, and reused by every subsequent launch \
           (Legion's dependent-partitioning amortization).  Baseline \
           systems re-pay their full launch each iteration.  Without this \
           flag one iteration runs, its cold build counted as setup \
           (partitioning not charged).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the partition/kernel cache: with $(b,--iterations), \
           dependent partitioning is charged on every iteration \
           (the unamortized curve).  Outputs are bit-identical either way.")

let load_dataset name =
  let e = Datasets.find name in
  e.Datasets.load ()

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv) (open in \
           Perfetto or chrome://tracing).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write per-launch metrics CSV of the run to $(docv).")

(* Install an ambient trace when any observability output was requested (the
   run path reaches the interpreter through the baselines' Runner, which
   takes no explicit trace), and export it afterwards. *)
let start_trace trace_out metrics_out =
  if trace_out <> None || metrics_out <> None then begin
    let t = Trace.create () in
    Trace.set_default t;
    t
  end
  else Trace.null

let finish_trace t trace_out metrics_out =
  (match trace_out with
  | Some path ->
      Chrome_trace.write t ~path;
      Printf.printf "trace written to %s\n" path
  | None -> ());
  match metrics_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Report.to_csv (Report.of_trace t));
      close_out oc;
      Printf.printf "metrics written to %s\n" path
  | None -> ()

let run_cmd =
  let f kernel dataset system pieces gpu cols auto domains leaf_backend fseed
      frate fretries trace_out metrics_out iterations no_cache =
    set_domains domains;
    set_leaf_backend leaf_backend;
    set_faults fseed frate fretries;
    let trace = start_trace trace_out metrics_out in
    let b = load_dataset dataset in
    let machine =
      if gpu then Runner.gpu_machine ~gpus:pieces else Runner.cpu_machine ~nodes:pieces
    in
    let r =
      Runner.run ~kernel ~system ~machine ~cols ~auto ?iterations
        ~cache:(not no_cache) b
    in
    (match r.Spdistal_baselines.Common.dnc with
    | Some reason -> Printf.printf "DNC: %s\n" reason
    | None ->
        let iters =
          match iterations with
          | Some n -> Printf.sprintf " (%d iterations%s)" n
                        (if no_cache then ", no cache" else "")
          | None -> ""
        in
        Printf.printf "%s on %s, %s, %d %s: %.3f ms%s\n"
          (Runner.kernel_name kernel) dataset (Runner.system_name system) pieces
          (if gpu then "GPU(s)" else "node(s)")
          (1000. *. r.Spdistal_baselines.Common.time)
          iters);
    finish_trace trace trace_out metrics_out;
    0
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one kernel/system/dataset cell")
    Term.(
      const f $ kernel_arg $ dataset_arg $ system_arg $ pieces_arg $ gpu_arg
      $ cols_arg $ auto_arg $ domains_arg $ leaf_backend_arg $ fault_seed_arg
      $ fault_rate_arg $ max_retries_arg $ trace_out_arg $ metrics_out_arg
      $ iterations_arg $ no_cache_arg)

(* The SpDISTAL problem of one kernel cell (shared by show, prof and auto). *)
let problem_for = Runner.problem_for

let prof_cmd =
  let f kernel dataset pieces gpu cols auto domains leaf_backend fseed frate
      fretries trace_out metrics_out iterations no_cache =
    set_domains domains;
    set_leaf_backend leaf_backend;
    set_faults fseed frate fretries;
    let b = load_dataset dataset in
    let machine =
      if gpu then Runner.gpu_machine ~gpus:pieces else Runner.cpu_machine ~nodes:pieces
    in
    let problem = problem_for ~kernel ~machine ~cols b in
    let problem = if auto then Spdistal_opt.Auto.schedule problem else problem in
    let trace = Trace.create () in
    Trace.set_meta trace "dataset" dataset;
    let r =
      Core.Spdistal.run ~trace ?iterations ~cache:(not no_cache) problem
    in
    (match r.Core.Spdistal.dnc with
    | Some reason -> Printf.printf "DNC: %s\n" reason
    | None ->
        Format.printf "%s on %s: %a@.@." (Runner.kernel_name kernel) dataset
          Cost.pp r.Core.Spdistal.cost;
        Format.printf "%a@." Report.pp (Report.of_trace trace));
    finish_trace trace trace_out metrics_out;
    if r.Core.Spdistal.dnc = None then 0 else 1
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Run one SpDISTAL kernel with tracing on and print a \
          Legion-Prof-style report: critical-path breakdown per launch, \
          per-node utilization, the node-to-node communication matrix and \
          piece-time imbalance")
    Term.(
      const f $ kernel_arg $ dataset_arg $ pieces_arg $ gpu_arg $ cols_arg
      $ auto_arg $ domains_arg $ leaf_backend_arg $ fault_seed_arg
      $ fault_rate_arg $ max_retries_arg $ trace_out_arg $ metrics_out_arg
      $ iterations_arg $ no_cache_arg)

let trace_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let f path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Chrome_trace.validate s with
    | Ok () ->
        Printf.printf "%s: ok\n" path;
        0
    | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON file (well-formed, monotone \
          timestamps per track)")
    Term.(const f $ file_arg)

let show_cmd =
  let f kernel dataset pieces gpu cols =
    let b = load_dataset dataset in
    let machine =
      if gpu then Runner.gpu_machine ~gpus:pieces else Runner.cpu_machine ~nodes:pieces
    in
    print_endline (Core.Spdistal.show (problem_for ~kernel ~machine ~cols b));
    0
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print the compiled partitioning plan (cf. paper Fig. 9b)")
    Term.(const f $ kernel_arg $ dataset_arg $ pieces_arg $ gpu_arg $ cols_arg)

let table2_cmd =
  let f () =
    Format.printf "%a@." Datasets.pp_table2 ();
    0
  in
  Cmd.v (Cmd.info "table2" ~doc:"Print the dataset inventory (paper Table II)")
    Term.(const f $ const ())

let datasets_cmd =
  let f () =
    List.iter
      (fun (e : Datasets.entry) -> Printf.printf "%s\n" e.Datasets.ds_name)
      Datasets.all;
    0
  in
  Cmd.v (Cmd.info "datasets" ~doc:"List dataset analog names") Term.(const f $ const ())

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced tensors and machine sizes")

let fig_cmd name doc compute print =
  let f quick domains fseed frate fretries =
    set_domains domains;
    set_faults fseed frate fretries;
    let cells = compute ~quick () in
    Format.printf "%a@." print cells;
    0
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const f $ quick_arg $ domains_arg $ fault_seed_arg $ fault_rate_arg
      $ max_retries_arg)

let fig10_cmd =
  fig_cmd "fig10" "CPU strong scaling (paper Fig. 10)"
    (fun ~quick () -> Fig10.compute ~quick ())
    Fig10.print

let fig11_cmd =
  fig_cmd "fig11" "GPU strong scaling heatmaps (paper Fig. 11)"
    (fun ~quick () -> Fig11.compute ~quick ())
    Fig11.print

let fig12_cmd =
  fig_cmd "fig12" "GPU vs CPU heatmaps (paper Fig. 12)"
    (fun ~quick () -> Fig12.compute ~quick ())
    Fig12.print

let fig13_cmd =
  fig_cmd "fig13" "SpMV weak scaling (paper Fig. 13)"
    (fun ~quick () -> Fig13.compute ~quick ())
    Fig13.print

let ablations_cmd =
  let f domains fseed frate fretries =
    set_domains domains;
    set_faults fseed frate fretries;
    Format.printf "%a@." Spdistal_experiments.Ablations.run_all ();
    0
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Run the DESIGN.md ablation benches")
    Term.(
      const f $ domains_arg $ fault_seed_arg $ fault_rate_arg $ max_retries_arg)

let fuzz_cmd =
  let open Spdistal_fuzz in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed")
  in
  let count_arg =
    Arg.(value & opt int 200 & info [ "count" ] ~docv:"K" ~doc:"Cases to run")
  in
  let max_dim_arg =
    Arg.(
      value & opt int Gen.default_params.Gen.max_dim
      & info [ "max-dim" ] ~docv:"D" ~doc:"Largest index-variable dimension")
  in
  let max_pieces_arg =
    Arg.(
      value & opt int Gen.default_params.Gen.max_pieces
      & info [ "max-pieces" ] ~docv:"P" ~doc:"Largest 1-D machine grid")
  in
  let fault_prob_arg =
    Arg.(
      value & opt float Gen.default_params.Gen.fault_prob
      & info [ "fault-prob" ] ~docv:"P"
          ~doc:"Probability a case carries a fault schedule")
  in
  let budget_arg =
    Arg.(
      value & opt float 0.
      & info [ "budget-seconds" ] ~docv:"S"
          ~doc:"Stop after S seconds of CPU time (0 = no time box)")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print a line per case")
  in
  let inject_bug_arg =
    Arg.(
      value & flag
      & info [ "inject-bug" ]
          ~doc:
            "Flip a block bound inside the lowerer (debug hook) to exercise \
             the failure path end to end: the campaign should catch and \
             shrink it")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"SPEC" ~doc:"Check one serialized spec and exit")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Replay every *.case file in DIR and exit")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the shrunk reproducer report to FILE on failure")
  in
  let f seed count max_dim max_pieces fault_prob budget verbose inject_bug
      replay corpus out domains leaf_backend =
    set_domains domains;
    set_leaf_backend leaf_backend;
    Fault.set_default Fault.disabled;
    if inject_bug then Spdistal_ir.Lower.set_debug_flip_block_bound true;
    match (replay, corpus) with
    | Some line, _ ->
        let v = Campaign.replay_line line in
        print_endline (Check.verdict_to_string v);
        (match v with Check.Fail _ | Check.Reject _ -> 1 | _ -> 0)
    | None, Some dir ->
        let results = Campaign.replay_corpus ~dir in
        let bad =
          List.filter
            (fun (_, v) ->
              match v with Check.Fail _ | Check.Reject _ -> true | _ -> false)
            results
        in
        List.iter
          (fun (loc, v) ->
            Printf.printf "%s: %s\n" loc (Check.verdict_to_string v))
          (if verbose then results else bad);
        Printf.printf "corpus: %d cases, %d bad\n" (List.length results)
          (List.length bad);
        if bad = [] then 0 else 1
    | None, None ->
        let params =
          { Gen.default_params with Gen.max_dim; max_pieces; fault_prob }
        in
        let progress =
          if verbose then
            Some
              (fun ~index ~spec v ->
                Printf.printf "case %d: %s\n  %s\n%!" index
                  (Check.verdict_to_string v) (Spec.to_string spec))
          else None
        in
        let report =
          Campaign.run ~params ?progress ~budget_seconds:budget ~seed ~count ()
        in
        print_endline (Campaign.report_to_string report);
        (match (report.Campaign.failure, out) with
        | Some fc, Some path ->
            let oc = open_out path in
            output_string oc fc.Campaign.text;
            close_out oc;
            Printf.printf "reproducer written to %s\n" path
        | _ -> ());
        if report.Campaign.failure = None then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Randomized differential testing across the four sub-languages \
          (statements, formats, distributions, schedules), with shrinking")
    Term.(
      const f $ seed_arg $ count_arg $ max_dim_arg $ max_pieces_arg
      $ fault_prob_arg $ budget_arg $ verbose_arg $ inject_bug_arg $ replay_arg
      $ corpus_arg $ out_arg $ domains_arg $ leaf_backend_arg)

let auto_cmd =
  let open Spdistal_opt in
  let kernel_opt_arg =
    Arg.(value & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")
  in
  let sweep_arg =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full tournament over the evaluation kernels (fig10 CPU \
             sweep, fig11/fig12 GPU kernels, batched SpMM, fig13 banded \
             synthetic) instead of one cell; with $(b,--out) the table is \
             also written as auto.csv.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"Limit the sweep to two datasets per kernel.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write auto.csv under $(docv) (with $(b,--sweep)).")
  in
  let print_report kernel dataset rp =
    Printf.printf "%s on %s — candidates priced against the cost model:\n"
      (Runner.kernel_name kernel) dataset;
    List.iter
      (fun v ->
        match v.Auto.v_priced with
        | Ok pr ->
            Printf.printf "  %-12s %.6e s   (%d launches, partitioning %.3e s)\n"
              v.Auto.v_label (Price.total pr) pr.Price.pr_launches
              pr.Price.pr_part_seconds
        | Error e -> Printf.printf "  %-12s infeasible: %s\n" v.Auto.v_label e)
      rp.Auto.rp_verdicts;
    (match rp.Auto.rp_naive with
    | Ok pr -> Printf.printf "  %-12s %.6e s\n" "naive" (Price.total pr)
    | Error e -> Printf.printf "  %-12s infeasible: %s\n" "naive" e);
    match rp.Auto.rp_winner with
    | Some (c, pr) ->
        Printf.printf "winner: %s at %.6e s\n" c.Search.c_label
          (Price.total pr)
    | None -> Printf.printf "winner: none (no candidate priced)\n"
  in
  let f kernel dataset pieces gpu cols sweep quick out =
    if sweep then begin
      let rows = Auto_tournament.compute ~quick () in
      Format.printf "%a@." Auto_tournament.print rows;
      (match out with
      | Some dir ->
          let path = Auto_tournament.write ~dir rows in
          Printf.printf "csv written to %s\n" path
      | None -> ());
      if Auto_tournament.regressions rows = [] then 0 else 1
    end
    else
      match kernel with
      | None ->
          prerr_endline "spdistal auto: KERNEL required (or use --sweep)";
          2
      | Some kernel ->
          let b = load_dataset dataset in
          let machine =
            if gpu then Runner.gpu_machine ~gpus:pieces
            else Runner.cpu_machine ~nodes:pieces
          in
          let problem = problem_for ~kernel ~machine ~cols b in
          print_report kernel dataset (Auto.report problem);
          0
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:
         "Price the auto-scheduler's candidate schedules for one kernel cell \
          (or, with $(b,--sweep), the whole evaluation suite) and report the \
          winner against the hand schedule and the naive default")
    Term.(
      const f $ kernel_opt_arg $ dataset_arg $ pieces_arg $ gpu_arg $ cols_arg
      $ sweep_arg $ quick_arg $ out_arg)

let serve_cmd =
  let open Spdistal_serve in
  let trace_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Replay the workload trace in $(docv) (written by \
             $(b,--save-trace)) instead of generating one.")
  in
  let save_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"FILE"
          ~doc:"Write the (generated or replayed) workload trace to $(docv).")
  in
  let jobs_arg =
    Arg.(
      value & opt int Workload.default_gen.Workload.g_jobs
      & info [ "jobs" ] ~docv:"N" ~doc:"Jobs in the generated trace")
  in
  let tenants_arg =
    Arg.(
      value & opt int Workload.default_gen.Workload.g_tenants
      & info [ "tenants" ] ~docv:"N" ~doc:"Tenants in the generated trace")
  in
  let rate_arg =
    Arg.(
      value & opt float Workload.default_gen.Workload.g_rate
      & info [ "rate" ] ~docv:"R"
          ~doc:"Mean arrivals per simulated second (Poisson)")
  in
  let alpha_arg =
    Arg.(
      value & opt float Workload.default_gen.Workload.g_alpha
      & info [ "alpha" ] ~docv:"A" ~doc:"Zipf exponent of query popularity")
  in
  let seed_arg =
    Arg.(
      value & opt int Workload.default_gen.Workload.g_seed
      & info [ "seed" ] ~docv:"S" ~doc:"Workload generator seed")
  in
  let deadline_arg =
    Arg.(
      value & opt float Workload.default_gen.Workload.g_deadline
      & info [ "deadline" ] ~docv:"D"
          ~doc:"Mean relative deadline, simulated seconds")
  in
  let burst_conv =
    let parse s =
      match String.split_on_char ',' s with
      | [ a; b; c ] -> (
          match
            (float_of_string_opt a, float_of_string_opt b, float_of_string_opt c)
          with
          | Some a, Some b, Some c -> Ok (a, b, c)
          | _ -> Error (`Msg "burst must be START,LEN,MULT (floats)"))
      | _ -> Error (`Msg "burst must be START,LEN,MULT")
    in
    Arg.conv
      (parse, fun fmt (a, b, c) -> Format.fprintf fmt "%g,%g,%g" a b c)
  in
  let burst_arg =
    Arg.(
      value
      & opt (some burst_conv) None
      & info [ "burst" ] ~docv:"START,LEN,MULT"
          ~doc:
            "Overload window: multiply the arrival rate by MULT for LEN \
             simulated seconds starting at START.")
  in
  let nodes_arg =
    Arg.(
      value & opt int Server.default_config.Server.s_nodes
      & info [ "nodes" ] ~docv:"N" ~doc:"CPU nodes of the serving machine")
  in
  let queue_bound_arg =
    Arg.(
      value & opt int Server.default_config.Server.s_queue_bound
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admission bound on in-flight jobs; arrivals beyond it are shed \
             with a structured admission error (backpressure).")
  in
  let cache_budget_arg =
    Arg.(
      value
      & opt int
          (Option.value ~default:0
             Server.default_config.Server.s_cache_budget)
      & info [ "cache-budget" ] ~docv:"BYTES"
          ~doc:
            "LRU byte budget of the shared partition/kernel cache (0 = \
             unlimited).")
  in
  let retry_budget_arg =
    Arg.(
      value & opt int Server.default_config.Server.s_retry_budget
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:"Per-tenant re-admissions after a job-level failure (DNC)")
  in
  let blacklist_arg =
    Arg.(
      value & opt int Server.default_config.Server.s_blacklist_after
      & info [ "blacklist-after" ] ~docv:"N"
          ~doc:
            "Crash strikes before a node is blacklisted and the machine \
             rebuilt on the survivors")
  in
  let baseline_arg =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:
            "Also price the single-tenant baseline (every job cold, no \
             sharing) and report the speedup.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write a one-row CSV report to $(docv).")
  in
  let scenario_arg =
    Arg.(
      value & opt string "serve"
      & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario label of the CSV row")
  in
  let chrome_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the serve run (tenant job \
             spans + runtime spans) to $(docv).")
  in
  let metrics_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"DIR"
          ~doc:
            "Enable the live metrics plane and write its outputs under \
             $(docv): $(b,metrics.csv)/$(b,metrics.jsonl) (snapshot rows \
             scraped on the simulated clock — bit-identical across \
             $(b,--domains)), $(b,metrics.prom) (Prometheus text \
             exposition of the final state) and $(b,events.jsonl) (the \
             structured event log).")
  in
  let slo_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:
            "Evaluate the service-level objectives in $(docv) (one per \
             line, e.g. $(b,p99_ms <= 200), optional $(b,budget=F)) over \
             the scraped metric windows and exit non-zero on violation.  \
             Implies the metrics plane even without $(b,--metrics).")
  in
  let metrics_interval_arg =
    Arg.(
      value & opt float 0.05
      & info [ "metrics-interval" ] ~docv:"S"
          ~doc:"Scrape interval on the simulated clock, seconds.")
  in
  let f trace_in save_trace jobs tenants rate alpha seed deadline burst nodes
      queue_bound cache_budget retry_budget blacklist_after auto fseed frate
      fretries baseline out scenario chrome_trace metrics_dir slo_file
      metrics_interval domains leaf_backend =
    set_domains domains;
    set_leaf_backend leaf_backend;
    let workload =
      match trace_in with
      | Some path -> Workload.load path
      | None ->
          let gen =
            {
              Workload.g_seed = seed;
              g_jobs = jobs;
              g_tenants = tenants;
              g_rate = rate;
              g_alpha = alpha;
              g_deadline = deadline;
              g_burst = burst;
            }
          in
          Workload.generate ~gen ~catalog:Catalog.names ()
    in
    (match save_trace with
    | Some path ->
        Workload.save path workload;
        Printf.printf "workload trace written to %s\n" path
    | None -> ());
    let faults =
      if frate > 0. then Fault.make ~seed:fseed ~rate:frate ~retries:fretries ()
      else Fault.disabled
    in
    let cfg =
      {
        Server.s_nodes = nodes;
        s_queue_bound = queue_bound;
        s_cache_cap = Server.default_config.Server.s_cache_cap;
        s_cache_budget = (if cache_budget > 0 then Some cache_budget else None);
        s_retry_budget = retry_budget;
        s_blacklist_after = blacklist_after;
        s_faults = faults;
        s_auto = auto;
      }
    in
    (* The metrics plane: one registry + event log installed as the ambient
       defaults (every instrumented library writes to them), and a scraper
       that the serve loop ticks on its virtual clock. *)
    let want_obs = metrics_dir <> None || slo_file <> None in
    let registry = if want_obs then Metrics.create () else Metrics.null in
    let logger = if want_obs then Log.create ~level:Log.Debug () else Log.null in
    let scrape =
      if want_obs then
        Some (Metrics.Scrape.create ~interval:metrics_interval registry)
      else None
    in
    if want_obs then begin
      Metrics.set_default registry;
      Log.set_default logger
    end;
    let trace = if chrome_trace <> None then Trace.create () else Trace.null in
    let report = Server.run ~trace ?scrape ~baseline cfg workload in
    Format.printf "%a@." Server.pp_report report;
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc (Server.csv_comment ^ "\n");
        output_string oc (Server.csv_header ^ "\n");
        output_string oc (Server.csv_row ~scenario report ^ "\n");
        close_out oc;
        Printf.printf "report written to %s\n" path
    | None -> ());
    (match metrics_dir with
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let write_file name s =
          let oc = open_out (Filename.concat dir name) in
          output_string oc s;
          close_out oc
        in
        Option.iter
          (fun s ->
            write_file "metrics.csv" (Metrics.Scrape.to_csv s);
            write_file "metrics.jsonl" (Metrics.Scrape.to_jsonl s))
          scrape;
        write_file "metrics.prom" (Metrics.expose registry);
        Log.write logger ~path:(Filename.concat dir "events.jsonl");
        Printf.printf "metrics written to %s\n" dir
    | None -> ());
    finish_trace trace chrome_trace None;
    match slo_file with
    | None -> 0
    | Some path -> (
        match Slo.load path with
        | Error msg ->
            Printf.eprintf "slo: %s\n" msg;
            2
        | Ok objectives -> (
            let windows =
              match scrape with
              | Some s -> Slo.windows_of_samples (Metrics.Scrape.rows s)
              | None -> []
            in
            match Slo.evaluate objectives windows with
            | Error msg ->
                Printf.eprintf "slo: %s\n" msg;
                2
            | Ok verdicts ->
                print_endline (Slo.report verdicts);
                if Slo.ok verdicts then 0 else 1))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a multi-tenant job stream over one shared cache: bounded \
          admission, per-job deadlines priced against the cost clock, \
          per-tenant retry budgets, LRU cache byte budget and graceful \
          degradation under sustained faults")
    Term.(
      const f $ trace_in_arg $ save_trace_arg $ jobs_arg $ tenants_arg
      $ rate_arg $ alpha_arg $ seed_arg $ deadline_arg $ burst_arg $ nodes_arg
      $ queue_bound_arg $ cache_budget_arg $ retry_budget_arg $ blacklist_arg
      $ auto_arg $ fault_seed_arg $ fault_rate_arg $ max_retries_arg
      $ baseline_arg $ out_arg $ scenario_arg $ chrome_trace_arg
      $ metrics_dir_arg $ slo_file_arg $ metrics_interval_arg $ domains_arg
      $ leaf_backend_arg)

let slo_cmd =
  let csv_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CSV")
  in
  let slo_file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "slo" ] ~docv:"FILE"
          ~doc:
            "Objective file, one per line: $(b,METRIC OP BOUND) with OP one \
             of <=, >=, <, >, optionally followed by $(b,budget=F) (allowed \
             violating window fraction).  $(b,#) starts a comment.")
  in
  let select_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "select" ] ~docv:"KEY=VALUE"
          ~doc:
            "Keep only windows whose tag $(b,KEY) equals $(b,VALUE) — e.g. \
             $(b,scenario=chaos) on results/serve.csv.")
  in
  let check =
    let f csv slo select =
      let read path =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let ( let* ) r k =
        match r with
        | Error msg ->
            Printf.eprintf "slo: %s\n" msg;
            Error 2
        | Ok v -> k v
      in
      let result =
        let* objectives = Slo.load slo in
        let* windows = Slo.windows_of_csv (read csv) in
        let* windows =
          match select with
          | None -> Ok windows
          | Some kv -> (
              match String.index_opt kv '=' with
              | None -> Error "--select expects KEY=VALUE"
              | Some i ->
                  Ok
                    (Slo.select
                       ~key:(String.sub kv 0 i)
                       ~value:
                         (String.sub kv (i + 1) (String.length kv - i - 1))
                       windows))
        in
        let* verdicts = Slo.evaluate objectives windows in
        print_endline (Slo.report verdicts);
        Ok (if Slo.ok verdicts then 0 else 1)
      in
      match result with Ok code -> code | Error code -> code
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Evaluate the objectives in $(b,--slo) against a CSV: the \
            scraper's long format (results/metrics.csv, one window per \
            snapshot time) or a wide results table (results/serve.csv, one \
            window per row).  Exit 0 when every objective holds within its \
            error budget, 1 on violation, 2 on malformed input.")
      Term.(const f $ csv_arg $ slo_file_arg $ select_arg)
  in
  Cmd.group
    (Cmd.info "slo"
       ~doc:"Service-level objectives over scraped metrics and results CSVs")
    [ check ]

let main =
  Cmd.group
    (Cmd.info "spdistal" ~version:"1.0.0"
       ~doc:"SpDISTAL reproduction: distributed sparse tensor algebra compiler")
    [
      run_cmd; prof_cmd; show_cmd; auto_cmd; table2_cmd; datasets_cmd;
      fig10_cmd; fig11_cmd; fig12_cmd; fig13_cmd; ablations_cmd; fuzz_cmd;
      trace_check_cmd; serve_cmd; slo_cmd;
    ]

let () = exit (Cmd.eval' main)
