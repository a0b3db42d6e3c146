(* spdistal: command-line driver.

   Subcommands:
     run         -- run one kernel on one dataset/system/machine cell
     prof        -- run one kernel traced and print a Legion-Prof-style report
     show        -- print the compiled partitioning plan for a kernel
     auto        -- price the auto-scheduler's candidates for one cell, or
                    the whole evaluation suite with --sweep
     table2      -- print the dataset inventory (paper Table II)
     datasets    -- list the dataset analogs
     fig10 | fig11 | fig12 | fig13 -- regenerate an evaluation figure
     ablations   -- run the DESIGN.md ablation benches
     fuzz        -- randomized differential testing, with shrinking
     trace-check -- validate a Chrome trace-event JSON file
     serve       -- serve a multi-tenant job stream over one shared cache
     slo check   -- evaluate service-level objectives over a metrics CSV *)

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

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
           across backends (the interpreter is the differential oracle).")

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

(* The settings terms.  Each applies its flags for the whole process when
   the command line is evaluated, before the command's action runs. *)

let set_domains d = if d > 0 then Machine.set_sim_domains d
let domains = Term.(const set_domains $ domains_arg)

let set_leaf_backend = Option.iter Spdistal_exec.Compile_leaf.set_backend
let leaf_backend = Term.(const set_leaf_backend $ leaf_backend_arg)

(* The fault schedule of the fault flags; [None] without a positive
   --fault-rate. *)
let faults =
  let make seed rate retries =
    if rate > 0. then Some (Fault.make ~seed ~rate ~retries ()) else None
  in
  Term.(const make $ fault_seed_arg $ fault_rate_arg $ max_retries_arg)

(* An explicit --fault-rate overrides SPDISTAL_FAULTS. *)
let default_faults = Term.(const (Option.iter Fault.set_default) $ faults)

(* [command name ~doc ~settings action]: [action] is the exit-code term,
   evaluated after [settings]. *)
let command ?(settings = []) name ~doc action =
  Cmd.v (Cmd.info name ~doc)
    (List.fold_right (fun s t -> Term.(const (fun () x -> x) $ s $ t)) settings
       action)

(* One (kernel, dataset, machine) cell: KERNEL -d -n --gpu --cols.  The
   machine and tensor are built here and nowhere else; [Datasets.find],
   [Machine.make] and [Runner] type-check what is built. *)
type cell = {
  kernel : Runner.kernel;
  dataset : string;
  machine : Machine.t;
  inputs : Core.Kernels.inputs;
}

(* -d -n --gpu --cols as a cell of any kernel: [auto --sweep] builds none. *)
let cell_of =
  let make dataset pieces gpu cols kernel =
    let tensor = (Datasets.find dataset).Datasets.load () in
    let machine =
      if gpu then Runner.gpu_machine ~gpus:pieces
      else Runner.cpu_machine ~nodes:pieces
    in
    { kernel; dataset; machine; inputs = Core.Kernels.inputs kernel ~cols tensor }
  in
  Term.(const make $ dataset_arg $ pieces_arg $ gpu_arg $ cols_arg)

let cell = Term.(cell_of $ kernel_arg)

(* The SpDISTAL problem of a cell (show, prof and auto). *)
let problem c = Runner.problem ~machine:c.machine c.inputs

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

(* How run and prof execute a cell and where they export its trace. *)
type runs = {
  trace_out : string option;
  metrics_out : string option;
  iterations : int option;
  no_cache : bool;
}

let runs =
  let make trace_out metrics_out iterations no_cache =
    { trace_out; metrics_out; iterations; no_cache }
  in
  Term.(
    const make $ trace_out_arg $ metrics_out_arg $ iterations_arg
    $ no_cache_arg)

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
      write_file path (Report.to_csv (Report.of_trace t));
      Printf.printf "metrics written to %s\n" path
  | None -> ()

let run_cmd =
  let f c system auto o =
    let trace = start_trace o.trace_out o.metrics_out in
    let r =
      Runner.run ~system ~machine:c.machine ~auto ?iterations:o.iterations
        ~cache:(not o.no_cache) c.inputs
    in
    (match r.Spdistal_baselines.Common.dnc with
    | Some reason -> Printf.printf "DNC: %s\n" reason
    | None ->
        let iters =
          match o.iterations with
          | Some n -> Printf.sprintf " (%d iterations%s)" n
                        (if o.no_cache then ", no cache" else "")
          | None -> ""
        in
        Printf.printf "%s on %s, %s, %d %s: %.3f ms%s\n"
          (Runner.kernel_name c.kernel) c.dataset (Runner.system_name system)
          (Machine.pieces c.machine)
          (if c.machine.Machine.kind = Machine.Gpu then "GPU(s)" else "node(s)")
          (1000. *. r.Spdistal_baselines.Common.time)
          iters);
    finish_trace trace o.trace_out o.metrics_out;
    0
  in
  command "run" ~doc:"Run one kernel/system/dataset cell"
    ~settings:[ domains; leaf_backend; default_faults ]
    Term.(const f $ cell $ system_arg $ auto_arg $ runs)

let prof_cmd =
  let f c auto o =
    let problem = problem c in
    let problem = if auto then Spdistal_opt.Auto.schedule problem else problem in
    let trace = Trace.create () in
    Trace.set_meta trace "dataset" c.dataset;
    let r =
      Core.Spdistal.run ~trace ?iterations:o.iterations
        ~cache:(not o.no_cache) problem
    in
    (match r.Core.Spdistal.dnc with
    | Some reason -> Printf.printf "DNC: %s\n" reason
    | None ->
        Format.printf "%s on %s: %a@.@." (Runner.kernel_name c.kernel) c.dataset
          Cost.pp r.Core.Spdistal.cost;
        Format.printf "%a@." Report.pp (Report.of_trace trace));
    finish_trace trace o.trace_out o.metrics_out;
    if r.Core.Spdistal.dnc = None then 0 else 1
  in
  command "prof"
    ~doc:
      "Run one SpDISTAL kernel with tracing on and print a \
       Legion-Prof-style report: critical-path breakdown per launch, \
       per-node utilization, the node-to-node communication matrix and \
       piece-time imbalance"
    ~settings:[ domains; leaf_backend; default_faults ]
    Term.(const f $ cell $ auto_arg $ runs)

let trace_check_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let f path =
    match Chrome_trace.validate (read_file path) with
    | Ok () ->
        Printf.printf "%s: ok\n" path;
        0
    | Error msg ->
        Printf.eprintf "%s: %s\n" path msg;
        1
  in
  command "trace-check"
    ~doc:
      "Validate a Chrome trace-event JSON file (well-formed, monotone \
       timestamps per track)"
    Term.(const f $ file_arg)

let show_cmd =
  let f c =
    print_endline (Core.Spdistal.show (problem c));
    0
  in
  command "show" ~doc:"Print the compiled partitioning plan (cf. paper Fig. 9b)"
    Term.(const f $ cell)

let table2_cmd =
  let f () =
    Format.printf "%a@." Datasets.pp_table2 ();
    0
  in
  command "table2" ~doc:"Print the dataset inventory (paper Table II)"
    Term.(const f $ const ())

let datasets_cmd =
  let f () =
    List.iter
      (fun (e : Datasets.entry) -> Printf.printf "%s\n" e.Datasets.ds_name)
      Datasets.all;
    0
  in
  command "datasets" ~doc:"List dataset analog names" Term.(const f $ const ())

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced tensors and machine sizes")

(* A figure, computed at [quick] (--quick, or a constant for a command
   without the flag) and printed. *)
let fig_cmd name doc quick print =
  let f quick =
    Format.printf "%a@." print quick;
    0
  in
  command name ~doc ~settings:[ domains; default_faults ] Term.(const f $ quick)

let fig10_cmd =
  fig_cmd "fig10" "CPU strong scaling (paper Fig. 10)" quick_arg
    (fun fmt quick -> Fig10.print fmt (Fig10.compute ~quick ()))

let fig11_cmd =
  fig_cmd "fig11" "GPU strong scaling heatmaps (paper Fig. 11)" quick_arg
    (fun fmt quick -> Fig11.print fmt (Fig11.compute ~quick ()))

let fig12_cmd =
  fig_cmd "fig12" "GPU vs CPU heatmaps (paper Fig. 12)" quick_arg
    (fun fmt quick -> Fig12.print fmt (Fig12.compute ~quick ()))

let fig13_cmd =
  fig_cmd "fig13" "SpMV weak scaling (paper Fig. 13)" quick_arg
    (fun fmt quick -> Fig13.print fmt (Fig13.compute ~quick ()))

let ablations_cmd =
  fig_cmd "ablations" "Run the DESIGN.md ablation benches" (Term.const false)
    (fun fmt _ -> Ablations.run_all fmt ())

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
      replay corpus out =
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
            write_file path fc.Campaign.text;
            Printf.printf "reproducer written to %s\n" path
        | _ -> ());
        if report.Campaign.failure = None then 0 else 1
  in
  command "fuzz"
    ~doc:
      "Randomized differential testing across the four sub-languages \
       (statements, formats, distributions, schedules), with shrinking"
    ~settings:[ domains; leaf_backend ]
    Term.(
      const f $ seed_arg $ count_arg $ max_dim_arg $ max_pieces_arg
      $ fault_prob_arg $ budget_arg $ verbose_arg $ inject_bug_arg $ replay_arg
      $ corpus_arg $ out_arg)

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
  let print_report c rp =
    Printf.printf "%s on %s — candidates priced against the cost model:\n"
      (Runner.kernel_name c.kernel) c.dataset;
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
  let f kernel cell_of sweep quick out =
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
          let c = cell_of kernel in
          print_report c (Auto.report (problem c));
          0
  in
  command "auto"
    ~doc:
      "Price the auto-scheduler's candidate schedules for one kernel cell \
       (or, with $(b,--sweep), the whole evaluation suite) and report the \
       winner against the hand schedule and the naive default"
    Term.(const f $ kernel_opt_arg $ cell_of $ sweep_arg $ quick_arg $ out_arg)

let ( let* ) = Result.bind

(* The SLO verdicts of [serve --slo] and [slo check]: the report and exit 0
   when every objective holds, 1 on a violation; a malformed input is one
   stderr line and exit 2. *)
let slo_exit = function
  | Ok verdicts ->
      print_endline (Slo.report verdicts);
      if Slo.ok verdicts then 0 else 1
  | Error msg ->
      Printf.eprintf "slo: %s\n" msg;
      2

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
  let cache_budget =
    let check = function
      | 0 -> None
      | b when b > 0 -> Some b
      | b ->
          Error.fail Error.Config
            "--cache-budget must be >= 0 (0 = unlimited), got %d" b
    in
    Term.(const check $ cache_budget_arg)
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
  (* Checked here, typed: [Metrics] sits below [Error]. *)
  let metrics_interval =
    let check s =
      if not (s > 0. && Float.is_finite s) then
        Error.fail Error.Config
          "--metrics-interval must be positive and finite, got %g" s;
      s
    in
    Term.(const check $ metrics_interval_arg)
  in
  let f trace_in save_trace jobs tenants rate alpha seed deadline burst nodes
      queue_bound cache_budget retry_budget blacklist_after auto faults
      baseline out scenario chrome_trace metrics_dir slo_file metrics_interval
      =
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
    Option.iter
      (fun path ->
        Workload.save path workload;
        Printf.printf "workload trace written to %s\n" path)
      save_trace;
    let cfg =
      {
        Server.default_config with
        Server.s_nodes = nodes;
        s_queue_bound = queue_bound;
        s_cache_budget = cache_budget;
        s_retry_budget = retry_budget;
        s_blacklist_after = blacklist_after;
        s_faults = Option.value faults ~default:Fault.disabled;
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
    Option.iter
      (fun path ->
        write_file path
          (String.concat "\n"
             [
               Server.csv_comment; Server.csv_header;
               Server.csv_row ~scenario report; "";
             ]);
        Printf.printf "report written to %s\n" path)
      out;
    (match metrics_dir with
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let write_file name s = write_file (Filename.concat dir name) s in
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
    | Some path ->
        let windows =
          match scrape with
          | Some s -> Slo.windows_of_samples (Metrics.Scrape.rows s)
          | None -> []
        in
        slo_exit
          (let* objectives = Slo.load path in
           Slo.evaluate objectives windows)
  in
  command "serve"
    ~doc:
      "Serve a multi-tenant job stream over one shared cache: bounded \
       admission, per-job deadlines priced against the cost clock, \
       per-tenant retry budgets, LRU cache byte budget and graceful \
       degradation under sustained faults"
    ~settings:[ domains; leaf_backend ]
    Term.(
      const f $ trace_in_arg $ save_trace_arg $ jobs_arg $ tenants_arg
      $ rate_arg $ alpha_arg $ seed_arg $ deadline_arg $ burst_arg $ nodes_arg
      $ queue_bound_arg $ cache_budget $ retry_budget_arg $ blacklist_arg
      $ auto_arg $ faults $ baseline_arg $ out_arg $ scenario_arg
      $ chrome_trace_arg $ metrics_dir_arg $ slo_file_arg $ metrics_interval)

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
  let select windows = function
    | None -> Ok windows
    | Some kv -> (
        match String.index_opt kv '=' with
        | None -> Error "--select expects KEY=VALUE"
        | Some i ->
            Ok
              (Slo.select ~key:(String.sub kv 0 i)
                 ~value:(String.sub kv (i + 1) (String.length kv - i - 1))
                 windows))
  in
  let f csv slo kv =
    slo_exit
      (let* objectives = Slo.load slo in
       let* windows = Slo.windows_of_csv (read_file csv) in
       let* windows = select windows kv in
       Slo.evaluate objectives windows)
  in
  let check =
    command "check"
      ~doc:
        "Evaluate the objectives in $(b,--slo) against a CSV: the \
         scraper's long format (results/metrics.csv, one window per \
         snapshot time) or a wide results table (results/serve.csv, one \
         window per row).  Exit 0 when every objective holds within its \
         error budget, 1 on violation, 2 on malformed input."
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

(* A bad input (a typed [Error.Error], or a file that cannot be read) is one
   line on stderr and exit 2; any other exception is a bug, and exits with
   cmdliner's internal-error status, 125. *)
let () =
  exit
    (try Cmd.eval' ~catch:false main with
    | Error.Error e ->
        prerr_endline ("spdistal: " ^ Error.to_string e);
        2
    | Sys_error msg ->
        prerr_endline ("spdistal: " ^ msg);
        2
    | exn ->
        Printf.eprintf "spdistal: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string exn);
        Cmd.Exit.internal_error)
