let () =
  (* Hermeticity: a SPDISTAL_FAULTS env override (the CI chaos matrix sets
     one) must not leak into golden/numeric tests — only Test_fault reads
     the env, explicitly.  Costs under faults are covered there. *)
  Spdistal_runtime.Fault.set_default Spdistal_runtime.Fault.disabled;
  (* --update-golden is ours, not Alcotest's: strip it from argv before the
     runner parses the rest (e.g. `test_main.exe golden --update-golden`). *)
  let argv =
    Array.of_list
      (List.filter
         (fun a ->
           if a = "--update-golden" then begin
             Test_golden.update := true;
             false
           end
           else true)
         (Array.to_list Sys.argv))
  in
  Alcotest.run ~argv "spdistal"
    [
      ("iset", Test_iset.suite);
      ("partition", Test_partition.suite);
      ("dependent", Test_dependent.suite);
      ("formats", Test_formats.suite);
      ("formats-dist", Test_formats_dist.suite);
      ("inputs", Test_inputs.suite);
      ("machine", Test_machine.suite);
      ("runtime-more", Test_runtime_more.suite);
      ("ir", Test_ir.suite);
      ("pretty", Test_pretty.suite);
      ("exec", Test_exec.suite);
      ("leaf", Test_leaf.suite);
      ("baselines", Test_baselines.suite);
      ("baselines-more", Test_baselines_more.suite);
      ("interp-more", Test_interp_more.suite);
      ("pool", Test_pool.suite);
      ("parallel", Test_parallel.suite);
      ("fault", Test_fault.suite);
      ("props", Test_props.suite);
      ("fuzz", Test_fuzz.suite);
      ("placement", Test_placement.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("cache", Test_cache.suite);
      ("golden", Test_golden.suite);
      ("cli", Test_cli.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("serve", Test_serve.suite);
      ("opt", Test_opt.suite);
      ("context", Test_context.suite);
    ]
