(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table II, Figures 10-13) and runs the ablation benches from
   DESIGN.md.  The host wall-clock benchmark is bench/perf.

   Usage: dune exec bench/main.exe            (full run, ~10 minutes)
          BENCH_QUICK=1 dune exec bench/main.exe   (reduced sizes)
          BENCH_ONLY=serve dune exec bench/main.exe   (one of [sections]) *)

open Spdistal_workloads
open Spdistal_experiments

let quick =
  match Sys.getenv_opt "BENCH_QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Domain-pool scaling: wall-clock of the six fig10 kernels with        *)
(* sequential vs parallel piece simulation.  Simulated times are        *)
(* bit-identical at every degree (the interpreter reduces piece records *)
(* in piece order); only wall-clock may differ.  Speedup requires       *)
(* cores: on a single-core host the pool degrades to ~1x.               *)
(* ------------------------------------------------------------------ *)

let run_domain_scaling () =
  let requested =
    let d = Spdistal_runtime.Machine.sim_domains () in
    if d > 1 then d else 4
  in
  let matrix =
    Synth.power_law ~name:"scale-matrix" ~rows:8_000 ~cols:8_000 ~nnz:240_000
      ~alpha:1.0 ~seed:97
  in
  let tensor =
    Synth.tensor3_uniform ~name:"scale-tensor" ~dims:[| 800; 600; 300 |]
      ~nnz:120_000 ~seed:96
  in
  let machine = Runner.cpu_machine ~nodes:16 in
  let kernels =
    [
      (Runner.Spmv, matrix); (Runner.Spmm, matrix); (Runner.Spadd3, matrix);
      (Runner.Sddmm, matrix); (Runner.Spttv, tensor); (Runner.Mttkrp, tensor);
    ]
    |> List.map (fun (k, b) -> Core.Kernels.inputs k b)
  in
  let time_all domains =
    Spdistal_runtime.Machine.set_sim_domains domains;
    let t0 = Unix.gettimeofday () in
    let sims =
      List.map
        (fun inputs ->
          let r = Runner.run ~system:Runner.Spdistal ~machine inputs in
          r.Spdistal_baselines.Common.time)
        kernels
    in
    (Unix.gettimeofday () -. t0, sims)
  in
  print_endline "=== Domain-pool scaling (fig10 kernels, 16-node machine) ===";
  ignore (time_all 1);
  (* warm expansion caches so both timed passes see the same state *)
  let seq, sims_seq = time_all 1 in
  let par, sims_par = time_all requested in
  Spdistal_runtime.Machine.set_sim_domains 1;
  Printf.printf
    "--domains 1: %.3fs   --domains %d: %.3fs   wall-clock speedup %.2fx \
     (host has %d core(s))\n"
    seq requested par (seq /. par)
    (Domain.recommended_domain_count ());
  if sims_seq = sims_par then
    print_endline "simulated times: bit-identical across degrees (as required)"
  else
    print_endline "WARNING: simulated times diverged across domain degrees!";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fault-rate sweep: the six fig10 kernels (8-node CPU) and batched    *)
(* SpMM (2x2 GPU grid) under injected crash/loss/straggler schedules.  *)
(* Recovery is priced into simulated time; outputs must stay bitwise   *)
(* identical to the fault-free run (the Legion re-execution argument). *)
(* ------------------------------------------------------------------ *)

let run_fault_sweep () =
  let open Spdistal_runtime in
  let module S = Core.Spdistal in
  let matrix =
    Synth.power_law ~name:"fault-matrix" ~rows:4_000 ~cols:4_000 ~nnz:80_000
      ~alpha:1.0 ~seed:95
  in
  let tensor =
    Synth.tensor3_uniform ~name:"fault-tensor" ~dims:[| 500; 400; 200 |]
      ~nnz:40_000 ~seed:94
  in
  let cpu = Runner.cpu_machine ~nodes:8 in
  let problem ?batched ~machine kernel () =
    Runner.problem_for ~kernel ~machine ~cols:32 ?batched
      (if List.mem kernel Runner.kernels_for_tensor3 then tensor else matrix)
  in
  let problems =
    List.map
      (fun k -> (Runner.kernel_name k, problem ~machine:cpu k))
      Runner.all_kernels
    (* [problem_for] regrids the 4 GPUs to 2x2 for the batched schedule. *)
    @ [
        ( "SpMM-batched",
          problem ~batched:true ~machine:(Runner.gpu_machine ~gpus:4) Runner.Spmm
        );
      ]
  in
  let rates = if quick then [ 0.0; 0.1 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let seed = 42 in
  print_endline
    "=== Fault-injection sweep (recovery overhead; outputs must stay \
     bit-identical) ===";
  Printf.printf "%-13s %6s %12s %12s %9s %8s %12s %7s %10s\n" "kernel" "rate"
    "seconds" "baseline" "overhead" "retries" "resent_B" "faults" "identical";
  let rows =
    List.concat_map
      (fun (name, make) ->
        let base_p = make () in
        let base = S.run ~faults:Fault.disabled base_p in
        let base_t = Cost.total base.S.cost in
        let base_out = Spdistal_fuzz.Snapshot.outputs base_p in
        List.filter_map
          (fun rate ->
            if rate = 0. then None
            else
              let p = make () in
              let cfg = Fault.make ~seed ~rate () in
              let r = S.run ~faults:cfg p in
              let c = r.S.cost in
              (* Every operand's payload and sparse pattern, bit for bit. *)
              let identical =
                Spdistal_fuzz.Snapshot.(equal (outputs p) base_out)
              in
              let seconds =
                match r.S.dnc with Some _ -> None | None -> Some (Cost.total c)
              in
              (match seconds with
              | Some t ->
                  Printf.printf
                    "%-13s %6.2f %12.6f %12.6f %8.2f%% %8d %12.3e %7d %10b\n"
                    name rate t base_t
                    (100. *. (t -. base_t) /. base_t)
                    c.Cost.retries c.Cost.resent_bytes c.Cost.faults identical
              | None ->
                  Printf.printf "%-13s %6.2f %12s %12.6f\n" name rate "DNC"
                    base_t);
              Some
                {
                  Csv.f_kernel = name;
                  f_rate = rate;
                  f_seed = seed;
                  f_seconds = seconds;
                  f_baseline = base_t;
                  f_cost = c;
                  f_identical = identical;
                })
          rates)
      problems
  in
  let path = Csv.write_faults ~dir:"results" rows in
  Printf.printf "fault sweep written: %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Iterative-launch amortization: SpMV run for N iterations through    *)
(* the warm-start execution context.  Cached runs pay dependent        *)
(* partitioning once (cold iteration 1) and launch from the cache      *)
(* afterwards; --no-cache rebuilds every iteration; baselines re-pay   *)
(* their full launch each iteration (PETSc re-scatters per MatMult).   *)
(* ------------------------------------------------------------------ *)

let run_amortization () =
  let open Spdistal_runtime in
  let module K = Core.Kernels in
  let module S = Core.Spdistal in
  let matrix =
    Synth.power_law ~name:"amort-matrix" ~rows:4_000 ~cols:4_000 ~nnz:80_000
      ~alpha:1.0 ~seed:91
  in
  let machine = Runner.cpu_machine ~nodes:8 in
  let iters_sweep = if quick then [ 1; 2; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  print_endline
    "=== Iterative-launch amortization (SpMV, 8-node CPU; cf. Legion's \
     dependent-partitioning reuse) ===";
  Printf.printf "%-10s %-8s %5s %12s %12s %12s %5s %7s\n" "system" "cache"
    "iters" "total(s)" "iter1(s)" "warm(s)" "hits" "misses";
  let inputs = K.inputs K.Spmv matrix in
  let spdistal_row ~cache n =
    let p = K.problem ~machine inputs in
    let r = S.run ~iterations:n ~cache p in
    let totals = List.map (fun it -> Cost.total it.S.it_cost) r.S.iters in
    let iter1 = match totals with t :: _ -> Some t | [] -> None in
    let warm =
      match totals with
      | _ :: (_ :: _ as rest) ->
          Some (List.fold_left ( +. ) 0. rest /. float_of_int (List.length rest))
      | _ -> None
    in
    let count st =
      List.length (List.filter (fun it -> it.S.it_cache = st) r.S.iters)
    in
    {
      Csv.a_kernel = "SpMV";
      a_system = "SpDISTAL";
      a_iterations = n;
      a_cached = cache;
      a_seconds =
        (match r.S.dnc with Some _ -> None | None -> Some (Cost.total r.S.cost));
      a_iter1 = iter1;
      a_warm = warm;
      a_hits = count `Hit;
      a_misses = count `Miss;
    }
  in
  let baseline_row system name n =
    let r = Runner.run ~system ~machine ~iterations:n inputs in
    {
      Csv.a_kernel = "SpMV";
      a_system = name;
      a_iterations = n;
      a_cached = false;
      a_seconds =
        (match r.Spdistal_baselines.Common.dnc with
        | Some _ -> None
        | None -> Some r.Spdistal_baselines.Common.time);
      a_iter1 = None;
      a_warm = None;
      a_hits = 0;
      a_misses = 0;
    }
  in
  let rows =
    List.concat_map
      (fun n ->
        [
          spdistal_row ~cache:true n;
          spdistal_row ~cache:false n;
          baseline_row Runner.Petsc "PETSc" n;
          baseline_row Runner.Trilinos "Trilinos" n;
        ])
      iters_sweep
  in
  let cell = function Some t -> Printf.sprintf "%12.6f" t | None -> "           -" in
  List.iter
    (fun r ->
      Printf.printf "%-10s %-8s %5d %s %s %s %5d %7d\n" r.Csv.a_system
        (if r.Csv.a_cached then "on" else "off")
        r.Csv.a_iterations (cell r.Csv.a_seconds) (cell r.Csv.a_iter1)
        (cell r.Csv.a_warm) r.Csv.a_hits r.Csv.a_misses)
    rows;
  (match
     List.find_opt
       (fun r -> r.Csv.a_cached && r.Csv.a_iterations = List.fold_left max 1 iters_sweep)
       rows
   with
  | Some r -> (
      match (r.Csv.a_iter1, r.Csv.a_warm) with
      | Some c, Some w when c > w ->
          Printf.printf
            "amortization: cold iteration %.6fs > warm mean %.6fs (%.2fx)\n" c w
            (c /. w)
      | Some c, Some w ->
          Printf.printf
            "WARNING: no amortization visible (cold %.6fs <= warm %.6fs)\n" c w
      | _ -> ())
  | None -> ());
  let path = Csv.write_amortization ~dir:"results" rows in
  Printf.printf "amortization curve written: %s\n\n" path

(* ------------------------------------------------------------------ *)
(* Leaf throughput: wall-clock of the leaf kernel loop itself, compiled *)
(* closures vs the reference interpreter vs a hand-written CSR SpMV,   *)
(* and the same two backends on CSR SpMM, SDDMM and SpAdd3 (merge)     *)
(* leaves over a power-law matrix, on a CSF SpMTTKRP leaf, and on      *)
(* DCSR and CSC-ordered SpMV and DCSF SpMTTKRP leaves.  One piece,     *)
(* whole-tensor shard (every row, for the merge), so nothing but the   *)
(* leaf launch is timed.  Writes results/leaf_throughput.csv; the CI   *)
(* smoke job checks the CSR SpMV, the SpMTTKRP and the SpAdd3          *)
(* compiled/interp ratios against the ratcheted floors in              *)
(* bench/leaf_throughput_floor.txt, bench/mttkrp_throughput_floor.txt  *)
(* and bench/merge_throughput_floor.txt and prints the others.         *)
(* ------------------------------------------------------------------ *)

(* One backend's timing in one round: repeat [f] until it has run for
   >= 0.1 s of wall clock (after one untimed warm-up call); returns (reps,
   seconds). *)
let time_reps f =
  f ();
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 0.1 then (reps, dt) else go (reps * 2)
  in
  go 1

(* Rounds per kernel: each round times every backend of the kernel once,
   in order, so host noise that lasts a round hits both sides of a ratio
   alike, and the median ratio discards the rounds it hit unevenly. *)
let leaf_rounds = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let run_leaf_throughput () =
  let open Spdistal_runtime in
  let module S = Core.Spdistal in
  let module E = Spdistal_exec in
  let module Loop_ir = Spdistal_ir.Loop_ir in
  let module Tensor = Spdistal_formats.Tensor in
  let machine = S.machine ~kind:Machine.Cpu [| 1 |] in
  (* The interpreted and the compiled run of [p]'s leaf over one piece
     covering every stored value (and, for a merge, the row set [rows]):
     the timed call is exactly the leaf loop, no partitioning, placement or
     cost model around it. *)
  let leaf_runs ?rows p ~nnz =
    let bindings = S.bindings p in
    let prog = S.compile ~trace:Spdistal_obs.Trace.null p in
    let shard = Iset.of_intervals [ (0, nnz - 1) ] in
    let shard_vals _ = shard in
    let prep_i = E.Interp.prepare ~backend:E.Compile_leaf.Interp ~bindings prog in
    let leaf =
      match
        List.find_map
          (function Loop_ir.Distributed_for { leaf; _ } -> Some leaf | _ -> None)
          prep_i.E.Interp.pp_loops
      with
      | Some leaf -> leaf
      | None -> failwith "leaf-throughput: no distributed loop in the program"
    in
    let prep_c = E.Interp.prepare ~backend:E.Compile_leaf.Compiled ~bindings prog in
    let compiled =
      match List.find_map (fun l -> l) prep_c.E.Interp.pp_leaves with
      | Some c -> c
      | None -> failwith "leaf-throughput: no compiled leaf"
    in
    (* Staged like the compiled leaf: the plan and the driver's coordinate
       expansion are built here, outside the timed call. *)
    let interp = E.Leaf.execute ~bindings ~leaf in
    ( (fun () -> ignore (interp ~shard_vals ~rows ~col_range:None ())),
      fun () -> ignore (E.Compile_leaf.execute compiled ~shard_vals ~rows ~col_range:None ())
    )
  in
  let n = if quick then 100_000 else 400_000 in
  let b = Synth.banded ~name:"leaf-bench" ~n ~band:8 in
  let nnz = Tensor.nnz b in
  let p = Core.Kernels.spmv_problem ~machine b in
  let interp_run, compiled_run = leaf_runs p ~nnz in
  let bindings = S.bindings p in
  let x = E.Operand.find_vec bindings "c" in
  let y = E.Operand.find_vec bindings "a" in
  let hand_run () = Spdistal_baselines.Common.seq_spmv b x y in
  (* The freebase_music analog's shape and skew at the bench's dense width. *)
  let t3 =
    Synth.tensor3_skewed ~name:"leaf-bench-3" ~dims:[| 1_400; 1_400; 200 |]
      ~nnz:(if quick then 80_000 else 330_000)
      ~alpha:1.2 ~seed:2001
  in
  let nnz3 = Tensor.nnz t3 in
  let interp3, compiled3 =
    leaf_runs (Core.Kernels.mttkrp_problem ~machine ~cols:32 t3) ~nnz:nnz3
  in
  (* The arabic-2005 analog's shape and skew at the bench's dense width. *)
  let pn = if quick then 2_500 else 10_000 in
  let pl =
    Synth.power_law ~name:"leaf-bench-pl" ~rows:pn ~cols:pn
      ~nnz:(if quick then 48_000 else 190_000)
      ~alpha:1.0 ~seed:1001
  in
  let nnz_pl = Tensor.nnz pl in
  let interp_mm, compiled_mm =
    leaf_runs (Core.Kernels.spmm_problem ~machine ~cols:32 pl) ~nnz:nnz_pl
  in
  let interp_dd, compiled_dd =
    leaf_runs (Core.Kernels.sddmm_problem ~machine ~cols:32 pl) ~nnz:nnz_pl
  in
  (* SpAdd3 over the same matrix and its two shifted copies; its rate
     counts the three operands' stored entries, which the merge consumes. *)
  let add3 = Core.Kernels.spadd3_problem ~machine pl in
  let nnz_add =
    List.fold_left
      (fun n t -> n + Tensor.nnz (E.Operand.find_sparse (S.bindings add3) t))
      0 [ "B"; "C"; "D" ]
  in
  let interp_add, compiled_add =
    leaf_runs ~rows:(Iset.range pn) add3 ~nnz:nnz_add
  in
  (* Drivers that no shape-matched loop ever covered: the banded matrix as
     DCSR (Compressed, Compressed) and CSC-ordered, and the skewed tensor as
     DCSF (Compressed, Compressed, Compressed). *)
  let stored ?mode_order formats (t : Tensor.t) =
    Tensor.of_coo ~name:t.Tensor.name ~formats ?mode_order (Tensor.to_coo t)
  in
  let module L = Spdistal_formats.Level in
  let interp_dcsr, compiled_dcsr =
    leaf_runs (Core.Kernels.spmv_problem ~machine (stored [| L.Compressed_k; L.Compressed_k |] b)) ~nnz
  in
  let interp_csc, compiled_csc =
    leaf_runs
      (Core.Kernels.spmv_problem ~machine
         (stored ~mode_order:[| 1; 0 |] [| L.Dense_k; L.Compressed_k |] b))
      ~nnz
  in
  let interp_dcsf, compiled_dcsf =
    leaf_runs
      (Core.Kernels.mttkrp_problem ~machine ~cols:32
         (stored [| L.Compressed_k; L.Compressed_k; L.Compressed_k |] t3))
      ~nnz:nnz3
  in
  print_endline "=== Leaf throughput (wall clock, 1 piece) ===";
  Printf.printf "CSR SpMV: %d x %d banded, %d nnz\n" n n nnz;
  Printf.printf "CSR SpMM, SDDMM: %d x %d power-law, %d nnz, 32 columns\n" pn pn nnz_pl;
  Printf.printf "CSR SpAdd3: the same matrix and two shifted copies, %d entries\n" nnz_add;
  Printf.printf "CSF SpMTTKRP: %d x %d x %d skewed, %d nnz, 32 columns\n"
    t3.Tensor.dims.(0) t3.Tensor.dims.(1) t3.Tensor.dims.(2) nnz3;
  print_endline "DCSR and CSC-ordered SpMV: the banded matrix; DCSF SpMTTKRP: the skewed tensor";
  (* A group is one kernel's backends, the interpreter first, timed in
     [leaf_rounds] alternating rounds.  Each row is (label, rows, nnz,
     reps, seconds, Mnnz/s, speedup): reps and seconds summed over the
     rounds, and the speedup the median over rounds of the row's rate over
     the interpreter's rate in the same round. *)
  let measure_group ~rows ~nnz runs =
    let rounds =
      List.init leaf_rounds (fun _ -> List.map (fun (_, f) -> time_reps f) runs)
    in
    let rate (reps, secs) = float_of_int nnz *. float_of_int reps /. secs /. 1e6 in
    List.mapi
      (fun i (name, _) ->
        let mine = List.map (fun round -> List.nth round i) rounds in
        let reps = List.fold_left (fun acc (r, _) -> acc + r) 0 mine
        and secs = List.fold_left (fun acc (_, t) -> acc +. t) 0. mine in
        let mnnz = rate (reps, secs) in
        let speedup =
          median
            (List.map
               (fun round -> rate (List.nth round i) /. rate (List.hd round))
               rounds)
        in
        Printf.printf "%-16s %8d reps  %8.3f s  %10.1f Mnnz/s\n%!" name reps secs mnnz;
        (name, rows, nnz, reps, secs, mnnz, speedup))
      runs
  in
  let rows3 = t3.Tensor.dims.(0) in
  let groups =
    List.map
      (fun (rows, nnz, runs) -> measure_group ~rows ~nnz runs)
      [
        (n, nnz, [ ("interp", interp_run); ("compiled", compiled_run); ("hand-csr", hand_run) ]);
        (rows3, nnz3, [ ("interp-mttkrp", interp3); ("compiled-mttkrp", compiled3) ]);
        (pn, nnz_pl, [ ("interp-spmm", interp_mm); ("compiled-spmm", compiled_mm) ]);
        (pn, nnz_pl, [ ("interp-sddmm", interp_dd); ("compiled-sddmm", compiled_dd) ]);
        (pn, nnz_add, [ ("interp-spadd3", interp_add); ("compiled-spadd3", compiled_add) ]);
        (n, nnz, [ ("interp-dcsr", interp_dcsr); ("compiled-dcsr", compiled_dcsr) ]);
        (n, nnz, [ ("interp-csc", interp_csc); ("compiled-csc", compiled_csc) ]);
        (rows3, nnz3, [ ("interp-dcsf-mttkrp", interp_dcsf); ("compiled-dcsf-mttkrp", compiled_dcsf) ]);
      ]
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/leaf_throughput.csv" in
  let oc = open_out path in
  output_string oc "backend,rows,nnz,reps,seconds,mnnz_per_s,speedup_vs_interp\n";
  List.iter
    (fun group ->
      List.iter
        (fun (name, rows, nnz, reps, secs, mnnz, speedup) ->
          Printf.fprintf oc "%s,%d,%d,%d,%.6f,%.3f,%.3f\n" name rows nnz reps secs
            mnnz speedup)
        group;
      let name, _, _, _, _, _, speedup = List.nth group 1 in
      Printf.printf "%s/interp leaf throughput: %.2fx (median of %d rounds)\n%!"
        name speedup leaf_rounds)
    groups;
  close_out oc;
  Printf.printf "CSV: %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Partition operators: wall-clock of each dependent-partitioning      *)
(* operator on the inputs bench/perf's cold-plan and auto-price        *)
(* workloads derive from (seed 1): the power-law matrix as CSR and the  *)
(* skewed 3-tensor as CSF, four colors each.  One row per operator and  *)
(* input: the region entries the operator is billed for, the intervals  *)
(* it emits over all colors, and ns per entry, the median over          *)
(* alternating rounds.  A last row times the merge row-entry count      *)
(* (Leaf.row_entries) that pricing, the interpreter's merge and the     *)
(* compiled cursor share, on auto-price's SpAdd3 operands over four row *)
(* blocks: its entries are the operand rows it reads, its intervals the *)
(* row blocks.  Writes results/partition_ops.csv (wall clock, not       *)
(* pinned, no floor).                                                   *)
(* ------------------------------------------------------------------ *)

let run_partition_ops () =
  let open Spdistal_runtime in
  let module Tensor = Spdistal_formats.Tensor in
  let colors = 4 in
  (* The ops of one input: the deepest compressed level's pos and crd
     under block partitions (rows or fibers, positions, values), and the
     preimage of a value-range partition of crd, which holds one fragment
     per parent, as SDDMM's row:j derives it. *)
  let ops input (t : Tensor.t) =
    let k = Array.length t.Tensor.levels - 1 in
    let pos = Tensor.pos_of t k and crd = Tensor.crd_of t k in
    let extent = t.Tensor.dims.(t.Tensor.mode_order.(k)) in
    let parents = Partition.equal_blocks pos.Region.ispace colors in
    let positions = Partition.equal_blocks crd.Region.ispace colors in
    let values =
      Array.init colors (fun c ->
          (c * extent / colors, ((c + 1) * extent / colors) - 1))
    in
    let by_values = Partition.by_value_ranges ~values:crd crd.Region.ispace values in
    let size (r : _ Region.t) = Iset.cardinal r.Region.ispace in
    let emitted f () =
      Array.fold_left (fun n s -> n + Iset.interval_count s) 0 (f ()).Partition.subsets
    in
    [
      ( "image_ranges", input, size pos,
        emitted (fun () -> Dependent.image_ranges pos parents crd.Region.ispace) );
      ( "preimage_ranges", input, size pos,
        emitted (fun () -> Dependent.preimage_ranges pos positions) );
      ( "preimage_ranges_fragmented", input, size pos,
        emitted (fun () -> Dependent.preimage_ranges pos by_values) );
      ( "image_values", input, size crd,
        emitted (fun () -> Dependent.image_values crd positions (Iset.range extent)) );
      ( "by_value_ranges", input, size crd,
        emitted (fun () ->
            Partition.by_value_ranges ~values:crd crd.Region.ispace values) );
    ]
  in
  let row_entries input b =
    let module E = Spdistal_exec in
    let p =
      Spdistal_experiments.Runner.problem_for ~kernel:Spdistal_experiments.Runner.Spadd3
        ~machine:(Spdistal_experiments.Runner.cpu_machine ~nodes:colors) ~cols:32 b
    in
    let merge, _ =
      E.Leaf.merge_ops ~bindings:(Core.Spdistal.bindings p) ~tensors:[ "B"; "C"; "D" ]
    in
    let blocks =
      (Partition.equal_blocks (Iset.range b.Tensor.dims.(0)) colors).Partition.subsets
    in
    ( "row_entries", input, Array.length merge * b.Tensor.dims.(0),
      fun () ->
        Array.iter (fun rows -> ignore (E.Leaf.row_entries merge rows)) blocks;
        colors )
  in
  let inputs =
    [
      ( "cold-plan-matrix",
        Synth.power_law ~name:"B" ~rows:10_000 ~cols:10_000 ~nnz:190_000
          ~alpha:1.0 ~seed:1001 );
      ( "cold-plan-tensor3",
        Synth.tensor3_skewed ~name:"B" ~dims:[| 1_400; 1_400; 200 |]
          ~nnz:330_000 ~alpha:1.2 ~seed:2001 );
      ( "auto-price-matrix",
        Synth.power_law ~name:"B" ~rows:1_500 ~cols:1_500 ~nnz:22_500 ~alpha:1.0
          ~seed:3001 );
      ( "auto-price-tensor3",
        Synth.tensor3_skewed ~name:"B" ~dims:[| 187; 187; 100 |] ~nnz:22_500
          ~alpha:1.2 ~seed:4001 );
    ]
  in
  let all =
    List.concat_map (fun (input, t) -> ops input t) inputs
    @ [ row_entries "auto-price-spadd3" (List.assoc "auto-price-matrix" inputs) ]
  in
  print_endline "=== Partition operators (wall clock, 4 colors) ===";
  (* Every op once per round, in order, as the leaf rounds are. *)
  let rounds =
    List.init leaf_rounds (fun _ ->
        List.map (fun (_, _, _, f) -> time_reps (fun () -> ignore (f ()))) all)
  in
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/partition_ops.csv" in
  let oc = open_out path in
  output_string oc "operator,input,entries,intervals,ns_per_entry\n";
  List.iteri
    (fun i (op, input, entries, f) ->
      let intervals = f () in
      let ns =
        median
          (List.map
             (fun round ->
               let reps, secs = List.nth round i in
               secs /. float_of_int reps /. float_of_int (max 1 entries) *. 1e9)
             rounds)
      in
      Printf.printf "%-28s %-20s %8d entries %7d intervals %8.2f ns/entry\n%!" op
        input entries intervals ns;
      Printf.fprintf oc "%s,%s,%d,%d,%.3f\n" op input entries intervals ns)
    all;
  close_out oc;
  Printf.printf "CSV: %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Serving: the multi-tenant front-end under four scenarios — steady   *)
(* load, an overload burst, sustained faults, and both at once.  Every *)
(* run must keep answering (no crash) and hold the cache byte budget;  *)
(* the CSV records latency percentiles, hit/shed rates and throughput  *)
(* against the single-tenant (cold, unshared) baseline.                *)
(* ------------------------------------------------------------------ *)

let run_serve () =
  let open Spdistal_serve in
  let jobs = if quick then 80 else 240 in
  let gen burst =
    { Workload.default_gen with Workload.g_jobs = jobs; g_rate = 300.; g_burst = burst }
  in
  let burst = Some (0.05, 0.15, 4.) in
  let faults = Spdistal_runtime.Fault.make ~seed:42 ~rate:0.1 () in
  let scenarios =
    [
      ("steady", gen None, Spdistal_runtime.Fault.disabled);
      ("overload", gen burst, Spdistal_runtime.Fault.disabled);
      ("chaos", gen None, faults);
      ("overload+chaos", gen burst, faults);
    ]
  in
  print_endline
    "=== Serving (multi-tenant front-end: admission, deadlines, LRU budget, \
     degradation) ===";
  (try Unix.mkdir "results" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = "results/serve.csv" in
  let oc = open_out path in
  output_string oc (Server.csv_comment ^ "\n");
  output_string oc (Server.csv_header ^ "\n");
  let tpath = "results/serve_tenants.csv" in
  let toc = open_out tpath in
  output_string toc (Server.tenants_csv_header ^ "\n");
  List.iter
    (fun (scenario, gen, faults) ->
      let w = Workload.generate ~gen ~catalog:Catalog.names () in
      let cfg = { Server.default_config with Server.s_faults = faults } in
      let r = Server.run ~baseline:true cfg w in
      (match cfg.Server.s_cache_budget with
      | Some budget when r.Server.r_cache.Spdistal_exec.Cache.bytes_peak > budget ->
          Printf.printf "WARNING: %s exceeded the cache byte budget (%d > %d)\n"
            scenario r.Server.r_cache.Spdistal_exec.Cache.bytes_peak budget
      | _ -> ());
      Printf.printf
        "%-15s %3d/%3d completed, %5.1f%% shed, p50 %8.3f ms, p99 %8.3f ms, \
         %5.1f%% hits, %7.2f jobs/s%s\n%!"
        scenario r.Server.r_completed r.Server.r_jobs
        (100. *. r.Server.r_shed_rate)
        r.Server.r_p50_ms r.Server.r_p99_ms
        (100. *. r.Server.r_hit_rate)
        r.Server.r_throughput
        (match r.Server.r_baseline_throughput with
        | Some b when b > 0. ->
            Printf.sprintf " (%.2fx single-tenant)" (r.Server.r_throughput /. b)
        | _ -> "");
      output_string oc (Server.csv_row ~scenario r ^ "\n");
      List.iter
        (fun row -> output_string toc (row ^ "\n"))
        (Server.tenants_csv_rows ~scenario r))
    scenarios;
  close_out oc;
  close_out toc;
  Printf.printf "serve scenarios written: %s, %s\n" path tpath

(* ------------------------------------------------------------------ *)
(* Auto-scheduler tournament: the evaluation kernels priced naive vs   *)
(* hand vs auto (no leaf execution).  Writes results/auto.csv; the CI  *)
(* auto-tournament job checks the worst auto/hand ratio against the    *)
(* ratcheted ceiling in bench/auto_ratio_floor.txt.                    *)
(* ------------------------------------------------------------------ *)

let run_auto_tournament () =
  print_endline
    "=== Auto-scheduler tournament (naive vs hand vs auto, priced) ===";
  let rows = Auto_tournament.compute ~quick () in
  Format.printf "%a@." Auto_tournament.print rows;
  let path = Auto_tournament.write ~dir:"results" rows in
  (match Auto_tournament.max_ratio rows with
  | Some m -> Printf.printf "max auto/hand ratio: %.4f (CSV: %s)\n%!" m path
  | None -> Printf.printf "no cell priced (CSV: %s)\n%!" path);
  let regressed = Auto_tournament.regressions rows in
  if regressed <> [] then begin
    Printf.printf
      "WARNING: %d cell(s) where auto fails to beat naive or is DNC where \
       another schedule completes:\n"
      (List.length regressed);
    List.iter
      (fun (r : Auto_tournament.row) ->
        Printf.printf "  %s/%s/%s\n" r.Auto_tournament.t_kernel
          r.Auto_tournament.t_dataset r.Auto_tournament.t_system)
      regressed
  end

let section title f =
  let t0 = Unix.gettimeofday () in
  Printf.printf "\n";
  f ();
  Printf.printf "[%s took %.1fs]\n%!" title (Unix.gettimeofday () -. t0)

(* The sections that run alone with BENCH_ONLY=<name>, in run order. *)
let sections =
  [
    ("leaf-throughput", run_leaf_throughput);
    ("partition-ops", run_partition_ops);
    ("fault-sweep", run_fault_sweep);
    ("amortization", run_amortization);
    ("serve", run_serve);
    ("auto-tournament", run_auto_tournament);
  ]

let () =
  Option.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f ->
          section name f;
          exit 0
      | None ->
          Printf.eprintf "BENCH_ONLY: unknown section %S (one of: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 2)
    (Sys.getenv_opt "BENCH_ONLY");
  Printf.printf "SpDISTAL reproduction benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  Printf.printf
    "machine model: Lassen scaled %.0fx (see DESIGN.md); datasets: Table II \
     analogs\n\n"
    Datasets.scale;

  List.iter (fun (name, f) -> section name f) sections;
  run_domain_scaling ();

  section "table2" (fun () -> Format.printf "%a@." Datasets.pp_table2 ());

  let c10 = ref [] and c11 = ref [] and c12 = ref [] and c13 = ref [] in
  section "fig10" (fun () ->
      let cells = Fig10.compute ~quick () in
      c10 := cells;
      Format.printf "%a@." Fig10.print cells;
      (* Paper-vs-measured summary (medians the paper quotes in §VI-A1). *)
      let paper =
        [
          (Runner.Spmv, Runner.Petsc, 1.8);
          (Runner.Spmv, Runner.Trilinos, 1.2);
          (Runner.Spmv, Runner.Ctf, 299.);
          (Runner.Spmm, Runner.Petsc, 2.01);
          (Runner.Spmm, Runner.Trilinos, 3.8);
          (Runner.Spadd3, Runner.Petsc, 11.8);
          (Runner.Spadd3, Runner.Trilinos, 38.5);
          (Runner.Spadd3, Runner.Ctf, 19.2);
          (Runner.Sddmm, Runner.Ctf, 15.3);
          (Runner.Spttv, Runner.Ctf, 161.);
          (Runner.Mttkrp, Runner.Ctf, 1.03);
        ]
      in
      Format.printf "@.paper-vs-measured medians (SpDISTAL speedup over system):@.";
      List.iter
        (fun (k, s, p) ->
          match Fig10.median_speedup cells ~kernel:k ~vs:s with
          | Some m ->
              Format.printf "  %-9s vs %-9s paper %7.2fx   measured %7.2fx@."
                (Runner.kernel_name k) (Runner.system_name s) p m
          | None -> ())
        paper);

  section "fig11" (fun () ->
      let cells = Fig11.compute ~quick () in
      c11 := cells;
      Format.printf "%a@." Fig11.print cells);

  section "fig12" (fun () ->
      let cells = Fig12.compute ~quick () in
      c12 := cells;
      Format.printf "%a@." Fig12.print cells;
      List.iter
        (fun (k, p) ->
          match
            Fig10.median_speedup cells ~kernel:k ~vs:Runner.Spdistal_cpu_leaf
          with
          | Some m ->
              Format.printf "%s: paper median GPU speedup %.1fx, measured %.2fx@."
                (Runner.kernel_name k) p m
          | None -> ())
        [ (Runner.Spttv, 2.0); (Runner.Mttkrp, 2.2) ]);

  section "fig13" (fun () ->
      let points = Fig13.compute ~quick () in
      c13 := points;
      Format.printf "%a@." Fig13.print points);

  section "ablations" (fun () -> Format.printf "%a@." Ablations.run_all ());

  let paths =
    Csv.write_all ~dir:"results" ~fig10:!c10 ~fig11:!c11 ~fig12:!c12 ~fig13:!c13
  in
  Printf.printf "\nCSV series written: %s\n" (String.concat ", " paths);
  print_endline "All tables and figures regenerated. See EXPERIMENTS.md for";
  print_endline "the paper-vs-measured record."
