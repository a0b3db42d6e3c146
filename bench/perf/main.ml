(* Host-wall benchmark of the reproduction itself (see README.md).

   bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   One caller, one op in flight, simulation pinned to one domain.  Ops run
   in whole cycles until [--seconds] have passed and the workload's minimum
   number of cycles (at least 100 ops) ran.  Each op's result is checked
   against the oracle, and each op's wall time is scaled to a reference
   host speed (calib.ml).  The last line of standard output is one JSON
   object: end-to-end metrics with [--trace 0], per-layer metrics from a
   traced replica of the same ops with [--trace 1].  Exit code 1 when any
   op failed its check. *)

open Spdistal_runtime
module Obs = Spdistal_obs

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let trace_out = ref ""
let smoke = ref false
let inject_bug = ref false
let update_reference = ref false
let reference_dir = ref "bench/perf/reference"

let spec =
  [
    ( "--workload",
      Arg.Set_string workload,
      "NAME cold-plan | warm-iterate | auto-price | serve-steady" );
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
    ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
    ( "--trace-out",
      Arg.Set_string trace_out,
      "FILE also write the traced run's spans as a Chrome trace" );
    ("--smoke", Arg.Set smoke, " tiny inputs, one cycle");
    ( "--inject-bug",
      Arg.Set inject_bug,
      " corrupt block bounds in lowering (the oracle must catch it)" );
    ( "--update-reference",
      Arg.Set update_reference,
      " rewrite the seed's reference fingerprints and exit" );
    ( "--reference-dir",
      Arg.Set_string reference_dir,
      "DIR committed fingerprints (default bench/perf/reference)" );
  ]

let usage = "main.exe --workload NAME [options]"

let fail_usage msg =
  prerr_endline ("perf: " ^ msg);
  Arg.usage spec usage;
  exit 2

(* Everything that could reach the library from the environment is pinned:
   no faults, no trace/metrics/log sinks, compiled leaves, one domain. *)
let pin () =
  Fault.set_default Fault.disabled;
  Obs.Trace.set_default Obs.Trace.null;
  Obs.Metrics.set_default Obs.Metrics.null;
  Obs.Log.set_default Obs.Log.null;
  Spdistal_exec.Compile_leaf.set_backend Spdistal_exec.Compile_leaf.Compiled;
  Machine.set_sim_domains 1;
  Spdistal_ir.Lower.set_debug_flip_block_bound !inject_bug

(* Nearest-rank percentile. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* Checking ops against the oracle                                      *)
(* ------------------------------------------------------------------ *)

type verdicts = {
  expected : (string, string) Hashtbl.t;
  bad : (string, string) Hashtbl.t;  (** labels whose oracle itself failed *)
  mutable attempted : int;
  mutable failed : int;
}

let report_failure label msg = Printf.eprintf "perf: FAIL %s: %s\n%!" label msg

(* A label with no expected fingerprint (a serve session beyond the ones
   the oracle ran) takes its first result and must repeat it. *)
let judge v label (fp : Workloads.fingerprint) =
  v.attempted <- v.attempted + 1;
  let ok =
    match (fp, Hashtbl.find_opt v.bad label) with
    | Error msg, _ | Ok _, Some msg ->
        report_failure label msg;
        false
    | Ok got, None -> (
        match Hashtbl.find_opt v.expected label with
        | None ->
            Hashtbl.replace v.expected label got;
            true
        | Some want when want = got -> true
        | Some want ->
            report_failure label
              (Printf.sprintf "result %s, oracle %s" got want);
            false)
  in
  if not ok then v.failed <- v.failed + 1

(* The oracle's fingerprints, cross-checked against the committed ones
   when they exist; a label whose reference failed or disagrees fails every
   op that carries it. *)
let verdicts ~oracle ~reference =
  let v =
    {
      expected = Hashtbl.create 128;
      bad = Hashtbl.create 8;
      attempted = 0;
      failed = 0;
    }
  in
  List.iter
    (fun (l, fp) ->
      match fp with
      | Ok fp -> Hashtbl.replace v.expected l fp
      | Error e -> Hashtbl.replace v.bad l ("reference run failed: " ^ e))
    oracle;
  List.iter
    (fun (l, want) ->
      match Hashtbl.find_opt v.expected l with
      | Some got when got <> want ->
          Hashtbl.replace v.bad l
            (Printf.sprintf "reference run %s, committed %s" got want)
      | Some _ -> ()
      | None -> Hashtbl.replace v.expected l want)
    reference;
  v

(* ------------------------------------------------------------------ *)
(* The measured loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Ops in order, round and round, until [budget] seconds have passed and
   [min_ops] ops ran, stopping only at a multiple of [cycle] ops so the
   mix of op kinds stays balanced.  The calibration kernel runs before the
   first op and after every op; returns each op's wall seconds scaled to
   the reference host speed. *)
let loop ~budget ~min_ops (w : Workloads.t) call =
  let ops = Array.of_list w.Workloads.ops in
  let lats = ref [] and kernels = ref [ Calib.measure () ] and n = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    let op = ops.(!n mod Array.length ops) in
    op.Workloads.reset ();
    lats := call op :: !lats;
    kernels := Calib.measure () :: !kernels;
    incr n;
    if
      !n mod w.Workloads.cycle <> 0
      || Unix.gettimeofday () -. t0 < budget
      || !n < min_ops
    then go ()
  in
  go ();
  let kernels = Array.of_list (List.rev !kernels) in
  Array.of_list (List.rev !lats)
  |> Array.mapi (fun i t -> t *. Calib.scale kernels i)

let untraced v (op : Workloads.op) =
  let t0 = Unix.gettimeofday () in
  match op.Workloads.run () with
  | thunk ->
      let dt = Unix.gettimeofday () -. t0 in
      judge v op.Workloads.label (thunk ());
      dt
  | exception e ->
      let dt = Unix.gettimeofday () -. t0 in
      judge v op.Workloads.label (Error (Printexc.to_string e));
      dt

let traced v prof (op : Workloads.op) =
  let before = Prof.total_s prof "op" in
  judge v op.Workloads.label
    (try op.Workloads.traced prof with e -> Error (Printexc.to_string e));
  Prof.total_s prof "op" -. before

let ops_per_s lats = float_of_int (Array.length lats) /. Array.fold_left ( +. ) 0. lats

(* ------------------------------------------------------------------ *)
(* Output                                                                *)
(* ------------------------------------------------------------------ *)

let print_result ~correct v metrics =
  let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  let ms =
    List.map
      (fun (name, unit, x) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num x) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct v.attempted v.failed (String.concat ", " ms)

(* Per-layer metrics, each a per-op mean over the traced phase.  Times are
   self seconds unless the name says otherwise; [*_s] names without [self]
   are the span's inclusive time. *)
let layer_metrics prof ~traced ~untraced ~setups ~oracle_s =
  let ops = Array.length traced in
  let op_s = Prof.total_s prof "op" in
  (* Span times are raw wall seconds; the traced phase's mean host-speed
     factor puts them on the same scale as the op times. *)
  let scale = Array.fold_left ( +. ) 0. traced /. op_s in
  let per_op x = x /. float_of_int (max 1 ops) in
  let self name = scale *. per_op (Prof.self_s prof name) in
  let total name = scale *. per_op (Prof.total_s prof name) in
  let mw name = per_op (Prof.self_mw prof name) in
  let count name = per_op (Prof.counter prof name) in
  let setup f = Calib.median (List.map f setups) in
  let traced_ops_per_s = ops_per_s traced
  and untraced_ops_per_s = ops_per_s untraced in
  [
    ("setup.generate_s", "s", setup fst);
    ("setup.build_s", "s", setup snd);
    ("setup.oracle_s", "s", oracle_s);
    ("placement.self_s", "s/op", self "placement");
    ("placement.alloc_mw", "Mw/op", mw "placement");
    ("lower.self_s", "s/op", self "lower");
    ("lower.alloc_mw", "Mw/op", mw "lower");
    ("part_eval.self_s", "s/op", self "part_eval");
    ("part_eval.alloc_mw", "Mw/op", mw "part_eval");
    ("part_eval.parts", "count/op", count "part_eval.parts");
    ("part_eval.dep_ops", "count/op", count "part_eval.dep_ops");
    ("part_eval.dep_elems", "count/op", count "part_eval.dep_elems");
    ("compile_leaf.compile_s", "s/op", self "compile_leaf.compile");
    ("compile_leaf.alloc_mw", "Mw/op", mw "compile_leaf.compile");
    ("compile_leaf.exec_s", "s/op", self "compile_leaf.exec");
    ("interp.run_s", "s/op", total "interp.run");
    ( "interp.other_s",
      "s/op",
      Float.max 0. (total "interp.run" -. self "compile_leaf.exec") );
    ("interp.alloc_mw", "Mw/op", mw "interp.run");
    ("interp.launches", "count/op", count "interp.launches");
    ("interp.pieces", "count/op", count "interp.pieces");
    ("search.candidates_s", "s/op", self "search.candidates");
    ("search.candidates", "count/op", count "search.candidates");
    ("price.self_s", "s/op", self "price");
    ("price.alloc_mw", "Mw/op", mw "price");
    ("price.max_candidate_s", "s/op", scale *. count "price.max_candidate_s");
    ("price.infeasible", "count/op", count "price.infeasible");
    ("price.part_ops", "count/op", count "price.part_ops");
    ("cache.digest_s", "s/op", self "cache.digest");
    ("cache.find_s", "s/op", self "cache.find");
    ("cache.hits", "count/op", count "cache.hits");
    ("cache.misses", "count/op", count "cache.misses");
    ("cache.evictions", "count/op", count "cache.evictions");
    ("cache.bytes_peak", "B/op", count "cache.bytes_peak");
    ("context.restore_s", "s/op", self "context.restore");
    ("context.cold_build_s", "s/op", total "context.cold_build");
    ("server.run_s", "s/op", total "server.run");
    ("server.context_s", "s/op", self "server.context");
    ("server.cold_build_s", "s/op", total "server.cold_build");
    ("server.other_s", "s/op", self "server.run");
    ("server.completed", "count/op", count "server.completed");
    ("server.shed", "count/op", count "server.shed");
    ("sim.total_s", "sim_s/op", count "sim.total_s");
    ("sim.comm_bytes", "B/op", count "sim.comm_bytes");
    ("sim.launches", "count/op", count "sim.launches");
    ("trace.coverage", "ratio", 1. -. (Prof.self_s prof "op" /. op_s));
    ("trace.ops_per_s", "1/s", traced_ops_per_s);
    ("trace.untraced_ops_per_s", "1/s", untraced_ops_per_s);
    ( "trace.overhead_pct",
      "%",
      100. *. ((untraced_ops_per_s /. traced_ops_per_s) -. 1.) );
  ]

(* Median wall time of each op label, for workloads with few labels;
   [lats] are in cycle order. *)
let print_labels (ops : Workloads.op list) lats =
  let k = List.length ops in
  if k <= 20 then
    List.iteri
      (fun i (op : Workloads.op) ->
        let mine = List.filteri (fun j _ -> j mod k = i) (Array.to_list lats) in
        Printf.printf "  %-16s %10.3f ms\n" op.Workloads.label
          (1e3 *. Calib.median mine))
      ops

let print_layers prof ~ops =
  let op_s = Prof.total_s prof "op" in
  Printf.printf "%-24s %14s %8s %12s\n" "layer" "self wall ms/op" "share"
    "Mw/op";
  List.iter
    (fun (name, (l : Prof.layer)) ->
      Printf.printf "%-24s %14.3f %7.1f%% %12.3f\n" name
        (1e3 *. l.Prof.self_s /. float_of_int ops)
        (if op_s > 0. then 100. *. l.Prof.self_s /. op_s else 0.)
        (l.Prof.self_w /. 1e6 /. float_of_int ops))
    (Prof.by_self prof)

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> fail_usage ("unexpected argument " ^ a)) usage;
  let setup =
    match List.assoc_opt !workload Workloads.all with
    | Some f -> f
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace takes 0 or 1";
  if !update_reference && !seed <> 1 then
    fail_usage "references are kept for seed 1 only";
  pin ();
  Calib.warm_up ();
  let reference_path =
    Check.path ~dir:!reference_dir ~workload:!workload ~smoke:!smoke
  in
  (* Set-up (inputs, problems, warm-up) is repeated and its median
     reported; only the last one is kept.  The reference runs happen once. *)
  let reps = if !smoke then 1 else 3 in
  let kept = ref None in
  let setups =
    List.init reps (fun _ ->
        kept := None;
        Gc.compact ();
        let w, raw, scaled =
          Calib.around (fun () -> setup ~seed:!seed ~smoke:!smoke)
        in
        kept := Some w;
        let k = scaled /. raw in
        (scaled, (k *. w.Workloads.generate_s, k *. w.Workloads.build_s)))
  in
  let w = Option.get !kept in
  let setup_s = Calib.median (List.map fst setups) in
  let oracle, _, oracle_s = Calib.around w.Workloads.oracle in
  let reference =
    if !seed = 1 && not !update_reference then
      Option.value ~default:[] (Check.load reference_path)
    else []
  in
  let v = verdicts ~oracle ~reference in
  if !update_reference then begin
    ignore (loop ~budget:0. ~min_ops:(List.length w.Workloads.ops) w (untraced v));
    if v.failed > 0 then exit 1;
    Check.save reference_path
      (List.map
         (fun (op : Workloads.op) ->
           (op.Workloads.label, Hashtbl.find v.expected op.Workloads.label))
         w.Workloads.ops);
    Printf.printf "wrote %s\n" reference_path;
    exit 0
  end;
  let budget = if !smoke then 0. else !seconds in
  let min_ops =
    if !smoke then 0 else w.Workloads.cycles * w.Workloads.cycle
  in
  Gc.compact ();
  if !trace = 0 then begin
    let lats = loop ~budget ~min_ops w (untraced v) in
    let sorted = Array.copy lats in
    Array.sort compare sorted;
    let peak_mb =
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6
    in
    Printf.printf "%s seed %d: %d ops, %d failed\n" !workload !seed v.attempted
      v.failed;
    print_labels w.Workloads.ops lats;
    print_result ~correct:(v.failed = 0) v
      [
        ("setup_s", "s", setup_s);
        ("op_p50_ms", "ms", 1e3 *. percentile sorted 0.5);
        ("op_p90_ms", "ms", 1e3 *. percentile sorted 0.9);
        ("ops_per_s", "1/s", ops_per_s lats);
        ("peak_heap_mb", "MB", peak_mb);
      ]
  end
  else begin
    (* Half the budget untraced, half traced: the ratio of their rates is
       the tracing overhead. *)
    let untraced_lats =
      loop ~budget:(budget /. 2.) ~min_ops:0 w (untraced v)
    in
    w.Workloads.prepare_trace ();
    let prof = Prof.create () in
    Gc.compact ();
    let traced_lats =
      loop ~budget:(budget /. 2.) ~min_ops:0 w (traced v prof)
    in
    (match Obs.Chrome_trace.validate (Obs.Chrome_trace.to_json prof.Prof.trace) with
    | Ok () -> ()
    | Error e ->
        report_failure "trace" e;
        v.failed <- v.failed + 1);
    if !trace_out <> "" then
      Obs.Chrome_trace.write prof.Prof.trace ~path:!trace_out;
    print_layers prof ~ops:(Array.length traced_lats);
    print_result ~correct:(v.failed = 0) v
      (layer_metrics prof ~traced:traced_lats ~untraced:untraced_lats
         ~setups:(List.map snd setups) ~oracle_s)
  end;
  exit (if v.failed = 0 then 0 else 1)
