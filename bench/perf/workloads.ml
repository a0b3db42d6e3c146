(* The benchmark's four workloads.  Each builds its inputs from the seed,
   warms up, and hands back its ops together with the reference runs that
   give every op label its expected fingerprint.  Why each workload exists:

   - cold-plan: the first [Spdistal.run] of a cell — placement, lowering,
     dependent partitioning and execution — so partitioning and index-set
     work shows here;
   - warm-iterate: one [Context.run] iteration on a warm context, the
     iterative-solver path: partitioning does no work, leaf execution,
     stitching and reduction do;
   - auto-price: [Auto.choose] without a cache, the time to a schedule
     decision; no leaf runs, pricing and candidate partitioning dominate;
   - serve-steady: whole [Server.run] sessions, the only path where the
     shared byte-budgeted cache takes cold misses and LRU evictions beside
     hits, and where admission and bookkeeping are on the path. *)

open Spdistal_exec
module S = Core.Spdistal
module R = Spdistal_experiments.Runner
module Synth = Spdistal_workloads.Synth
module Server = Spdistal_serve.Server
module Workload = Spdistal_serve.Workload
module Catalog = Spdistal_serve.Catalog

type fingerprint = (string, string) result

type op = {
  label : string;
  reset : unit -> unit;  (** untimed, before every call *)
  run : unit -> unit -> fingerprint;
      (** the timed public call; the thunk it returns fingerprints the
          result and runs untimed *)
  traced : Prof.t -> fingerprint;
      (** the same op replicated layer by layer under spans *)
}

type t = {
  ops : op list;  (** run in order, round and round *)
  cycle : int;
      (** a measured phase ends only after a multiple of this many ops, so
          op kinds of different cost stay equally represented *)
  cycles : int;
      (** the fewest cycles a full-size run measures: at least 100 ops, so
          at least 10 lie beyond the p90 *)
  generate_s : float;  (** making the inputs from the seed *)
  build_s : float;  (** building problems and contexts, warm-up runs *)
  oracle : unit -> (string * fingerprint) list;
      (** label -> expected fingerprint, from reference runs; run once *)
  prepare_trace : unit -> unit;  (** replica state the traced run needs *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let guard f = try f () with e -> Error (Printexc.to_string e)

let fingerprint p r () = guard (fun () -> Ok (Check.run_fingerprint p r))

(* ------------------------------------------------------------------ *)
(* cold-plan and warm-iterate: 11 cells                                 *)
(* ------------------------------------------------------------------ *)

(* A power-law matrix and a skewed 3-tensor, the structure classes of the
   arabic-2005 and freebase_music analogs, at the same sizes. *)
let cell_inputs ~seed ~smoke =
  let rows, m_nnz, dims, t_nnz =
    if smoke then (400, 4_000, [| 60; 60; 20 |], 4_000)
    else (10_000, 190_000, [| 1_400; 1_400; 200 |], 330_000)
  in
  ( Synth.power_law ~name:"B" ~rows ~cols:rows ~nnz:m_nnz ~alpha:1.0
      ~seed:(1000 + seed),
    Synth.tensor3_skewed ~name:"B" ~dims ~nnz:t_nnz ~alpha:1.2
      ~seed:(2000 + seed) )

type cell = {
  c_label : string;
  c_problem : S.problem;
  c_pristine : Operand.data;  (** the output before any run *)
}

(* Every kernel on 4 CPU nodes (row schedules) and 4 GPUs (non-zero
   schedules), except SDDMM on GPUs, which runs out of memory. *)
let cells ~smoke (matrix, tensor) =
  let cols = if smoke then 4 else 32 in
  let on machine tag kernels =
    List.map
      (fun kernel ->
        let t =
          if List.mem kernel R.kernels_for_tensor3 then tensor else matrix
        in
        let p = R.problem_for ~kernel ~machine ~cols t in
        {
          c_label = String.lowercase_ascii (R.kernel_name kernel) ^ "-" ^ tag;
          c_problem = p;
          c_pristine = Operand.copy_data (Replica.out_slot p).Operand.data;
        })
      kernels
  in
  on (R.cpu_machine ~nodes:4) "cpu" R.all_kernels
  @ on (R.gpu_machine ~gpus:4) "gpu"
      (List.filter (fun k -> k <> R.Sddmm) R.all_kernels)

let reset c () =
  (Replica.out_slot c.c_problem).Operand.data <- Operand.copy_data c.c_pristine

(* [build] turns a cell into its op; [reference] computes the cell's
   expected fingerprint under the interpreter leaf backend. *)
let cell_workload ~seed ~smoke ~cycles ~build ~reference ~prepare_trace =
  let inputs, generate_s = timed (fun () -> cell_inputs ~seed ~smoke) in
  let built, build_s =
    timed (fun () ->
        List.map (fun c -> (c, build c)) (cells ~smoke inputs))
  in
  {
    ops = List.map snd built;
    cycle = List.length built;
    cycles;
    generate_s;
    build_s;
    oracle =
      (fun () ->
        List.map
          (fun (c, _) ->
            reset c ();
            (c.c_label, guard (fun () -> Ok (reference c))))
          built);
    prepare_trace = (fun () -> List.iter (fun (c, _) -> prepare_trace c) built);
  }

let cold_plan ~seed ~smoke =
  let build c =
    let p = c.c_problem in
    {
      label = c.c_label;
      reset = reset c;
      run = (fun () -> fingerprint p (S.run p));
      traced =
        (fun prof ->
          let r, prepared = Replica.cold_run prof p in
          let fp = fingerprint p r () in
          Replica.exec_leaves prof p ~pristine:c.c_pristine prepared;
          fp);
    }
  in
  let reference c =
    Check.run_fingerprint c.c_problem
      (S.run ~leaf_backend:Compile_leaf.Interp c.c_problem)
  in
  cell_workload ~seed ~smoke ~cycles:10 ~build ~reference ~prepare_trace:ignore

let warm_iterate ~seed ~smoke =
  let replicas = Hashtbl.create 16 in
  let build c =
    let p = c.c_problem in
    reset c ();
    let ctx = S.Context.create p in
    let rctx = Replica.context ~cache:(Cache.create ()) p in
    Hashtbl.replace replicas c.c_label rctx;
    (* Warmed by one cold iteration. *)
    ignore (S.Context.run ctx);
    {
      label = c.c_label;
      reset = ignore;
      run = (fun () -> fingerprint p (S.Context.run ctx));
      traced =
        (fun prof ->
          let r, entry =
            Prof.span prof "op" (fun () ->
                Replica.context_run prof ~cold_span:"context.cold_build" rctx)
          in
          let fp = fingerprint p r () in
          Replica.exec_leaves prof p ~pristine:c.c_pristine
            entry.Cache.e_prepared;
          fp);
    }
  in
  (* The cold iteration only builds the plan; the warm one relinks it to
     the interpreter leaves and is the reference. *)
  let reference c =
    let ctx = S.Context.create c.c_problem in
    ignore (S.Context.run ctx);
    Check.run_fingerprint c.c_problem
      (S.Context.run ~leaf_backend:Compile_leaf.Interp ctx)
  in
  (* The replica's own cold iteration, outside any measured span, from the
     pristine output a fresh context starts with. *)
  let prepare_trace c =
    reset c ();
    ignore
      (Replica.context_run (Prof.create ()) ~cold_span:"context.cold_build"
         (Hashtbl.find replicas c.c_label))
  in
  (* Warm ops are cheap and their median sits among four cells of similar
     cost, so the run takes more cycles than the minimum. *)
  cell_workload ~seed ~smoke ~cycles:15 ~build ~reference ~prepare_trace

(* ------------------------------------------------------------------ *)
(* auto-price: the six kernels on 4 CPU nodes, SpMM on 4 GPUs           *)
(* ------------------------------------------------------------------ *)

let auto_fingerprint = function
  | Some (label, total) ->
      Ok (Printf.sprintf "%s total=%s" label (Check.hex total))
  | None -> Ok "no feasible candidate"

let auto_price ~seed ~smoke =
  let rows, m_nnz, dims, t_nnz =
    if smoke then (200, 2_000, [| 40; 40; 20 |], 2_000)
    else (1_500, 22_500, [| 187; 187; 100 |], 22_500)
  in
  let (matrix, tensor), generate_s =
    timed (fun () ->
        ( Synth.power_law ~name:"B" ~rows ~cols:rows ~nnz:m_nnz ~alpha:1.0
            ~seed:(3000 + seed),
          Synth.tensor3_skewed ~name:"B" ~dims ~nnz:t_nnz ~alpha:1.2
            ~seed:(4000 + seed) ))
  in
  let build (kernel, machine, tag) =
    let t = if List.mem kernel R.kernels_for_tensor3 then tensor else matrix in
    let p = R.problem_for ~kernel ~machine ~cols:(if smoke then 4 else 32) t in
    let choose () =
      Option.map
        (fun c -> (c.Spdistal_opt.Auto.ch_label, c.Spdistal_opt.Auto.ch_total))
        (Spdistal_opt.Auto.choose p)
    in
    ( {
        label = String.lowercase_ascii (R.kernel_name kernel) ^ "-" ^ tag;
        reset = ignore;
        run =
          (fun () ->
            let c = choose () in
            fun () -> auto_fingerprint c);
        traced = (fun prof -> auto_fingerprint (Replica.auto_choose prof p));
      },
      p )
  in
  (* An odd number of cells puts the p50 in the middle of one cell's
     samples instead of on the edge between two cells of different cost. *)
  let cells =
    List.map (fun k -> (k, R.cpu_machine ~nodes:4, "cpu")) R.all_kernels
    @ [ (R.Spmm, R.gpu_machine ~gpus:4, "gpu") ]
  in
  let built, build_s = timed (fun () -> List.map build cells) in
  {
    ops = List.map fst built;
    cycle = List.length built;
    cycles = 15;
    generate_s;
    build_s;
    (* The reference prices every candidate through [Search] and [Price]
       directly and picks the winner itself. *)
    oracle =
      (fun () ->
        List.map
          (fun (op, p) ->
            ( op.label,
              guard (fun () ->
                  auto_fingerprint (Replica.auto_choose (Prof.create ()) p)) ))
          built);
    prepare_trace = ignore;
  }

(* ------------------------------------------------------------------ *)
(* serve-steady: Server.run sessions over Zipf/Poisson traces           *)
(* ------------------------------------------------------------------ *)

let session_fingerprint (s : Replica.session) =
  if List.mem "failed" s.Replica.outcomes then Error "a job failed"
  else Ok (Replica.session_fingerprint s)

let serve_steady ~seed ~smoke =
  let sessions, jobs = if smoke then (2, 20) else (100, 100) in
  let traces, generate_s =
    timed (fun () ->
        (* The catalog's tensors are fixed and memoized for the process. *)
        List.iter (fun e -> ignore (Lazy.force e.Catalog.c_tensor)) Catalog.all;
        List.init sessions (fun i ->
            Workload.generate
              ~gen:
                {
                  Workload.default_gen with
                  Workload.g_seed = seed + i;
                  g_jobs = jobs;
                  g_rate = 300.;
                }
              ~catalog:Catalog.names ()))
  in
  let session w () = Replica.session_of_report (Server.run Server.default_config w) in
  let ops =
    List.mapi
      (fun i w ->
        {
          label = Printf.sprintf "session-%03d" i;
          reset = ignore;
          run =
            (fun () ->
              let s = session w () in
              fun () -> session_fingerprint s);
          traced = (fun prof -> session_fingerprint (Replica.serve prof w));
        })
      traces
  in
  let first = List.hd traces in
  let (), build_s = timed (fun () -> ignore (session first ())) in
  {
    ops;
    (* Sessions are draws from one distribution. *)
    cycle = 1;
    cycles = sessions;
    generate_s;
    build_s;
    (* Sessions past the first are checked for repeating their first
       result (and, for seed 1, against the committed reference). *)
    oracle =
      (fun () ->
        [
          ( (List.hd ops).label,
            guard (fun () ->
                session_fingerprint
                  (Replica.session_of_report
                     (Server.run ~leaf_backend:Compile_leaf.Interp
                        Server.default_config first))) );
        ]);
    prepare_trace = ignore;
  }

let all =
  [
    ("cold-plan", cold_plan);
    ("warm-iterate", warm_iterate);
    ("auto-price", auto_price);
    ("serve-steady", serve_steady);
  ]
