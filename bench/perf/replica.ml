(* The traced run's replicas: each op's chain of public calls, made one
   layer at a time from the benchmark so that every call sits inside its
   own span.  Each replica must reproduce the untraced op's simulated
   results bit for bit; the workloads check that through the op's
   fingerprint.  Only fault-free, single-backend (compiled) paths are
   replicated, because the benchmark pins exactly those. *)

open Spdistal_runtime
open Spdistal_ir
open Spdistal_exec
module S = Core.Spdistal
module Trace = Spdistal_obs.Trace

let out_slot (p : S.problem) =
  Operand.find (S.bindings p) p.S.stmt.Tin.lhs.Tin.tensor

(* Placement, lowering, partition evaluation and leaf specialization: what
   [Spdistal.run] and a cold [Context.run] do before executing, with the
   partitioning work tallied the way the execution context tallies it. *)
let build prof (p : S.problem) =
  let b = S.bindings p in
  let stats = Part_eval.stats () in
  let placement =
    Prof.span prof "placement" (fun () ->
        List.map
          (fun (name, _, tdn) ->
            (name, Placement.of_tdn ~stats ~machine:p.S.machine ~bindings:b name tdn))
          p.S.operands)
  in
  let prog = Prof.span prof "lower" (fun () -> S.compile ~trace:Trace.null p) in
  let penv = Part_eval.create b in
  let loops =
    Prof.span prof "part_eval" (fun () -> Part_eval.eval_partitions penv prog)
  in
  Part_eval.accum_stats stats penv;
  let leaves =
    Prof.span prof "compile_leaf.compile" (fun () ->
        List.map
          (function
            | Loop_ir.Distributed_for { leaf; _ } ->
                Some (Compile_leaf.compile ~bindings:b leaf)
            | _ -> None)
          loops)
  in
  Prof.count prof "part_eval.parts" stats.Part_eval.s_parts;
  Prof.count prof "part_eval.dep_ops" stats.Part_eval.s_dep_ops;
  Prof.count prof "part_eval.dep_elems" stats.Part_eval.s_dep_elems;
  let prepared =
    {
      Interp.pp_penv = penv;
      pp_loops = loops;
      pp_leaves = leaves;
      pp_backend = Compile_leaf.Compiled;
    }
  in
  (placement, prog, prepared, stats)

(* [Interp.run] on a prepared program, counting what it launched. *)
let interp_run prof (p : S.problem) ~placement ~memstate ~cost ~prepared prog =
  let launches = List.length prepared.Interp.pp_loops in
  Prof.count prof "interp.launches" launches;
  Prof.count prof "interp.pieces" (launches * Machine.pieces p.S.machine);
  Prof.span prof "interp.run" (fun () ->
      Interp.run ~machine:p.S.machine ~bindings:(S.bindings p) ~placement
        ~memstate ~cost ~trace:Trace.null ~prepared prog)

let note_cost prof (c : Cost.t) =
  Prof.add prof "sim.total_s" (Cost.total c);
  Prof.add prof "sim.comm_bytes" c.Cost.bytes_moved;
  Prof.count prof "sim.launches" c.Cost.launches

(* [Spdistal.run p]: the single-shot protocol, partitioning uncharged. *)
let cold_run prof (p : S.problem) =
  Prof.span prof "op" (fun () ->
      let placement, prog, prepared, _ = build prof p in
      let cost = Cost.create () in
      let memstate = Memstate.create p.S.machine ~uvm:false in
      let dnc =
        match interp_run prof p ~placement ~memstate ~cost ~prepared prog with
        | () -> None
        | exception Memstate.Oom reason -> Some reason
      in
      note_cost prof cost;
      ({ S.cost; dnc; iters = []; crashed = [] }, prepared))

(* Leaf execution alone: every piece of every launch through
   [Compile_leaf.execute], writing into a scratch copy of [pristine] so the
   real output is untouched.  Piece shards are selected the way
   [Interp.run] selects them. *)
let exec_leaves prof (p : S.problem) ~pristine (prepared : Interp.prepared) =
  let slot = out_slot p in
  let real = slot.Operand.data in
  slot.Operand.data <- Operand.copy_data pristine;
  let pieces = Machine.pieces p.S.machine in
  let grid = p.S.machine.Machine.grid in
  let subset_for part c =
    Partition.subset part (Interp.color_for ~grid ~pieces part c)
  in
  let part name = Part_eval.find_partition prepared.Interp.pp_penv name in
  Fun.protect
    ~finally:(fun () -> slot.Operand.data <- real)
    (fun () ->
      Prof.span prof "compile_leaf.exec" (fun () ->
          List.iter2
            (fun stmt compiled ->
              match (stmt, compiled) with
              | Loop_ir.Distributed_for { shard_parts; leaf; _ }, Some cl ->
                  for c = 0 to pieces - 1 do
                    let shard_vals tname =
                      subset_for (part (List.assoc tname shard_parts)) c
                    in
                    let rows =
                      Option.map
                        (fun pname -> subset_for (part pname) c)
                        leaf.Loop_ir.leaf_row_part
                    in
                    let col_range =
                      if leaf.Loop_ir.col_split > 1 then
                        let py = grid.(1) in
                        let cy = c mod py in
                        let e =
                          Operand.dim slot.Operand.data
                            (Operand.order slot.Operand.data - 1)
                        in
                        Some ((cy * e / py, ((cy + 1) * e / py) - 1))
                      else None
                    in
                    ignore
                      (Compile_leaf.execute cl ~shard_vals ~rows ~col_range ())
                  done
              | _ -> ())
            prepared.Interp.pp_loops prepared.Interp.pp_leaves))

(* A warm-start execution context over a cache the benchmark owns. *)
type context = {
  problem : S.problem;
  cache : Cache.t;
  pristine : Operand.data;
  mutable ran : bool;
}

let context ~cache (p : S.problem) =
  { problem = p; cache; pristine = Operand.copy_data (out_slot p).Operand.data; ran = false }

let entry_of ~key (p : S.problem) (placement, prog, prepared, stats) =
  let launches = List.length prepared.Interp.pp_loops in
  {
    Cache.e_key = key;
    e_placement = placement;
    e_prog = prog;
    e_prepared = prepared;
    e_launches = launches;
    e_part_seconds = Cache.partition_seconds p.S.machine stats;
    e_part_ops = stats.Part_eval.s_parts + stats.Part_eval.s_dep_ops;
    e_part_elems = stats.Part_eval.s_dep_elems;
    e_bytes =
      Cache.approx_bytes
        ~pieces:(Machine.pieces p.S.machine)
        ~launches ~part_elems:stats.Part_eval.s_dep_elems;
    e_hits = 0;
  }

(* One iteration of [Context.run]: restore the output, look the plan up
   (building and caching it on a miss, which charges partitioning), run. *)
let context_run prof ~cold_span ctx =
  let p = ctx.problem in
  let cost = Cost.create () in
  let was_run = ctx.ran in
  ctx.ran <- true;
  let memstate = Memstate.create p.S.machine ~uvm:false in
  if was_run then
    Prof.span prof "context.restore" (fun () ->
        (out_slot p).Operand.data <- Operand.copy_data ctx.pristine);
  let key =
    Prof.span prof "cache.digest" (fun () ->
        Cache.digest ~machine:p.S.machine ~operands:p.S.operands
          ~stmt:p.S.stmt ~schedule:p.S.schedule)
  in
  let entry =
    match Prof.span prof "cache.find" (fun () -> Cache.find ctx.cache key) with
    | Some e -> e
    | None ->
        let e =
          Prof.span prof cold_span (fun () -> entry_of ~key p (build prof p))
        in
        Cache.add ctx.cache e;
        Cost.add_partitioning cost ~ops:e.Cache.e_part_ops e.Cache.e_part_seconds;
        e
  in
  let dnc =
    match
      interp_run prof p ~placement:entry.Cache.e_placement ~memstate ~cost
        ~prepared:entry.Cache.e_prepared entry.Cache.e_prog
    with
    | () -> None
    | exception Memstate.Oom reason -> Some reason
  in
  note_cost prof cost;
  ({ S.cost; dnc; iters = []; crashed = [] }, entry)

(* [Auto.choose p] without a cache: price every search candidate and then
   the hand schedule; the first strictly cheapest feasible one wins. *)
let auto_choose prof (p : S.problem) =
  let module Search = Spdistal_opt.Search in
  let module Price = Spdistal_opt.Price in
  Prof.span prof "op" (fun () ->
      let cands = Prof.span prof "search.candidates" (fun () -> Search.candidates p) in
      let hand =
        {
          Search.c_label = "hand";
          c_schedule = p.S.schedule;
          c_tdns = List.map (fun (n, _, tdn) -> (n, tdn)) p.S.operands;
        }
      in
      let cands = cands @ [ hand ] in
      Prof.count prof "search.candidates" (List.length cands);
      let slowest = ref 0. in
      let best =
        List.fold_left
          (fun best c ->
            let t0 = Unix.gettimeofday () in
            let priced = Prof.span prof "price" (fun () -> Price.price (Search.apply p c)) in
            slowest := Float.max !slowest (Unix.gettimeofday () -. t0);
            match (best, priced) with
            | _, Error _ ->
                Prof.count prof "price.infeasible" 1;
                best
            | None, Ok pr -> Some (c, pr)
            | Some (_, b), Ok pr when pr.Price.pr_total < b.Price.pr_total ->
                Some (c, pr)
            | Some _, Ok _ -> best)
          None cands
      in
      Prof.add prof "price.max_candidate_s" !slowest;
      Option.iter
        (fun (_, pr) ->
          Prof.count prof "price.part_ops" pr.Price.pr_part_ops;
          note_cost prof pr.Price.pr_cost)
        best;
      Option.map (fun (c, pr) -> (c.Search.c_label, pr.Price.pr_total)) best)

(* The simulated fields of a serve session, as both [Server.run] and the
   replica below produce them. *)
type session = {
  outcomes : string list;  (** per job, trace order: label and hex time *)
  busy : float;
  cache : Cache.stats;
}

let outcome_of = function
  | Spdistal_serve.Server.Completed r -> "completed " ^ Check.hex r
  | Spdistal_serve.Server.Deadline_exceeded c -> "deadline " ^ Check.hex c
  | o -> Spdistal_serve.Server.outcome_label o

let session_of_report (r : Spdistal_serve.Server.report) =
  let module Server = Spdistal_serve.Server in
  {
    outcomes =
      List.map (fun l -> outcome_of l.Server.l_outcome) r.Server.r_log;
    busy = r.Server.r_busy;
    cache = r.Server.r_cache;
  }

let session_fingerprint s =
  let c = s.cache in
  let count word =
    List.length (List.filter (fun o -> String.starts_with ~prefix:word o) s.outcomes)
  in
  Printf.sprintf
    "completed=%d deadline=%d shed=%d jobs=%s busy=%s hits=%d misses=%d \
     evictions=%d peak=%d"
    (count "completed") (count "deadline")
    (List.length s.outcomes - count "completed" - count "deadline")
    (Digest.to_hex (Digest.string (String.concat "\n" s.outcomes)))
    (Check.hex s.busy) c.Cache.hits c.Cache.misses c.Cache.evictions
    c.Cache.bytes_peak

(* [Server.run Server.default_config w]: one FCFS lane on the simulated
   clock over a shared byte-budgeted cache.  Default configuration only: no
   faults (so no retries or blacklisting) and hand schedules. *)
let serve prof (w : Spdistal_serve.Workload.t) =
  let module Server = Spdistal_serve.Server in
  let module Workload = Spdistal_serve.Workload in
  let module Admission = Spdistal_serve.Admission in
  let cfg = Server.default_config in
  Prof.span prof "op" @@ fun () ->
  Prof.span prof "server.run" (fun () ->
      let cache =
        Cache.create ~cap:cfg.Server.s_cache_cap
          ?byte_budget:cfg.Server.s_cache_budget ()
      in
      let machine =
        Machine.make
          ~params:
            (Machine.scale_params Spdistal_workloads.Datasets.scale Machine.lassen)
          ~kind:Machine.Cpu [| cfg.Server.s_nodes |]
      in
      let admission = Admission.create ~queue_bound:cfg.Server.s_queue_bound in
      let contexts = Hashtbl.create 16 in
      let free = ref 0. and busy = ref 0. and finishes = ref [] in
      let jobs =
        List.sort
          (fun a b -> compare a.Workload.j_arrival b.Workload.j_arrival)
          w.Workload.w_jobs
      in
      let run_job (job : Workload.job) ~start =
        let query = job.Workload.j_query in
        let deadline_abs = job.Workload.j_arrival +. job.Workload.j_deadline in
        if start >= deadline_abs then (Server.Deadline_exceeded 0., start)
        else
          let ctx =
            match Hashtbl.find_opt contexts query with
            | Some c -> c
            | None ->
                let c =
                  Prof.span prof "server.context" (fun () ->
                      context ~cache (Spdistal_serve.Catalog.problem ~machine query))
                in
                Hashtbl.replace contexts query c;
                c
          in
          let r, _ = context_run prof ~cold_span:"server.cold_build" ctx in
          let service = r.S.cost.Cost.total in
          (* The server would retry a DNC job; with faults off none occurs. *)
          Option.iter (fun reason -> failwith ("serve replica: DNC " ^ reason)) r.S.dnc;
          Admission.observe admission query service;
          if start +. service > deadline_abs then begin
            busy := !busy +. (deadline_abs -. start);
            (Server.Deadline_exceeded (deadline_abs -. start), deadline_abs)
          end
          else begin
            busy := !busy +. service;
            ( Server.Completed (start +. service -. job.Workload.j_arrival),
              start +. service )
          end
      in
      let outcomes =
        List.fold_left
          (fun acc (job : Workload.job) ->
            let arrival = job.Workload.j_arrival in
            finishes := List.filter (fun f -> f > arrival) !finishes;
            let outcome =
              match
                Admission.decide admission ~query:job.Workload.j_query
                  ~depth:(List.length !finishes)
                  ~backlog:(Float.max 0. (!free -. arrival))
                  ~deadline:job.Workload.j_deadline
              with
              | Admission.Reject err ->
                  Prof.count prof "server.shed" 1;
                  Server.Shed err
              | Admission.Admit ->
                  let outcome, finish =
                    run_job job ~start:(Float.max arrival !free)
                  in
                  free := Float.max !free finish;
                  finishes := finish :: !finishes;
                  (match outcome with
                  | Server.Completed _ -> Prof.count prof "server.completed" 1
                  | _ -> ());
                  outcome
            in
            outcome_of outcome :: acc)
          [] jobs
      in
      let cs = Cache.stats cache in
      Prof.count prof "cache.hits" cs.Cache.hits;
      Prof.count prof "cache.misses" cs.Cache.misses;
      Prof.count prof "cache.evictions" cs.Cache.evictions;
      Prof.count prof "cache.bytes_peak" cs.Cache.bytes_peak;
      { outcomes = List.rev outcomes; busy = !busy; cache = cs })
