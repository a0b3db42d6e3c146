open Spdistal_runtime
open Spdistal_ir
open Spdistal_exec

type problem = {
  machine : Machine.t;
  operands : (string * Operand.slot * Tdn.t) list;
  stmt : Tin.stmt;
  schedule : Schedule.t;
}

let machine ?params ~kind grid = Machine.make ?params ~kind grid

let problem ~machine ~operands ~stmt ~schedule =
  { machine; operands; stmt; schedule }

(* Same data, different plan: the auto-scheduler applies its chosen
   schedule and data distributions to the user's problem without touching
   the operand slots (so outputs land in the same bindings). *)
let with_schedule p ~schedule ~tdns =
  {
    p with
    schedule;
    operands =
      List.map
        (fun (n, s, tdn) ->
          (n, s, match List.assoc_opt n tdns with Some t -> t | None -> tdn))
        p.operands;
  }

let bindings p = List.map (fun (n, s, _) -> (n, s)) p.operands

module Trace = Spdistal_obs.Trace
module Metrics = Spdistal_obs.Metrics

let host_track () = Trace.Host (Domain.self () :> int)

let compile ?trace p =
  let trace = match trace with Some t -> t | None -> Trace.default () in
  Trace.with_wall_span trace ~track:(host_track ()) ~cat:"phase" ~name:"lower"
    (fun () ->
      let env = Operand.env_of_bindings (bindings p) in
      Lower.lower ~env ~grid:p.machine.Machine.grid p.stmt p.schedule)

let show p = Pretty.prog_to_string (compile p)

type cache_status = [ `Hit | `Miss | `Uncached ]

type iter_stat = {
  it_index : int;
  it_cache : cache_status;
  it_cost : Cost.t;
}

type run_result = {
  cost : Cost.t;
  dnc : string option;
  iters : iter_stat list;
  crashed : int list;
}

let set_run_meta trace p =
  if Trace.enabled trace then begin
    Trace.set_meta trace "kernel" p.stmt.Tin.lhs.Tin.tensor;
    Trace.set_meta trace "proc_kind"
      (match p.machine.Machine.kind with Machine.Cpu -> "cpu" | Machine.Gpu -> "gpu");
    Trace.set_meta trace "pieces" (string_of_int (Machine.pieces p.machine))
  end

let resolve_backend = function
  | Some b -> b
  | None -> Compile_leaf.default_backend ()

type memo = Part_eval.shared

let memo () = Part_eval.shared ()

let plan ?(memo = memo ()) ~trace ~backend p =
  let b = bindings p in
  let stats = Part_eval.stats () in
  let placement =
    Trace.with_wall_span trace ~track:(host_track ()) ~cat:"phase"
      ~name:"placement" (fun () ->
        List.map
          (fun (name, _, tdn) ->
            ( name,
              Placement.of_tdn ~stats ~shared:memo ~machine:p.machine
                ~bindings:b name tdn ))
          p.operands)
  in
  let prog = compile ~trace p in
  let prepared =
    Interp.prepare ~trace ~shared:memo ~backend ~bindings:b prog
  in
  Part_eval.accum_stats stats prepared.Interp.pp_penv;
  let launches = List.length prepared.Interp.pp_loops in
  {
    Cache.e_key = "";
    e_placement = placement;
    e_prog = prog;
    e_prepared = prepared;
    e_launches = launches;
    e_part_seconds = Cache.partition_seconds p.machine stats;
    e_part_ops = stats.Part_eval.s_parts + stats.Part_eval.s_dep_ops;
    e_part_elems = stats.Part_eval.s_dep_elems;
    e_bytes =
      Cache.approx_bytes
        ~pieces:(Machine.pieces p.machine)
        ~launches ~part_elems:stats.Part_eval.s_dep_elems;
    e_hits = 0;
  }

(* OOM and exhausted fault recovery (retries used up, or no surviving node)
   are properties of the run, not bugs: [finish ~node reason] reports them
   as a DNC cell, [node] being the node whose crashes exhausted recovery.
   Other [Error.Error] phases keep escaping. *)
let or_dnc ~finish f =
  try f () with
  | Memstate.Oom reason -> finish ~node:None reason
  | Error.Error ({ Error.phase = Error.Recovery; _ } as e) ->
      finish ~node:e.Error.node
        ("fault recovery exhausted: " ^ Error.to_string e)

let time_of r = match r.dnc with Some _ -> None | None -> Some (Cost.total r.cost)

(* ------------------------------------------------------------------ *)
(* Warm-start execution contexts                                       *)
(* ------------------------------------------------------------------ *)

module Context = struct
  module Dense = Spdistal_formats.Dense

  (* A context's cache key, kept while the inputs it was computed over are
     unchanged. *)
  type key = {
    k_key : string;
    k_gen : int;  (** [Region.generation ()] when it was computed *)
    k_inputs : Operand.data list;
        (** each input slot's data then, in operand order *)
  }

  type ctx = {
    problem : problem;
    cache : Cache.t option;
    out_name : string;
    pristine_out : Operand.data;
        (** the output operand's state at context creation, restored before
            every iteration after the first so each iteration computes
            exactly what a single application computes *)
    mutable ran : bool;  (** a previous [run] left results in the output *)
    mutable key : key option;
  }

  let create ?(cache = true) ?shared_cache p =
    let out_name = p.stmt.Tin.lhs.Tin.tensor in
    {
      problem = p;
      cache =
        (match shared_cache with
        | Some c -> Some c
        | None -> if cache then Some (Cache.create ()) else None);
      out_name;
      pristine_out =
        Operand.copy_data (Operand.find (bindings p) out_name).Operand.data;
      ran = false;
      key = None;
    }

  let cache_stats ctx = Option.map Cache.stats ctx.cache

  (* An input still matches the key if it is the same sparse tensor (its
     pattern unwritten, which the generation stamp covers) or a dense
     operand of the same shape: the digest reads nothing else of it. *)
  let same_input now was =
    match (now, was) with
    | Operand.Sparse a, Operand.Sparse b -> a == b
    | Operand.Vec a, Operand.Vec b -> a.Dense.n = b.Dense.n
    | Operand.Mat a, Operand.Mat b ->
        a.Dense.rows = b.Dense.rows && a.Dense.cols = b.Dense.cols
    | _ -> false

  (* The digest of the problem, computed on first use and recomputed only
     when an input slot was rebound, a dense shape changed or a pattern
     was written.  The output enters as the pristine snapshot: it is
     restored to it before every lookup. *)
  let key ctx =
    let p = ctx.problem in
    let inputs =
      List.filter_map
        (fun (n, (s : Operand.slot), _) ->
          if n = ctx.out_name then None else Some s.Operand.data)
        p.operands
    in
    let gen = Region.generation () in
    match ctx.key with
    | Some k when k.k_gen = gen && List.for_all2 same_input inputs k.k_inputs ->
        k.k_key
    | _ ->
        let operands =
          List.map
            (fun ((n, _, tdn) as op) ->
              if n = ctx.out_name then
                (n, { Operand.data = ctx.pristine_out }, tdn)
              else op)
            p.operands
        in
        let k =
          Cache.digest ~machine:p.machine ~operands ~stmt:p.stmt
            ~schedule:p.schedule
        in
        ctx.key <- Some { k_key = k; k_gen = gen; k_inputs = inputs };
        k

  let run ?(uvm = false) ?domains ?faults ?trace ?leaf_backend
      ?(iterations = 1) ctx =
    if iterations < 1 then
      Error.fail Error.Config "iterations must be >= 1 (got %d)" iterations;
    let p = ctx.problem in
    let trace = match trace with Some t -> t | None -> Trace.default () in
    let b = bindings p in
    let cost = Cost.create () in
    set_run_meta trace p;
    if Trace.enabled trace then
      Trace.set_meta trace "iterations" (string_of_int iterations);
    let fcfg =
      let c = match faults with Some c -> c | None -> Fault.default () in
      if Fault.enabled c then Some c else None
    in
    let key = lazy (key ctx) in
    let backend = resolve_backend leaf_backend in
    let stats = ref [] in
    let crashed_acc = ref [] in
    let finish dnc =
      {
        cost;
        dnc;
        iters = List.rev !stats;
        crashed = List.sort_uniq compare !crashed_acc;
      }
    in
    let was_run = ctx.ran in
    ctx.ran <- true;
    or_dnc
      ~finish:(fun ~node reason ->
        (* Transactional DNC: leaves may have written the output before the
           launch failed, so put back the pristine state. *)
        (Operand.find b ctx.out_name).Operand.data <-
          Operand.copy_data ctx.pristine_out;
        ctx.ran <- false;
        Option.iter (fun n -> crashed_acc := n :: !crashed_acc) node;
        finish (Some reason))
    @@ fun () ->
      let memstate = Memstate.create p.machine ~uvm in
      for i = 0 to iterations - 1 do
        if i > 0 || was_run then
          (Operand.find b ctx.out_name).Operand.data <-
            Operand.copy_data ctx.pristine_out;
        let before = Cost.copy cost in
        let t_start = Cost.total cost in
        let status, entry =
          match ctx.cache with
          | None -> (`Uncached, plan ~trace ~backend p)
          | Some c -> (
              let key = Lazy.force key in
              match Cache.find c key with
              | Some e -> (`Hit, e)
              | None ->
                  let e = { (plan ~trace ~backend p) with Cache.e_key = key } in
                  Cache.add c e;
                  (`Miss, e))
        in
        (* A hit prepared under the other backend keeps its partitions and
           respecializes only the leaves. *)
        if entry.Cache.e_prepared.Interp.pp_backend <> backend then
          entry.Cache.e_prepared <-
            Interp.relink ~trace ~bindings:b ~backend entry.Cache.e_prepared;
        let status_name =
          match status with
          | `Hit -> "hit"
          | `Miss -> "miss"
          | `Uncached -> "bypass"
        in
        if Trace.enabled trace then
          Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim ~cat:"cache"
            ~args:[ ("iteration", Trace.I i) ]
            ~start:t_start ~dur:0. ("cache_" ^ status_name);
        (if status = `Uncached then
           let m = Metrics.default () in
           if Metrics.enabled m then
             Metrics.inc m
               ~help:"iterations that skipped the launch-plan cache"
               "spdistal_cache_bypass_total");
        (* Dependent partitioning is charged only when it actually ran: on
           the cold miss (and on every iteration of an uncached run).  Warm
           iterations reuse the cached partitions for free — the paper's
           (and Legion's) amortization. *)
        if status <> `Hit then begin
          Cost.add_partitioning cost ~ops:entry.Cache.e_part_ops
            entry.Cache.e_part_seconds;
          if Trace.enabled trace then
            Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
              ~cat:"partition"
              ~args:
                [
                  ("iteration", Trace.I i);
                  ("dep_ops", Trace.I entry.Cache.e_part_ops);
                  ("elems", Trace.I entry.Cache.e_part_elems);
                ]
              ~start:t_start ~dur:entry.Cache.e_part_seconds
              "dependent_partitioning"
        end;
        Interp.run ~machine:p.machine ~bindings:b
          ~placement:entry.Cache.e_placement ~memstate ~cost ?domains ?faults
          ~trace ~prepared:entry.Cache.e_prepared
          ~launch_base:(i * entry.Cache.e_launches) entry.Cache.e_prog;
        if Trace.enabled trace then
          Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
            ~cat:"iteration"
            ~args:
              [
                ("iteration", Trace.I i);
                ("cache", Trace.S status_name);
                ( "partition_seconds",
                  Trace.F
                    (if status = `Hit then 0. else entry.Cache.e_part_seconds)
                );
              ]
            ~start:t_start
            ~dur:(Cost.total cost -. t_start)
            "iteration";
        (* Live cache pressure on its own counter track, sampled once per
           iteration (sim clock, so the series is deterministic). *)
        (if Trace.enabled trace then
           match ctx.cache with
           | Some c ->
               let s = Cache.stats c in
               Trace.counter trace ~name:"cache_bytes" ~time:(Cost.total cost)
                 [
                   ("bytes", float_of_int s.Cache.bytes);
                   ("entries", float_of_int s.Cache.entries);
                 ]
           | None -> ());
        stats :=
          { it_index = i; it_cache = status; it_cost = Cost.diff cost before }
          :: !stats;
        (* A node crash during this iteration leaves cached placements
           naming dead slots: validate survivors and drop the entry so the
           next iteration re-partitions (and pays for it).  Crashes are
           also reported to the caller — a serving front-end blacklists
           repeat offenders across jobs. *)
        match fcfg with
        | Some cfg ->
            let crashed =
              List.init entry.Cache.e_launches (fun l ->
                  Fault.crashed_nodes cfg ~machine:p.machine
                    ~launch:((i * entry.Cache.e_launches) + l))
              |> List.concat |> List.sort_uniq compare
            in
            if crashed <> [] then begin
              crashed_acc := crashed @ !crashed_acc;
              match ctx.cache with
              | Some c ->
                  Cache.invalidate c ~machine:p.machine ~crashed
                    (Lazy.force key);
                  if Trace.enabled trace then
                    Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
                      ~cat:"cache"
                      ~args:
                        [
                          ("iteration", Trace.I i);
                          ("crashed_nodes", Trace.I (List.length crashed));
                        ]
                      ~start:(Cost.total cost) ~dur:0. "cache_invalidate"
              | None -> ()
            end
        | None -> ()
      done;
      finish None
end

(* [iterations = None] is the legacy single-shot protocol: build the plan,
   execute it once as the timed steady-state iteration, partitioning at
   setup and uncharged.  Asking for an explicit iteration count switches to
   the warm-start protocol: a fresh execution context runs [n] iterations
   end-to-end, the cold first iteration paying (and every warm one
   skipping) dependent partitioning. *)
let run ?(uvm = false) ?domains ?faults ?trace ?leaf_backend ?iterations
    ?(cache = true) p =
  match iterations with
  | Some n ->
      Context.run ~uvm ?domains ?faults ?trace ?leaf_backend ~iterations:n
        (Context.create ~cache p)
  | None ->
      let trace = match trace with Some t -> t | None -> Trace.default () in
      let cost = Cost.create () in
      let result ~node dnc =
        { cost; dnc; iters = []; crashed = Option.to_list node }
      in
      set_run_meta trace p;
      or_dnc ~finish:(fun ~node reason -> result ~node (Some reason))
      @@ fun () ->
      let e = plan ~trace ~backend:(resolve_backend leaf_backend) p in
      Interp.run ~machine:p.machine ~bindings:(bindings p)
        ~placement:e.Cache.e_placement
        ~memstate:(Memstate.create p.machine ~uvm) ~cost ?domains ?faults
        ~trace ~prepared:e.Cache.e_prepared e.Cache.e_prog;
      result ~node:None None
