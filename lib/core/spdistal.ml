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

let compile ?(trace = Trace.default ()) p =
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

let time_of r = match r.dnc with Some _ -> None | None -> Some (Cost.total r.cost)

(* ------------------------------------------------------------------ *)
(* Warm-start execution contexts                                       *)
(* ------------------------------------------------------------------ *)

module Context = struct
  module Dense = Spdistal_formats.Dense
  module Tensor = Spdistal_formats.Tensor

  (* What a context keeps while the inputs it was derived over are
     unchanged: the plan it last built or found and, once a cache lookup
     needed it, the cache key.  The plan is a pure function of the key. *)
  type key = {
    k_gen : int;  (** [Region.generation ()] when it was stamped *)
    k_inputs : Operand.data list;
        (** each input slot's data then, in operand order *)
    mutable k_digest : string option;  (** the cache key, on first use *)
    mutable k_plan : Cache.entry option;
        (** the plan the last iteration ran under this key *)
  }

  type ctx = {
    problem : problem;
    cache : Cache.t option;
    out_name : string;
    pristine_out : Operand.data Lazy.t;
        (** the output operand's state before the context's first write,
            restored before every iteration after the first so each
            iteration computes exactly what a single application computes;
            taken at [create], and for the single shot only before a write
            a DNC could strike after *)
    cold_setup : bool;
        (** the single-shot protocol: the cold build is setup, uncharged *)
    mutable installed : (Operand.data * int) option;
        (** the output storage the last restore installed, and
            [Region.generation ()] then *)
    mutable assembled : (Operand.data * int) option;
        (** the output a merge-only program's last completed iteration
            left in the slot, and [Region.generation ()] then *)
    mutable ran : bool;  (** a previous [run] left results in the output *)
    mutable key : key option;
  }

  let make ~cache ~cold_setup p =
    let out_name = p.stmt.Tin.lhs.Tin.tensor in
    {
      problem = p;
      cache;
      out_name;
      pristine_out =
        lazy
          (Operand.copy_data (Operand.find (bindings p) out_name).Operand.data);
      cold_setup;
      installed = None;
      assembled = None;
      ran = false;
      key = None;
    }

  let create ?(cache = true) ?shared_cache p =
    let cache =
      match shared_cache with
      | Some c -> Some c
      | None -> if cache then Some (Cache.create ()) else None
    in
    let ctx = make ~cache ~cold_setup:false p in
    (* A later run restores from the snapshot: take it at creation. *)
    ignore (Lazy.force ctx.pristine_out);
    ctx

  let cache_stats ctx = Option.map Cache.stats ctx.cache

  (* Write [src]'s values into [dst]'s storage; false when their shapes
     differ.  A sparse output's pattern is not copied: leaves write only
     [vals], and a pattern write moves the generation. *)
  let blit_values src dst =
    let blit s d =
      Array.length s = Array.length d
      && (Array.blit s 0 d 0 (Array.length s);
          true)
    in
    match (src, dst) with
    | Operand.Vec s, Operand.Vec d -> blit s.Dense.data d.Dense.data
    | Operand.Mat s, Operand.Mat d -> blit s.Dense.data d.Dense.data
    | Operand.Sparse s, Operand.Sparse d ->
        let s = s.Tensor.vals.Region.F.data
        and d = d.Tensor.vals.Region.F.data in
        Bigarray.Array1.dim s = Bigarray.Array1.dim d
        && (Bigarray.Array1.blit s d;
            true)
    | _ -> false

  (* Put the pristine output back: in place, into the storage the previous
     restore installed, while the slot still holds it and no pattern was
     written since; otherwise into a fresh copy (the first restore, a
     stitched output, a slot the caller rebound).  With [keep], the output
     a merge-only program's last iteration assembled stays instead, under
     the same two conditions: the next launch writes every one of its
     values. *)
  let restore ?(keep = false) ctx =
    let slot = Operand.find (bindings ctx.problem) ctx.out_name in
    let holds = function
      | Some (d, gen) -> slot.Operand.data == d && gen = Region.generation ()
      | None -> false
    in
    if not (keep && holds ctx.assembled) then
      match ctx.installed with
      | Some (d, _)
        when holds ctx.installed
             && blit_values (Lazy.force ctx.pristine_out) d ->
          ()
      | _ ->
          let d = Operand.copy_data (Lazy.force ctx.pristine_out) in
          slot.Operand.data <- d;
          ctx.installed <- Some (d, Region.generation ())

  (* An input still matches the key if it is the same sparse tensor (its
     pattern unwritten, which the generation stamp covers) or a dense
     operand of the same shape: neither the digest nor a partition reads
     anything else of it. *)
  let same_input now was =
    match (now, was) with
    | Operand.Sparse a, Operand.Sparse b -> a == b
    | Operand.Vec a, Operand.Vec b -> a.Dense.n = b.Dense.n
    | Operand.Mat a, Operand.Mat b ->
        a.Dense.rows = b.Dense.rows && a.Dense.cols = b.Dense.cols
    | _ -> false

  (* The context's key, replaced (without a plan) only when an input slot
     was rebound, a dense shape changed or a pattern was written. *)
  let key ctx =
    let inputs =
      List.filter_map
        (fun (n, (s : Operand.slot), _) ->
          if n = ctx.out_name then None else Some s.Operand.data)
        ctx.problem.operands
    in
    let gen = Region.generation () in
    match ctx.key with
    | Some k when k.k_gen = gen && List.for_all2 same_input inputs k.k_inputs ->
        k
    | _ ->
        let k =
          { k_gen = gen; k_inputs = inputs; k_digest = None; k_plan = None }
        in
        ctx.key <- Some k;
        k

  (* The digest of the problem, computed once per key.  The output enters
     as the pristine snapshot: it is restored to it before every lookup. *)
  let digest ctx k =
    match k.k_digest with
    | Some d -> d
    | None ->
        let p = ctx.problem in
        let operands =
          List.map
            (fun ((n, _, tdn) as op) ->
              if n = ctx.out_name then
                (n, { Operand.data = Lazy.force ctx.pristine_out }, tdn)
              else op)
            p.operands
        in
        let d =
          Cache.digest ~machine:p.machine ~operands ~stmt:p.stmt
            ~schedule:p.schedule
        in
        k.k_digest <- Some d;
        d

  let run ?domains ?(faults = Fault.default ()) ?(trace = Trace.default ())
      ?(leaf_backend = Compile_leaf.default_backend ()) ?(iterations = 1)
      ctx =
    if iterations < 1 then
      Error.fail Error.Config "iterations must be >= 1 (got %d)" iterations;
    let p = ctx.problem in
    let b = bindings p in
    let cost = Cost.create () in
    Trace.set_meta trace "kernel" p.stmt.Tin.lhs.Tin.tensor;
    Trace.set_meta trace "proc_kind"
      (match p.machine.Machine.kind with
      | Machine.Cpu -> "cpu"
      | Machine.Gpu -> "gpu");
    Trace.set_meta trace "pieces" (string_of_int (Machine.pieces p.machine));
    Trace.set_meta trace "iterations" (string_of_int iterations);
    let fcfg = if Fault.enabled faults then Some faults else None in
    let key = key ctx in
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
    (* OOM and exhausted fault recovery are properties of the run, not
       bugs: a DNC cell, [node] naming the node whose crashes exhausted
       recovery; other [Error.Error] phases escape.  A DNC puts the
       pristine output back; without a snapshot nothing was written. *)
    let dnc ~node reason =
      if Lazy.is_val ctx.pristine_out then restore ctx;
      ctx.ran <- false;
      Option.iter (fun n -> crashed_acc := n :: !crashed_acc) node;
      finish (Some reason)
    in
    try
      let memstate = Memstate.create p.machine ~uvm:false in
      for i = 0 to iterations - 1 do
        (* A plan reads the output slot, so it sees the pristine output;
           an iteration that reuses a plan may keep an assembled one. *)
        let restore ~keep = if i > 0 || was_run then restore ~keep ctx in
        let before = Cost.copy cost in
        let t_start = Cost.total cost in
        let lookup = Option.map (fun c -> (c, digest ctx key)) ctx.cache in
        (* A miss, like an uncached iteration, reuses the key's plan: it
           is charged below as the cold build it stands for. *)
        let status, found =
          match lookup with
          | None -> (`Uncached, key.k_plan)
          | Some (c, d) -> (
              match Cache.find c d with
              | Some e -> (`Hit, Some e)
              | None -> (`Miss, key.k_plan))
        in
        let entry =
          match found with
          | Some e ->
              restore ~keep:(Interp.merge_only e.Cache.e_prepared);
              e
          | None -> (
              restore ~keep:false;
              let e = plan ~trace ~backend:leaf_backend p in
              match lookup with
              | Some (_, d) -> { e with Cache.e_key = d }
              | None -> e)
        in
        if status = `Miss then
          Option.iter (fun (c, _) -> Cache.add c entry) lookup;
        key.k_plan <- Some entry;
        (* A hit prepared under the other backend keeps its partitions and
           respecializes only the leaves. *)
        if entry.Cache.e_prepared.Interp.pp_backend <> leaf_backend then
          entry.Cache.e_prepared <-
            Interp.relink ~trace ~bindings:b ~backend:leaf_backend
              entry.Cache.e_prepared;
        let status_name =
          match status with
          | `Hit -> "hit"
          | `Miss -> "miss"
          | `Uncached -> "bypass"
        in
        Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim ~cat:"cache"
          ~args:[ ("iteration", Trace.I i) ]
          ~start:t_start ~dur:0. ("cache_" ^ status_name);
        if status = `Uncached then
          Metrics.inc (Metrics.default ())
            ~help:"iterations that skipped the launch-plan cache"
            "spdistal_cache_bypass_total";
        (* Dependent partitioning is charged on every miss (a cold one, or
           one after an eviction or a crash invalidation) and on every
           iteration of an uncached run, whether or not the host rebuilt
           the plan.  Hits reuse the cached partitions for free — the
           paper's (and Legion's) amortization.  The single-shot protocol's
           cold build is setup and is not charged. *)
        let charged = status <> `Hit && not ctx.cold_setup in
        if charged then begin
          Cost.add_partitioning cost ~ops:entry.Cache.e_part_ops
            entry.Cache.e_part_seconds;
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
        (* The output is about to be written.  Snapshot it first when a DNC
           can strike after leaves ran: exhausted fault recovery, or an OOM
           in a later launch. *)
        if Option.is_some fcfg || entry.Cache.e_launches > 1 then
          ignore (Lazy.force ctx.pristine_out);
        Interp.run ~machine:p.machine ~bindings:b
          ~placement:entry.Cache.e_placement ~memstate ~cost ?domains ~faults
          ~trace ~prepared:entry.Cache.e_prepared
          ~launch_base:(i * entry.Cache.e_launches) entry.Cache.e_prog;
        if Interp.merge_only entry.Cache.e_prepared then
          ctx.assembled <-
            Some
              ( (Operand.find b ctx.out_name).Operand.data,
                Region.generation () );
        Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
          ~cat:"iteration"
          ~args:
            [
              ("iteration", Trace.I i);
              ("cache", Trace.S status_name);
              ( "partition_seconds",
                Trace.F (if charged then entry.Cache.e_part_seconds else 0.) );
            ]
          ~start:t_start
          ~dur:(Cost.total cost -. t_start)
          "iteration";
        (* Live cache pressure on its own counter track, sampled once per
           iteration (sim clock, so the series is deterministic). *)
        Option.iter
          (fun c ->
            let s = Cache.stats c in
            Trace.counter trace ~name:"cache_bytes" ~time:(Cost.total cost)
              [
                ("bytes", float_of_int s.Cache.bytes);
                ("entries", float_of_int s.Cache.entries);
              ])
          ctx.cache;
        stats :=
          { it_index = i; it_cache = status; it_cost = Cost.diff cost before }
          :: !stats;
        (* A node crash during this iteration leaves cached placements
           naming dead slots: validate survivors and drop the entry so the
           next iteration misses and pays for re-partitioning (the host
           re-adds the key's plan, which the crash does not change).
           Crashes are also reported to the caller — a serving front-end
           blacklists repeat offenders across jobs. *)
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
                    (digest ctx key);
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
    with
    | Memstate.Oom reason -> dnc ~node:None reason
    | Error.Error ({ Error.phase = Error.Recovery; _ } as e) ->
        dnc ~node:e.Error.node
          ("fault recovery exhausted: " ^ Error.to_string e)
end

(* Without [iterations], one iteration on a cacheless context whose cold
   build is setup: the result's clock holds the timed launches alone.
   [iterations = n] runs [n] iterations on a fresh context, the cold first
   one paying dependent partitioning. *)
let run ?domains ?faults ?trace ?leaf_backend ?iterations ?(cache = true) p =
  let ctx =
    match iterations with
    | None -> Context.make ~cache:None ~cold_setup:true p
    | Some _ -> Context.create ~cache p
  in
  Context.run ?domains ?faults ?trace ?leaf_backend ?iterations ctx
