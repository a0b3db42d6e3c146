open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir

(* Map a piece id to the color of a partition that may have been built for a
   single dimension of the machine grid (2-D batched schedules partition rows
   by the grid's first dimension and columns by the second).  Pieces are laid
   out row-major over the grid, so a [Grid_dim d] partition's color is the
   piece's coordinate along dimension [d]. *)
let color_for ~grid ~pieces part piece =
  let colors = Partition.colors part in
  match Partition.axis part with
  | Partition.Flat ->
      if colors = pieces then piece
      else
        Error.fail ~piece Error.Launch "flat partition with %d colors on %d pieces"
          colors pieces
  | Partition.Grid_dim d ->
      let nd = Array.length grid in
      if d < 0 || d >= nd then
        Error.fail ~piece Error.Launch "partition axis %d on a %d-d grid" d nd;
      if colors <> grid.(d) then
        Error.fail ~piece Error.Launch
          "axis-%d partition with %d colors but grid dim has %d" d colors
          grid.(d);
      let stride = ref 1 in
      for k = d + 1 to nd - 1 do
        stride := !stride * grid.(k)
      done;
      piece / !stride mod grid.(d)

let stitch_merge ~bindings ~out_name ~nrows ~ncols partials =
  (* Per-piece row blocks are disjoint and ordered; concatenate them. *)
  let pos = Array.make nrows (0, -1) in
  let total =
    List.fold_left
      (fun acc (p : Leaf.merge_partial) ->
        acc + Array.fold_left ( + ) 0 p.Leaf.mcounts)
      0 partials
  in
  let crd = Array.make (max total 1) 0 in
  (* Values go straight into the output's buffer: no float array to copy. *)
  let vals = Region.F.create (out_name ^ ".vals") (max total 1) 0. in
  let vdata = vals.Region.F.data in
  let cursor = ref 0 in
  (* Per partial: the row positions in one pass, then its entries as one
     block, bounds-checked once. *)
  List.iter
    (fun (p : Leaf.merge_partial) ->
      let base = !cursor in
      Array.iteri
        (fun i r ->
          let c = p.Leaf.mcounts.(i) in
          pos.(r) <- (!cursor, !cursor + c - 1);
          cursor := !cursor + c)
        p.Leaf.mrows;
      let n = !cursor - base in
      Array.blit p.Leaf.mcrd 0 crd base n;
      if n > Array.length p.Leaf.mvals || base + n > Bigarray.Array1.dim vdata then
        Error.fail ~kernel:out_name Error.Reduce "merge partial shorter than its counts";
      let mvals = p.Leaf.mvals in
      for k = 0 to n - 1 do
        Bigarray.Array1.unsafe_set vdata (base + k) (Array.unsafe_get mvals k)
      done)
    partials;
  (* Normalize empty rows into monotone empty ranges. *)
  let cur = ref 0 in
  for r = 0 to nrows - 1 do
    let lo, hi = pos.(r) in
    if hi < lo then pos.(r) <- (!cur, !cur - 1) else cur := hi + 1
  done;
  let t =
    {
      Tensor.name = out_name;
      dims = [| nrows; ncols |];
      mode_order = [| 0; 1 |];
      levels =
        [|
          Level.Dense { dim = nrows };
          Level.Compressed
            {
              pos = Region.of_array (out_name ^ ".pos") pos;
              crd = Region.of_array (out_name ^ ".crd") crd;
            };
        |];
      vals;
    }
  in
  (Operand.find bindings out_name).Operand.data <- Operand.Sparse t

module Trace = Spdistal_obs.Trace
module Metrics = Spdistal_obs.Metrics

type piece_comm = {
  pc_time : float;
  pc_footprint : float;
  pc_msg_bytes : float list;
  pc_edges : (int * float) list;
}

(* Bytes per communicated element of [cm]'s tensor. *)
let comm_elt d (cm : Loop_ir.comm) =
  Operand.slice_bytes d (max cm.Loop_ir.comm_dim 0)
  /. float_of_int cm.Loop_ir.divide_by

let subset_for ~grid ~pieces p piece =
  Partition.subset p (color_for ~grid ~pieces p piece)

let resident placement ~grid ~pieces ~tensor ~comm_dim o =
  Placement.resident_set placement ~tensor ~comm_dim
    ~piece_subset:(fun p -> subset_for ~grid ~pieces p o)

(* Source attribution of a fetch, for the trace's comm matrix: walk owner
   pieces in ascending order, hand each the overlap of its resident subset
   with what is still missing; whatever nobody holds is charged to node 0
   (the home of undistributed data).  Deterministic, and row sums equal
   the fetched byte volume by construction. *)
let edge_srcs ~machine ~placement ~grid ~tensor ~comm_dim ~elt missing =
  let pieces = Machine.pieces machine in
  let left = ref missing and acc = ref [] in
  (try
     for o = 0 to pieces - 1 do
       if Iset.is_empty !left then raise Exit;
       match resident placement ~grid ~pieces ~tensor ~comm_dim o with
       | `Nothing -> ()
       | `All ->
           acc :=
             ( Machine.node_of_piece machine o,
               float_of_int (Iset.cardinal !left) *. elt )
             :: !acc;
           left := Iset.empty
       | `Set r ->
           let take = Iset.inter !left r in
           if not (Iset.is_empty take) then begin
             left := Iset.diff !left take;
             acc :=
               ( Machine.node_of_piece machine o,
                 float_of_int (Iset.cardinal take) *. elt )
               :: !acc
           end
     done
   with Exit -> ());
  if not (Iset.is_empty !left) then
    acc := (0, float_of_int (Iset.cardinal !left) *. elt) :: !acc;
  List.rev !acc

let piece_comm ~machine ~bindings ~placement ~penv ~grid ~edges comms c =
  let pieces = Machine.pieces machine in
  let intra = Machine.nodes machine = 1 in
  let comm_time = ref 0. in
  let footprint = ref 0. in
  let msgs = ref [] in
  let edge_acc = ref [] in
  List.iter
    (fun (cm : Loop_ir.comm) ->
      let tensor = cm.Loop_ir.comm_tensor and comm_dim = cm.Loop_ir.comm_dim in
      let d = (Operand.find bindings tensor).Operand.data in
      let elt = comm_elt d cm in
      match cm.Loop_ir.comm_part with
      | None -> (
          (* Whole operand needed: a broadcast, unless already replicated by
             the data distribution. *)
          let full_count =
            match (d, comm_dim) with
            | Operand.Sparse t, -1 -> Tensor.nnz t
            | _, dim -> Operand.dim d (max dim 0)
          in
          let bytes = float_of_int full_count *. elt in
          footprint := !footprint +. bytes;
          match resident placement ~grid ~pieces ~tensor ~comm_dim c with
          | `All -> ()
          | `Set _ | `Nothing ->
              comm_time := !comm_time +. Machine.bcast_time machine ~bytes;
              msgs := bytes :: !msgs;
              if edges then edge_acc := (0, bytes) :: !edge_acc)
      | Some pname ->
          let needed =
            subset_for ~grid ~pieces (Part_eval.find_partition penv pname) c
          in
          footprint :=
            !footprint +. (float_of_int (Iset.cardinal needed) *. elt);
          let missing =
            match resident placement ~grid ~pieces ~tensor ~comm_dim c with
            | `All -> Iset.empty
            | `Nothing -> needed
            | `Set r -> Iset.diff needed r
          in
          let bytes = float_of_int (Iset.cardinal missing) *. elt in
          if bytes > 0. then begin
            comm_time :=
              !comm_time +. Machine.p2p_time machine ~intra_node:intra ~bytes;
            msgs := bytes :: !msgs;
            if edges then
              edge_acc :=
                List.rev_append
                  (edge_srcs ~machine ~placement ~grid ~tensor ~comm_dim ~elt
                     missing)
                  !edge_acc
          end)
    comms;
  {
    pc_time = !comm_time;
    pc_footprint = !footprint;
    pc_msg_bytes = List.rev !msgs;
    pc_edges = List.rev !edge_acc;
  }

let col_range ~grid ~bindings (leaf : Loop_ir.leaf) c =
  if leaf.Loop_ir.col_split <= 1 then None
  else begin
    let py = grid.(1) in
    let cy = c mod py in
    (* Column extent from the output's last dimension. *)
    let od =
      (Operand.find bindings leaf.Loop_ir.leaf_stmt.Tin.lhs.Tin.tensor)
        .Operand.data
    in
    let e = Operand.dim od (Operand.order od - 1) in
    Some (cy * e / py, ((cy + 1) * e / py) - 1)
  end

let leaf_seconds ~machine ~(leaf : Loop_ir.leaf) work =
  let lt = Task.leaf_time machine work in
  if machine.Machine.kind = Machine.Cpu then
    if not leaf.Loop_ir.parallel then
      lt *. float_of_int machine.Machine.params.cpu_cores
    else lt /. machine.Machine.params.legion_leaf_efficiency
  else lt

let reduce_bill ~machine ~bindings ~penv (cm : Loop_ir.comm) =
  let pieces = Machine.pieces machine in
  let d = (Operand.find bindings cm.Loop_ir.comm_tensor).Operand.data in
  let total, union =
    match cm.Loop_ir.comm_part with
    | Some pname ->
        let p = Part_eval.find_partition penv pname in
        ( Array.fold_left
            (fun acc s -> acc + Iset.cardinal s)
            0 p.Partition.subsets,
          Iset.cardinal (Partition.union_of_colors p) )
    | None ->
        (* Every piece holds a full partial output (distributed reduction
           loop): overlap = (pieces-1) copies. *)
        let n = Operand.dim d (max cm.Loop_ir.comm_dim 0) in
        (pieces * n, n)
  in
  let overlap = max 0 (total - union) in
  if overlap = 0 then None
  else
    let bytes = float_of_int overlap *. comm_elt d cm in
    Some
      (bytes, Machine.reduce_time machine ~bytes:(bytes /. float_of_int pieces))

(* Ambient fault counters, bumped on the reducing domain in piece order (the
   same place recovery is priced) so the series is deterministic at every
   --domains degree. *)
let note_fault_metrics r =
  let m = Metrics.default () in
  if Metrics.enabled m then begin
    let kind k n =
      if n > 0 then
        Metrics.inc m
          ~labels:[ ("kind", k) ]
          ~by:(float_of_int n)
          ~help:"injected fault events by kind" "spdistal_fault_events_total"
    in
    kind "crash" r.Fault.crashes;
    kind "loss" r.Fault.losses;
    kind "straggler" r.Fault.stragglers;
    if r.Fault.retries > 0 then
      Metrics.inc m
        ~by:(float_of_int r.Fault.retries)
        ~help:"piece re-executions forced by injected faults"
        "spdistal_fault_retries_total"
  end

(* A prepared program: materialized partitions, the distributed loops, and —
   under the compiled backend — one monomorphized closure per loop, aligned
   with [pp_loops]. *)
type prepared = {
  pp_penv : Part_eval.env;
  pp_loops : Loop_ir.stmt list;
  pp_leaves : Compile_leaf.t option list;
  pp_backend : Compile_leaf.backend;
}

(* Materialize a program's partitions (and, under the compiled backend,
   specialize its leaf loops) ahead of execution.  The plan builder calls it
   once per cold build; the execution context replays the result on every
   warm iteration, so warm iterations skip specialization too. *)
let leaves_for ~trace ~bindings ~backend loops =
  match backend with
  | Compile_leaf.Interp -> List.map (fun _ -> None) loops
  | Compile_leaf.Compiled ->
      Trace.with_wall_span trace
        ~track:(Trace.Host (Domain.self () :> int))
        ~cat:"phase" ~name:"compile_leaves"
        (fun () ->
          List.map
            (function
              | Loop_ir.Distributed_for { leaf; _ } ->
                  Some (Compile_leaf.compile ~bindings leaf)
              | _ -> None)
            loops)

let prepare ?(trace = Trace.null) ?shared ~backend ~bindings prog =
  let penv = Part_eval.create ~trace ?shared bindings in
  let loops =
    Trace.with_wall_span trace
      ~track:(Trace.Host (Domain.self () :> int))
      ~cat:"phase" ~name:"part_eval"
      (fun () -> Part_eval.eval_partitions penv prog)
  in
  let leaves = leaves_for ~trace ~bindings ~backend loops in
  { pp_penv = penv; pp_loops = loops; pp_leaves = leaves; pp_backend = backend }

(* Swap a prepared program to the other leaf backend, reusing its
   materialized partitions (the expensive part).  The execution context uses
   this when a cached entry was prepared under one backend and a later run
   asks for the other. *)
let relink ?(trace = Trace.null) ~bindings ~backend (p : prepared) =
  if p.pp_backend = backend then p
  else
    {
      p with
      pp_leaves = leaves_for ~trace ~bindings ~backend p.pp_loops;
      pp_backend = backend;
    }

let stmt_ctor = function
  | Loop_ir.Comment _ -> "comment"
  | Loop_ir.Init_coloring _ -> "init_coloring"
  | Loop_ir.For_colors _ -> "for_colors"
  | Loop_ir.Coloring_entry _ -> "coloring_entry"
  | Loop_ir.Def_partition _ -> "def_partition"
  | Loop_ir.Distributed_for _ -> "distributed_for"

(* The launch loop [run] executes and [estimate] dry-runs.  [map ~launch f
   pieces] simulates every piece of launch [launch]; [leaf_step leaf
   compiled] is called once per launch on the reducing domain and returns
   the leaf one piece runs. *)
let launches ~machine ~bindings ~placement ~memstate ~cost ~fcfg ~trace ~map
    ~leaf_step ~prepared ~launch_base prog =
  let pieces = Loop_ir.pieces prog in
  if pieces <> Machine.pieces machine then
    Error.fail Error.Config "program lowered for a different machine size";
  (* Launch index within this run: a coordinate of the fault schedule, so a
     fault in launch 2 stays in launch 2 whatever the domain degree.
     Warm-start iteration [i] of an iterative run passes [launch_base] =
     [i * launches-per-iteration], so both the cached and the uncached
     execution of the same iteration see identical fault coordinates. *)
  let launch_ix = ref (launch_base - 1) in
  let grid = prog.Loop_ir.grid in
  let penv = prepared.pp_penv and loops = prepared.pp_loops in
  let part name = Part_eval.find_partition penv name in
  let subset_for = subset_for ~grid ~pieces in
  List.iter2
    (fun stmt compiled ->
      match stmt with
      | Loop_ir.Distributed_for { shard_parts; comms; out_comm; leaf; _ } ->
          incr launch_ix;
          let launch = !launch_ix in
          (* Nodes whose first attempt crashes during this launch: every
             piece they host pays crash recovery, and each must have a
             surviving slot to be remapped onto. *)
          let crashed =
            match fcfg with
            | None -> []
            | Some cfg -> Fault.crashed_nodes cfg ~machine ~launch
          in
          let kernel = leaf.Loop_ir.leaf_stmt.Tin.lhs.Tin.tensor in
          let piece_leaf = leaf_step leaf compiled in
          (* Leaf execution for one piece.  Runs on a worker domain when the
             launch's output writes are disjoint across pieces; launches that
             reduce into overlapping locations ([out_reduce]) run on the
             reducing domain instead, in piece order. *)
          let exec_leaf c =
            let shard_vals tname =
              match List.assoc_opt tname shard_parts with
              | Some pname -> subset_for (part pname) c
              | None ->
                  Error.fail ~kernel ~piece:c Error.Leaf "no shard for %s"
                    tname
            in
            let rows =
              Option.map
                (fun pname -> subset_for (part pname) c)
                leaf.Loop_ir.leaf_row_part
            in
            piece_leaf ~shard_vals ~rows
              ~col_range:(col_range ~grid ~bindings leaf c)
              ()
          in
          (* --- simulate pieces (parallel when a pool is configured) ---
             Each piece yields pure data: its comm bill and its leaf result
             ([None] when the leaf writes overlap across pieces
             ([out_reduce]) and execution is deferred to the reducing
             domain).  All mutation of shared simulation state (Cost,
             Memstate, message totals) happens on the reducing domain, in
             piece order, so results are bit-identical to a sequential run
             (float accumulation order is preserved exactly). *)
          let simulate c =
            ( piece_comm ~machine ~bindings ~placement ~penv ~grid
                ~edges:(Trace.enabled trace) comms c,
              if leaf.Loop_ir.out_reduce then None else Some (exec_leaf c) )
          in
          let sims = map ~launch simulate pieces in
          let t0 = Cost.total cost in
          (* --- reduce piece results, in piece order --- *)
          let comm_times = Array.make pieces 0. in
          let leaf_times = Array.make pieces 0. in
          let partials = ref [] in
          let total_bytes = ref 0. and total_msgs = ref 0 in
          Array.iteri
            (fun c (pc, leaf_res) ->
              List.iter
                (fun bytes ->
                  total_bytes := !total_bytes +. bytes;
                  incr total_msgs)
                pc.pc_msg_bytes;
              let comm_time = ref pc.pc_time in
              (* --- capacity check (OOM / UVM paging) --- *)
              (match memstate with
              | None -> ()
              | Some ms -> (
                  match
                    Memstate.ensure ms ~piece:c
                      ~key:(Printf.sprintf "launch:%d" c)
                      ~bytes:pc.pc_footprint
                  with
                  | Memstate.Hit | Memstate.Miss _ -> ()
                  | Memstate.Paged overflow ->
                      (* Page the overflow in and out once per iteration. *)
                      let pt =
                        2. *. overflow /. machine.Machine.params.uvm_page_bw
                      in
                      comm_time := !comm_time +. pt;
                      Trace.span trace
                        ~track:
                          (Trace.Piece
                             { node = Machine.node_of_piece machine c; piece = c })
                        ~clock:Trace.Sim ~cat:"comm"
                        ~args:
                          [
                            ("launch", Trace.I launch);
                            ("overflow_bytes", Trace.F overflow);
                          ]
                        ~start:(t0 +. pc.pc_time) ~dur:pt "uvm_page"));
              let res =
                match leaf_res with Some r -> r | None -> exec_leaf c
              in
              (match res.Leaf.partial with
              | Some p -> partials := p :: !partials
              | None -> ());
              Cost.add_flops cost res.Leaf.work.Task.flops;
              let lt = leaf_seconds ~machine ~leaf res.Leaf.work in
              (* --- fault injection & Legion-style recovery ---
                 The leaf above committed exactly once; injected faults are
                 priced as the wasted attempts and re-executions that the
                 real runtime would deterministically replay from region
                 arguments, so only times/traffic change, never tensors.
                 Evaluated here, on the reducing domain in piece order, so
                 the schedule and its costs are identical at every
                 --domains degree. *)
              (match fcfg with
              | None ->
                  comm_times.(c) <- !comm_time;
                  leaf_times.(c) <- lt
              | Some cfg ->
                  (* A piece on a crashed node must have a surviving slot
                     (raises [Error.Recovery] when the whole cluster is
                     gone). *)
                  if List.mem (Machine.node_of_piece machine c) crashed then
                    ignore (Placement.remap_piece ~machine ~crashed c);
                  let r =
                    Fault.recover_piece cfg ~machine ~launch ~piece:c
                      ~msg_bytes:pc.pc_msg_bytes ~footprint:pc.pc_footprint
                      ~comm_time:!comm_time ~leaf_time:lt
                  in
                  Cost.add_recovery cost ~retries:r.Fault.retries
                    ~faults:(Fault.events r) ~bytes:r.Fault.resent_bytes
                    ~messages:r.Fault.resent_msgs
                    (r.Fault.extra_comm +. r.Fault.extra_leaf);
                  comm_times.(c) <- !comm_time +. r.Fault.extra_comm;
                  leaf_times.(c) <- lt +. r.Fault.extra_leaf;
                  note_fault_metrics r;
                  if Trace.enabled trace && Fault.events r > 0 then
                    Trace.span trace
                      ~track:
                        (Trace.Piece
                           { node = Machine.node_of_piece machine c; piece = c })
                      ~clock:Trace.Sim ~cat:"fault"
                      ~args:(Fault.trace_args r)
                      ~start:(t0 +. comm_times.(c) +. leaf_times.(c))
                      ~dur:0. "recovery");
              if Trace.enabled trace then begin
                let node = Machine.node_of_piece machine c in
                List.iter
                  (fun (src, b) -> Trace.comm_edge trace ~src ~dst:node b)
                  pc.pc_edges;
                let track = Trace.Piece { node; piece = c } in
                Trace.span trace ~track ~clock:Trace.Sim ~cat:"comm"
                  ~args:[ ("launch", Trace.I launch) ]
                  ~start:t0 ~dur:comm_times.(c) "fetch";
                Trace.span trace ~track ~clock:Trace.Sim ~cat:"compute"
                  ~args:[ ("launch", Trace.I launch) ]
                  ~start:(t0 +. comm_times.(c))
                  ~dur:leaf_times.(c) kernel
              end)
            sims;
          let partials = List.rev !partials in
          Cost.add_comm cost ~bytes:!total_bytes ~messages:!total_msgs 0.;
          Cost.record_launch_split cost ~machine ~comm_times ~leaf_times;
          if Trace.enabled trace then begin
            let crit = ref 0 and best = ref neg_infinity in
            Array.iteri
              (fun i ct ->
                let t = ct +. leaf_times.(i) in
                if t > !best then begin
                  best := t;
                  crit := i
                end)
              comm_times;
            (* The launch span is the [Cost.total] delta, so the sum of
               launch (+ reduce) span durations reconstructs the clock
               exactly. *)
            Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
              ~cat:"launch"
              ~args:
                [
                  ("launch", Trace.I launch);
                  ("pieces", Trace.I pieces);
                  ("crit_piece", Trace.I !crit);
                  ("crit_comm", Trace.F comm_times.(!crit));
                  ("crit_compute", Trace.F leaf_times.(!crit));
                  ("overhead", Trace.F (Machine.launch_overhead machine));
                  ("bytes", Trace.F !total_bytes);
                  ("messages", Trace.I !total_msgs);
                ]
              ~start:t0
              ~dur:(Cost.total cost -. t0)
              kernel;
            (* Live pool pressure on its own counter track: pieces in
               flight jump at launch start and drain at launch end (both
               sim-clock, so the sawtooth is deterministic). *)
            Trace.counter trace ~name:"pool_occupancy" ~time:t0
              [ ("pieces", float_of_int pieces) ];
            Trace.counter trace ~name:"pool_occupancy" ~time:(Cost.total cost)
              [ ("pieces", 0.) ]
          end;
          (* --- output reduction for aliased ownership --- *)
          (match
             Option.bind out_comm (reduce_bill ~machine ~bindings ~penv)
           with
          | None -> ()
          | Some (bytes, seconds) ->
              let r0 = Cost.total cost in
              Cost.add_comm cost ~bytes ~messages:pieces seconds;
              if Trace.enabled trace then begin
                (* Each piece ships its overlapping share home to the
                   output's owner on node 0. *)
                for c = 0 to pieces - 1 do
                  Trace.comm_edge trace
                    ~src:(Machine.node_of_piece machine c)
                    ~dst:0
                    (bytes /. float_of_int pieces)
                done;
                Trace.span trace ~track:Trace.Runtime ~clock:Trace.Sim
                  ~cat:"launch"
                  ~args:
                    [
                      ("launch", Trace.I launch);
                      ("bytes", Trace.F bytes);
                      ("messages", Trace.I pieces);
                    ]
                  ~start:r0
                  ~dur:(Cost.total cost -. r0)
                  (kernel ^ ":reduce")
              end);
          if Trace.enabled trace then
            Trace.counter trace ~name:"cost" ~time:(Cost.total cost)
              (Cost.counters cost);
          (* --- stitch unknown-pattern outputs --- *)
          if partials <> [] then begin
            let out_acc = leaf.Loop_ir.leaf_stmt.Tin.lhs in
            let first_in =
              match leaf.Loop_ir.driver with
              | Loop_ir.Merge_driver (t :: _) -> t
              | _ -> Error.fail ~kernel Error.Reduce "partials from a non-merge leaf"
            in
            let src = Operand.find_sparse bindings first_in in
            stitch_merge ~bindings ~out_name:out_acc.Tin.tensor
              ~nrows:src.Tensor.dims.(0) ~ncols:src.Tensor.dims.(1) partials
          end
      | other ->
          (* [Part_eval.eval_partitions] returns only the executable
             distributed loops; anything else here is a lowering bug worth a
             precise report rather than a crash. *)
          let kernel =
            List.find_map
              (function
                | Loop_ir.Distributed_for { leaf; _ } ->
                    Some leaf.Loop_ir.leaf_stmt.Tin.lhs.Tin.tensor
                | _ -> None)
              loops
          in
          Error.fail ?kernel Error.Launch
            "unexpected %s construct in the prepared launch list (only \
             distributed_for loops are executable)"
            (stmt_ctor other))
    loops prepared.pp_leaves

(* A leaf reads its inputs while it writes its output, so an output that
   shares storage with an input would read its own partial sums, in an
   order that differs between the leaf backends. *)
let check_no_aliasing ~bindings loops =
  List.iter
    (function
      | Loop_ir.Distributed_for { leaf = { Loop_ir.leaf_stmt = stmt; _ }; _ } ->
          let out = stmt.Tin.lhs.Tin.tensor in
          let out_data = (Operand.find bindings out).Operand.data in
          List.iter
            (fun (a : Tin.access) ->
              if
                a.Tin.tensor <> out
                && Operand.shares_storage out_data
                     (Operand.find bindings a.Tin.tensor).Operand.data
              then
                Error.fail ~kernel:out Error.Config
                  "output %s shares storage with input %s" out a.Tin.tensor)
            (Tin.rhs_accesses stmt)
      | _ -> ())
    loops

let run ~machine ~bindings ~placement ?memstate ~cost ?domains ?faults ?trace
    ~prepared ?(launch_base = 0) prog =
  check_no_aliasing ~bindings prepared.pp_loops;
  let domains =
    match domains with Some d -> d | None -> Machine.sim_domains ()
  in
  let fcfg =
    let c = match faults with Some c -> c | None -> Fault.default () in
    if Fault.enabled c then Some c else None
  in
  let trace = match trace with Some t -> t | None -> Trace.default () in
  let pool = Pool.get (Pool.effective_workers domains) in
  let map ~launch simulate pieces =
    if Trace.enabled trace then begin
      (* Profiled map: same results, plus which domain simulated each piece
         and when (host clock, for the occupancy tracks). *)
      let prof = Pool.map_prof pool simulate pieces in
      Array.iteri
        (fun c (_, pj) ->
          Trace.span trace
            ~track:(Trace.Host pj.Pool.pj_domain)
            ~clock:Trace.Wall ~cat:"pool"
            ~args:[ ("launch", Trace.I launch); ("piece", Trace.I c) ]
            ~start:(pj.Pool.pj_start -. Trace.epoch trace)
            ~dur:(pj.Pool.pj_stop -. pj.Pool.pj_start)
            "simulate")
        prof;
      Array.map fst prof
    end
    else Pool.map pool simulate pieces
  in
  let leaf_step (leaf : Loop_ir.leaf) = function
    | Some cl -> Compile_leaf.launch cl ~bindings
    | None ->
        (* Materialize the driver's coordinate expansion on this domain so
           worker domains only read the memoized entry.  Compiled leaves walk
           the level storage directly and need no expansion. *)
        (match leaf.Loop_ir.driver with
        | Loop_ir.Sparse_driver d ->
            Leaf.prewarm (Operand.find_sparse bindings d)
        | Loop_ir.Merge_driver _ -> ());
        Leaf.execute ~bindings ~leaf
  in
  launches ~machine ~bindings ~placement ~memstate ~cost ~fcfg ~trace ~map
    ~leaf_step ~prepared ~launch_base prog

(* Pricing's dry run: the same loop, sequential, fault-free, untraced and
   without capacity checks, each leaf replaced by the work [work leaf]
   predicts for a piece.  Nothing is executed, so nothing is stitched. *)
let estimate ~machine ~bindings ~placement ~cost ~prepared ~work prog =
  let leaf_step leaf _ =
    let work = work leaf in
    fun ~shard_vals ~rows ~col_range () ->
      { Leaf.work = work ~shard_vals ~rows ~col_range; partial = None }
  in
  launches ~machine ~bindings ~placement ~memstate:None ~cost ~fcfg:None
    ~trace:Trace.null
    ~map:(fun ~launch:_ simulate pieces -> Array.init pieces simulate)
    ~leaf_step ~prepared ~launch_base:0 prog
