open Loop_ir
module Level = Spdistal_formats.Level
module Partition = Spdistal_runtime.Partition
module Error = Spdistal_runtime.Error

type operand =
  | Sparse_op of { formats : Level.kind array; mode_order : int array }
  | Vec_op
  | Mat_op

type env = (string * operand) list

let find_operand env name =
  match List.assoc_opt name env with
  | Some op -> op
  | None -> Error.fail Error.Compile "Lower: unbound tensor %s" name

let is_sparse env name =
  match find_operand env name with Sparse_op _ -> true | Vec_op | Mat_op -> false

(* Position of variable [v] in an access's index list. *)
let var_pos acc v =
  let rec go i = function
    | [] -> None
    | x :: _ when x = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 acc.Tin.indices

(* Storage level of the logical dimension [lpos] of a sparse operand. *)
let storage_level op lpos =
  match op with
  | Sparse_op { mode_order; _ } ->
      let rec go k =
        if k = Array.length mode_order then
          Error.fail Error.Compile
            "Lower: logical dimension has no storage level"
        else if mode_order.(k) = lpos then k
        else go (k + 1)
      in
      go 0
  | Vec_op | Mat_op ->
      Error.fail Error.Compile "Lower: storage_level of dense operand"

let level_kind op k =
  match op with
  | Sparse_op { formats; _ } -> formats.(k)
  | Vec_op | Mat_op -> Error.fail Error.Compile "Lower: level_kind of dense operand"

let order_of op =
  match op with
  | Sparse_op { formats; _ } -> Array.length formats
  | Vec_op -> 1
  | Mat_op -> 2

let ctx_of env tname k =
  { Level_funcs.tensor = tname; level = k; kind = level_kind (find_operand env tname) k }

(* Debug-only fault injection for the fuzzer's acceptance test: when set,
   every block loses its last element, silently corrupting any distributed
   computation.  `spdistal fuzz --inject-bug` must catch and shrink this. *)
let flip_block_bound = ref false
let set_debug_flip_block_bound b = flip_block_bound := b

(* Block bounds for color [cvar] of [count] pieces over extent [d]:
   lo = cvar*d/count, hi = (cvar+1)*d/count - 1 (exact cover, remainder
   spread). *)
let block_bounds ~cvar ~count d =
  let c = Color_var cvar in
  let slack = if !flip_block_bound then 2 else 1 in
  let lo = Div (Mul (c, Dim d), Int count) in
  let hi = Sub (Div (Mul (Add (c, Int 1), Dim d), Int count), Int slack) in
  (lo, hi)

(* Result of partitioning one tensor's full coordinate tree. *)
type tree_parts = {
  level_parts : (int * string) list;  (** level -> partition of its positions *)
  vals_part : string;
  tstmts : stmt list;
}

let level_part tp lvl =
  match List.assoc_opt lvl tp.level_parts with
  | Some p -> p
  | None -> Error.fail Error.Compile "Lower: no partition at level %d" lvl

(* The partition of level-0 positions: the walk partitions every level. *)
let rows_part tp = level_part tp 0

(* The initial partition of one tensor at storage level [k] plus
   partitionCoordinateTrees: createInitialUniversePartitions blocks the
   level's coordinates, createInitialNonZeroPartition its positions (the
   stored leaf count at the leaf level); the Table I level functions derive
   the rest of the coordinate tree. *)
let partition_tree env ~space ~tname ~k ~cvar ~count ~axis =
  let op = find_operand env tname in
  let last = order_of op - 1 in
  let ctx = ctx_of env tname k in
  let init_stmt, coloring = Level_funcs.init_partition ctx ~axis in
  let extent, what =
    match space with
    | Level_funcs.Universe -> (Dim_of_level (tname, k), "universe")
    | Level_funcs.Non_zero ->
        ((if k = last then Nnz_of tname else Extent_of_level (tname, k)), "non-zero")
  in
  let lo, hi = block_bounds ~cvar ~count extent in
  let fin = Level_funcs.finalize_partition ctx ~space ~coloring in
  let stmts =
    ref
      ((Comment
          (Printf.sprintf "%s level %d: initial %s partition" tname (k + 1) what)
       :: init_stmt
       :: [ For_colors { cvar; count; body = [ Coloring_entry { coloring; lo; hi } ] } ])
      @ fin.Level_funcs.stmts)
  in
  let level_parts = ref [ (k, fin.Level_funcs.down) ] in
  (* Downward: partitionFromParent for every level below k. *)
  let cur = ref fin.Level_funcs.down in
  for lvl = k + 1 to last do
    let st, p = Level_funcs.partition_from_parent (ctx_of env tname lvl) ~parent:!cur in
    stmts := !stmts @ st;
    cur := p;
    level_parts := (lvl, p) :: !level_parts
  done;
  (* Upward: partitionFromChild for every level above k. *)
  let up = ref fin.Level_funcs.up in
  for lvl = k - 1 downto 0 do
    (* [up] currently partitions level [lvl]'s positions. *)
    level_parts := (lvl, !up) :: !level_parts;
    if lvl > 0 then begin
      let st, p = Level_funcs.partition_from_child (ctx_of env tname lvl) ~child:!up in
      stmts := !stmts @ st;
      up := p
    end
  done;
  let vst, vals_part = Level_funcs.vals_partition ~tensor:tname ~leaf_down:!cur in
  { level_parts = !level_parts; vals_part; tstmts = !stmts @ vst }

(* Communication entry for a dense operand: find the gather variable -- the
   first index of the operand that the driver also iterates -- and derive the
   needed subsets per piece (paper §II-C: contents are inferred; the
   directive sits at the distributed loop). *)
let comm_for_dense_operand env ~driver ~driver_acc ~driver_tp ~nnz_split ~count
    ~cvar ~axis ~divide_by (x_acc : Tin.access) =
  let xname = x_acc.Tin.tensor in
  let driver_op = find_operand env driver in
  let gather =
    List.find_map
      (fun v ->
        match var_pos driver_acc v with
        | Some lpos -> Some (v, lpos)
        | None -> None)
      x_acc.Tin.indices
  in
  match gather with
  | None ->
      (* No shared variable: the whole operand is needed everywhere. *)
      ([], { comm_tensor = xname; comm_dim = 0; comm_part = None; divide_by })
  | Some (g, lpos) -> (
      let gpos_in_x =
        match var_pos x_acc g with
        | Some p -> p
        | None ->
            Error.fail ~kernel:xname Error.Compile
              "comm_for_dense_operand: shared variable %s (position %d of \
               driver %s's access) is missing from %s's access"
              g lpos driver xname
      in
      let kg = storage_level driver_op lpos in
      match level_kind driver_op kg with
      | Level.Compressed_k | Level.Compressed_nonunique_k | Level.Singleton_k ->
          (* Needed coordinates = image of the driver's crd values at that
             level under the driver's position partition. *)
          let pname = Printf.sprintf "%sGatherPart_%s" xname g in
          let st =
            Def_partition
              {
                pname;
                expr =
                  Image_values
                    {
                      crd = Crd_r (driver, kg);
                      part = level_part driver_tp kg;
                      target = Dom_r (xname, gpos_in_x);
                    };
              }
          in
          ([ st ], { comm_tensor = xname; comm_dim = gpos_in_x; comm_part = Some pname; divide_by })
      | Level.Dense_k when kg = 0 && not nnz_split ->
          (* The operand's dimension is co-partitioned with the distributed
             coordinate blocks. *)
          let pname = Printf.sprintf "%sBlockPart_%s" xname g in
          let cname = pname ^ "Coloring" in
          let lo, hi = block_bounds ~cvar ~count (Dim_of_level (driver, kg)) in
          let sts =
            [
              Init_coloring { coloring = cname; axis };
              For_colors
                { cvar; count; body = [ Coloring_entry { coloring = cname; lo; hi } ] };
              Def_partition
                { pname; expr = By_bounds { target = Dom_r (xname, gpos_in_x); coloring = cname } };
            ]
          in
          (sts, { comm_tensor = xname; comm_dim = gpos_in_x; comm_part = Some pname; divide_by })
      | Level.Dense_k when kg = 0 ->
          (* Needed rows = the (aliased) span of each piece's positions. *)
          ( [],
            {
              comm_tensor = xname;
              comm_dim = gpos_in_x;
              comm_part = Some (rows_part driver_tp);
              divide_by;
            } )
      | Level.Dense_k ->
          (* Inner dense driver level: not partitioned, whole dim needed. *)
          ([], { comm_tensor = xname; comm_dim = 0; comm_part = None; divide_by }))

(* Does an access mention any of the given variables? *)
let mentions acc vars = List.exists (fun v -> var_pos acc v <> None) vars

(* The leaf kernels execute exactly two statement shapes: a single product
   with one sparse operand (dense factors and literal coefficients allowed),
   or a pure sum of sparse accesses (the merge kernel).  Anything else used
   to fall through to the product path and run silently wrong — surfaced by
   the fuzzer; reject it here. *)
let check_fragment env stmt =
  let rec terms = function Tin.Add (a, b) -> terms a @ terms b | e -> [ e ] in
  let rec atoms = function Tin.Mul (a, b) -> atoms a @ atoms b | e -> [ e ] in
  match terms stmt.Tin.rhs with
  | [ t ] ->
      let sparse =
        List.filter
          (function
            | Tin.Access a -> is_sparse env a.Tin.tensor
            | Tin.Add _ ->
                Error.fail Error.Compile
                  "Lower: sums nested inside a product are unsupported"
            | Tin.Mul _ | Tin.Lit _ -> false)
          (atoms t)
      in
      if List.length sparse <> 1 then
        Error.fail Error.Compile "Lower: products need exactly one sparse operand"
  | ts ->
      List.iter
        (function
          | Tin.Access a when is_sparse env a.Tin.tensor -> ()
          | _ ->
              Error.fail Error.Compile
                "Lower: additive statements must be pure sums of sparse \
                 accesses")
        ts

(* Where [lower] starts partitioning: the storage level each merge
   operand (or the single driver) is universe-partitioned at, or the
   position-split driver and the storage level of its deepest fused
   variable. *)
type start =
  | Universe_at of (Tin.access * int) list
  | Non_zero_at of Tin.access * int

(* What [legal] established about a statement and its schedule. *)
type legal = {
  plan : Schedule.plan;
  merge : bool;
      (** a pure addition of several sparse operands; a single access (a
          TDN identity statement) is a copy driven by that operand *)
  driver_accs : Tin.access list;
  start : start;
}

(* Every static refusal of [lower]: facts about the statement, the operand
   formats and the schedule, decided before any partition is named.
   Raises a [Compile] [Error.Error]. *)
let legal env stmt sched =
  Tin.validate ~order_of:(fun n -> order_of (find_operand env n)) stmt;
  check_fragment env stmt;
  let plan = Schedule.analyze stmt sched in
  let out = stmt.Tin.lhs in
  let rhs_sparse =
    List.filter (fun a -> is_sparse env a.Tin.tensor) (Tin.rhs_accesses stmt)
  in
  let merge = Tin.is_pure_addition stmt && List.length rhs_sparse > 1 in
  (* The grid's second dimension only chunks dense columns: its variable
     must be the output's last, distinct from the first distributed
     variable, and index no sparse operand.  Otherwise every piece of a row
     block computes the same sparse work and the output sums it twice. *)
  Option.iter
    (fun e ->
      if Some e <> List.nth_opt (List.rev out.Tin.indices) 0 then
        Error.fail Error.Compile
          "Lower: 2-D distribution over %s, not the output's last variable" e;
      if plan.Schedule.strategy = Schedule.Universe_dist { var = e } then
        Error.fail Error.Compile
          "Lower: 2-D distribution over %s on both machine dimensions" e;
      List.iter
        (fun (a : Tin.access) ->
          if is_sparse env a.Tin.tensor && List.mem e a.Tin.indices then
            Error.fail Error.Compile
              "Lower: 2-D distribution over %s, which indexes sparse %s" e
              a.Tin.tensor)
        (out :: Tin.rhs_accesses stmt))
    plan.Schedule.secondary_var;
  (* [check_fragment] left a product exactly one sparse operand. *)
  let driver_accs =
    match rhs_sparse with a :: _ when not merge -> [ a ] | accs -> accs
  in
  let start =
    match plan.Schedule.strategy with
    | Schedule.Universe_dist { var = v } ->
        (* A pattern-preserving sparse output shares the driver's metadata:
           pieces of a universe distribution over a variable outside the lhs
           prefix would alias the same output positions (an un-marked
           reduction).  Reject rather than run wrong. *)
        if
          is_sparse env out.Tin.tensor && (not merge)
          && not (List.mem v out.Tin.indices)
        then
          Error.fail Error.Compile
            "Lower: universe distribution over a reduction variable is \
             unsupported with a sparse output";
        Universe_at
          (List.map
             (fun acc ->
               let tname = acc.Tin.tensor in
               let lpos =
                 match var_pos acc v with
                 | Some p -> p
                 | None ->
                     Error.fail Error.Compile
                       "Lower: %s not indexed by distributed var %s" tname v
               in
               let k = storage_level (find_operand env tname) lpos in
               (* A merge leaf merges whole rows of the first operand's row
                  partition: blocks of an inner level would miss rows only a
                  later operand stores and split rows across pieces. *)
               if merge && k > 0 then
                 Error.fail Error.Compile
                   "Lower: a merge distributed over %s, below %s's outermost \
                    storage level, is unsupported"
                   v tname;
               (acc, k))
             driver_accs)
    | Schedule.Non_zero_dist { tensor; fused } ->
        let driver_acc =
          match List.find_opt (fun a -> a.Tin.tensor = tensor) driver_accs with
          | Some a -> a
          | None ->
              Error.fail Error.Compile "Lower: pos tensor is not a sparse operand"
        in
        if merge then
          Error.fail Error.Compile
            "Lower: non-zero distribution of additive merges is unsupported \
             (paper §VI-A: SpAdd3 on CSR is incompatible with non-zero \
             splitting)";
        let driver_op = find_operand env tensor in
        (* The initial level is the storage level of the deepest fused var. *)
        let k_f =
          List.fold_left
            (fun acc v ->
              match var_pos driver_acc v with
              | Some lpos -> max acc (storage_level driver_op lpos)
              | None ->
                  Error.fail Error.Compile
                    "Lower: fused var not in pos tensor's access")
            0 fused
        in
        Non_zero_at (driver_acc, k_f)
  in
  { plan; merge; driver_accs; start }

let check ~env stmt sched =
  match legal env stmt sched with
  | _ -> Ok ()
  | exception Error.Error e -> Error e

let matched ~env stmt sched =
  let plan = Schedule.analyze stmt sched in
  (* An operand's first access, lhs first: one coordinate view suffices. *)
  let accesses = stmt.Tin.lhs :: Tin.rhs_accesses stmt in
  let pos name v =
    Option.bind
      (List.find_opt (fun a -> a.Tin.tensor = name) accesses)
      (fun a -> var_pos a v)
  in
  let blocked k = Tdn.Blocked { tensor_dim = k; machine_dim = 0 } in
  (* A non-zero partition of [d] fused dimensions; a single one needs no
     fusion (a TDN refuses to fuse fewer than two). *)
  let non_zero d =
    if d >= 2 then Tdn.Fused_non_zero { dims = List.init d Fun.id; machine_dim = 0 }
    else Tdn.Non_zero { tensor_dim = 0; machine_dim = 0 }
  in
  let tdn name =
    match plan.Schedule.strategy with
    | Schedule.Universe_dist { var } -> (
        match (pos name var, Option.bind plan.Schedule.secondary_var (pos name)) with
        | Some k, _ -> blocked k
        | None, Some k -> Tdn.Tiled { mappings = [ (k, 1) ] }
        | None, None -> Tdn.Replicated)
    | Schedule.Non_zero_dist { tensor; fused } ->
        if name = tensor then non_zero (List.length fused)
        else if is_sparse env name then non_zero (order_of (find_operand env name))
        else if name = stmt.Tin.lhs.Tin.tensor then blocked 0
        else Tdn.Replicated
  in
  List.map (fun (name, _) -> (name, tdn name)) env

let lower ~env ~grid stmt sched =
  let { plan; merge; driver_accs; start } = legal env stmt sched in
  let pieces = Array.fold_left ( * ) 1 grid in
  let primary_count = if Array.length grid >= 2 then grid.(0) else pieces in
  (* Everything this lowering distributes is chunked by the grid's first
     dimension; the second dimension only chunks dense columns (col_split). *)
  let primary_axis =
    if Array.length grid >= 2 then Partition.Grid_dim 0 else Partition.Flat
  in
  let col_split = if Array.length grid >= 2 then grid.(1) else 1 in
  let out = stmt.Tin.lhs in
  let out_sparse = is_sparse env out.Tin.tensor in
  let rhs = Tin.rhs_accesses stmt in
  let cvar = List.hd plan.Schedule.dist_vars in
  let stmts = ref [] and comms = ref [] in
  let emit sts = stmts := !stmts @ sts in
  let add_comm c = comms := !comms @ [ c ] in
  (* Sparse inputs move as the sub-tensors named by their vals partitions
     (zero-cost when the data distribution already matches, paper §II-D). *)
  let add_sparse_comm tname vals_part =
    add_comm { comm_tensor = tname; comm_dim = -1; comm_part = Some vals_part; divide_by = 1 }
  in
  (* Variables whose presence in an operand means its dense columns are
     chunked by the machine grid's second dimension. *)
  let secondary_roots = Option.to_list plan.Schedule.secondary_var in
  let divide_for acc = if mentions acc secondary_roots then col_split else 1 in
  let dense_accs = List.filter (fun a -> not (is_sparse env a.Tin.tensor)) rhs in
  let finish ~(driver_acc : Tin.access) ~driver_tp ~tps ~nnz_split =
    let driver = driver_acc.Tin.tensor in
    (* Communication for dense operands. *)
    List.iter
      (fun a ->
        let sts, c =
          comm_for_dense_operand env ~driver ~driver_acc ~driver_tp ~nnz_split
            ~count:primary_count ~cvar ~axis:primary_axis
            ~divide_by:(divide_for a) a
        in
        emit sts;
        add_comm c)
      dense_accs;
    (* Output handling. *)
    let out_comm, out_reduce =
      if out_sparse then
        if merge then begin
          emit
            [
              Comment
                (Printf.sprintf
                   "%s: unknown output pattern; two-phase local assembly"
                   out.Tin.tensor);
            ];
          (None, false)
        end
        else begin
          (* Pattern-preserving sparse output (§V-B): shares the driver's
             metadata down to the lhs depth. *)
          let depth = List.length out.Tin.indices in
          emit
            [
              Comment
                (Printf.sprintf "%s: shares %s's coordinate metadata (levels 1..%d)"
                   out.Tin.tensor driver depth);
            ];
          let driver_op = find_operand env driver in
          let out_level = depth - 1 in
          let leaf_level = order_of driver_op - 1 in
          if nnz_split && out_level < leaf_level then
            (* The piece boundary cuts output positions: reduce overlaps. *)
            ( Some
                {
                  comm_tensor = out.Tin.tensor;
                  comm_dim = -1;
                  comm_part = Some (level_part driver_tp out_level);
                  divide_by = 1;
                },
              true )
          else (None, false)
        end
      else if nnz_split then
        (* Dense output owned per-row by an aliased partition: reduction. *)
        ( Some
            {
              comm_tensor = out.Tin.tensor;
              comm_dim = 0;
              comm_part = Some (rows_part driver_tp);
              divide_by = divide_for out;
            },
          true )
      else if
        (* Universe distribution over a variable absent from the output
           (a distributed reduction loop): every piece holds a full
           partial output that must be summed. *)
        match plan.Schedule.strategy with
        | Schedule.Universe_dist { var = v } -> not (List.mem v out.Tin.indices)
        | Schedule.Non_zero_dist _ -> false
      then
        ( Some
            {
              comm_tensor = out.Tin.tensor;
              comm_dim = 0;
              comm_part = None;
              divide_by = divide_for out;
            },
          true )
      else (None, false)
    in
    let shard_parts = List.map (fun (a, tp) -> (a.Tin.tensor, tp.vals_part)) tps in
    let leaf =
      {
        leaf_stmt = stmt;
        driver =
          (if merge then Merge_driver (List.map (fun a -> a.Tin.tensor) driver_accs)
           else Sparse_driver driver);
        nnz_split;
        parallel = plan.Schedule.parallel_leaf <> None;
        out_reduce;
        leaf_row_part = Some (rows_part driver_tp);
        use_workspace = plan.Schedule.workspace;
        col_split;
      }
    in
    emit
      [
        Distributed_for
          { var = cvar; shard_parts; comms = !comms; out_comm; leaf };
      ];
    { grid; stmts = !stmts }
  in
  match start with
  | Universe_at levels ->
      (* createInitialUniversePartitions + partitionCoordinateTrees for every
         sparse operand indexed by the distributed variable (Fig. 9a). *)
      let tps =
        List.map
          (fun (acc, k) ->
            let tname = acc.Tin.tensor in
            let tp =
              partition_tree env ~space:Level_funcs.Universe ~tname ~k ~cvar
                ~count:primary_count ~axis:primary_axis
            in
            emit tp.tstmts;
            add_sparse_comm tname tp.vals_part;
            (acc, tp))
          levels
      in
      (* A sparse pattern-preserving output indexed by the variable also
         gets its row partition implicitly via the shared metadata; a sparse
         merge output is assembled locally. *)
      let driver_acc, driver_tp = List.hd tps in
      finish ~driver_acc ~driver_tp ~tps ~nnz_split:false
  | Non_zero_at (driver_acc, k_f) ->
      let tensor = driver_acc.Tin.tensor in
      let tp =
        partition_tree env ~space:Level_funcs.Non_zero ~tname:tensor ~k:k_f
          ~cvar ~count:primary_count ~axis:primary_axis
      in
      emit tp.tstmts;
      add_sparse_comm tensor tp.vals_part;
      finish ~driver_acc ~driver_tp:tp
        ~tps:[ (driver_acc, tp) ]
        ~nnz_split:true

let placement_of_tdn ~env ~grid ~tensor ~order tdn =
  let stmt, sched = Tdn.to_schedule ~tensor ~order tdn in
  lower ~env ~grid stmt sched
