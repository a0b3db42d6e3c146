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
  rows_part : string;  (** partition of level-0 positions *)
  tstmts : stmt list;
}

let level_part tp lvl =
  match List.assoc_opt lvl tp.level_parts with
  | Some p -> p
  | None -> Error.fail Error.Compile "Lower: no partition at level %d" lvl

(* createInitialUniversePartitions + partitionCoordinateTrees for one tensor,
   with the initial universe partition at storage level [k]. *)
let partition_tree_universe env ~tname ~k ~cvar ~count ~axis =
  let op = find_operand env tname in
  let last = order_of op - 1 in
  let ctx = ctx_of env tname k in
  let init_stmt, coloring = Level_funcs.init_universe_partition ctx ~axis in
  let lo, hi = block_bounds ~cvar ~count (Dim_of_level (tname, k)) in
  let entry = Level_funcs.create_universe_partition_entry ctx ~coloring ~lo ~hi in
  let fin = Level_funcs.finalize_universe_partition ctx ~coloring in
  let stmts =
    ref
      ((Comment
          (Printf.sprintf "%s level %d: initial universe partition" tname (k + 1))
       :: init_stmt
       :: [ For_colors { cvar; count; body = [ entry ] } ])
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
  stmts := !stmts @ vst;
  let rows_part =
    match List.assoc_opt 0 !level_parts with Some p -> p | None -> fin.Level_funcs.down
  in
  { level_parts = !level_parts; vals_part; rows_part; tstmts = !stmts }

(* createInitialNonZeroPartition + partitionNonZeroCoordinateTree: initial
   equal-cardinality partition of level [k_f]'s positions. *)
let partition_tree_nonzero env ~tname ~k_f ~cvar ~count ~axis =
  let op = find_operand env tname in
  let last = order_of op - 1 in
  let ctx = ctx_of env tname k_f in
  let init_stmt, coloring = Level_funcs.init_non_zero_partition ctx ~axis in
  let extent =
    if k_f = last then Nnz_of tname else Extent_of_level (tname, k_f)
  in
  let lo, hi = block_bounds ~cvar ~count extent in
  let entry = Level_funcs.create_non_zero_partition_entry ctx ~coloring ~lo ~hi in
  let fin = Level_funcs.finalize_non_zero_partition ctx ~coloring in
  let stmts =
    ref
      ((Comment
          (Printf.sprintf "%s level %d: initial non-zero partition" tname (k_f + 1))
       :: init_stmt
       :: [ For_colors { cvar; count; body = [ entry ] } ])
      @ fin.Level_funcs.stmts)
  in
  let level_parts = ref [ (k_f, fin.Level_funcs.down) ] in
  let cur = ref fin.Level_funcs.down in
  for lvl = k_f + 1 to last do
    let st, p = Level_funcs.partition_from_parent (ctx_of env tname lvl) ~parent:!cur in
    stmts := !stmts @ st;
    cur := p;
    level_parts := (lvl, p) :: !level_parts
  done;
  let up = ref fin.Level_funcs.up in
  for lvl = k_f - 1 downto 0 do
    level_parts := (lvl, !up) :: !level_parts;
    if lvl > 0 then begin
      let st, p = Level_funcs.partition_from_child (ctx_of env tname lvl) ~child:!up in
      stmts := !stmts @ st;
      up := p
    end
  done;
  let vst, vals_part = Level_funcs.vals_partition ~tensor:tname ~leaf_down:!cur in
  stmts := !stmts @ vst;
  let rows_part =
    match List.assoc_opt 0 !level_parts with Some p -> p | None -> fin.Level_funcs.down
  in
  { level_parts = !level_parts; vals_part; rows_part; tstmts = !stmts }

(* Communication entry for a dense operand: find the gather variable -- the
   first index of the operand that the driver also iterates -- and derive the
   needed subsets per piece (paper §II-C: communicate granularity is
   user-chosen, contents are inferred). *)
let comm_for_dense_operand env ~driver ~driver_acc ~driver_tp ~strategy ~coloring_cvar:_
    ~count ~cvar ~axis ~divide_by (x_acc : Tin.access) =
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
      match (level_kind driver_op kg, strategy) with
      | (Level.Compressed_k | Level.Compressed_nonunique_k | Level.Singleton_k), _
        ->
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
      | Level.Dense_k, `Universe when kg = 0 ->
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
      | Level.Dense_k, `Nonzero when kg = 0 ->
          (* Needed rows = the (aliased) span of each piece's positions. *)
          ( [],
            {
              comm_tensor = xname;
              comm_dim = gpos_in_x;
              comm_part = Some driver_tp.rows_part;
              divide_by;
            } )
      | Level.Dense_k, _ ->
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

let lower ~env ~grid stmt sched =
  Tin.validate ~order_of:(fun n -> order_of (find_operand env n)) stmt;
  check_fragment env stmt;
  let plan = Schedule.analyze stmt sched in
  let pieces = Array.fold_left ( * ) 1 grid in
  let primary_count = if Array.length grid >= 2 then grid.(0) else pieces in
  (* Everything this lowering distributes is chunked by the grid's first
     dimension; the second dimension only chunks dense columns (col_split). *)
  let primary_axis =
    if Array.length grid >= 2 then Partition.Grid_dim 0 else Partition.Flat
  in
  let col_split = if Array.length grid >= 2 then grid.(1) else 1 in
  ignore pieces;
  let out = stmt.Tin.lhs in
  let out_sparse = is_sparse env out.Tin.tensor in
  let rhs = Tin.rhs_accesses stmt in
  let rhs_sparse = List.filter (fun a -> is_sparse env a.Tin.tensor) rhs in
  let cvar = List.hd plan.Schedule.dist_vars in
  (* A merge kernel is a pure addition of several sparse operands; a single
     access (e.g. a TDN identity statement) is just a copy driven by that
     operand. *)
  let merge = Tin.is_pure_addition stmt && List.length rhs_sparse > 1 in
  (* A pattern-preserving sparse output shares the driver's metadata: pieces
     of a universe distribution over a variable outside the lhs prefix would
     alias the same output positions (an un-marked reduction).  Reject rather
     than run wrong. *)
  (match plan.Schedule.strategy with
  | Schedule.Universe_dist { var = v }
    when out_sparse && (not merge) && not (List.mem v out.Tin.indices) ->
      Error.fail Error.Compile
        "Lower: universe distribution over a reduction variable is \
         unsupported with a sparse output"
  | _ -> ());
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
  let secondary_roots =
    match plan.Schedule.secondary_var with
    | None -> []
    | Some _ ->
        (* The second distributed variable must be a dense-only output
           variable; its root is the last lhs variable. *)
        [ List.nth out.Tin.indices (List.length out.Tin.indices - 1) ]
  in
  let divide_for acc = if mentions acc secondary_roots then col_split else 1 in
  let driver_accs =
    if merge then rhs_sparse
    else
      match rhs_sparse with
      | [ a ] -> [ a ]
      | _ ->
          Error.fail Error.Compile
            "Lower: products need exactly one sparse operand"
  in
  let dense_accs = List.filter (fun a -> not (is_sparse env a.Tin.tensor)) rhs in
  let finish ~strategy ~(driver_acc : Tin.access) ~driver_tp ~tps ~nnz_split =
    let driver = driver_acc.Tin.tensor in
    (* Communication for dense operands. *)
    List.iter
      (fun a ->
        let sts, c =
          comm_for_dense_operand env ~driver ~driver_acc ~driver_tp ~strategy
            ~coloring_cvar:cvar ~count:primary_count ~cvar ~axis:primary_axis
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
              comm_part = Some driver_tp.rows_part;
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
    let leaf_row_part =
      if merge then Some driver_tp.rows_part
      else Option.map (fun _ -> driver_tp.rows_part) (List.assoc_opt 0 driver_tp.level_parts)
    in
    let leaf =
      {
        leaf_stmt = stmt;
        driver =
          (if merge then Merge_driver (List.map (fun a -> a.Tin.tensor) driver_accs)
           else Sparse_driver driver);
        nnz_split;
        parallel = plan.Schedule.parallel_leaf <> None;
        out_reduce;
        leaf_row_part;
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
  match plan.Schedule.strategy with
  | Schedule.Universe_dist { var = v } ->
      (* createInitialUniversePartitions + partitionCoordinateTrees for every
         sparse operand indexed by the distributed variable (Fig. 9a). *)
      let tps =
        List.map
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
            let tp =
              partition_tree_universe env ~tname ~k ~cvar ~count:primary_count
                ~axis:primary_axis
            in
            emit tp.tstmts;
            add_sparse_comm tname tp.vals_part;
            (acc, tp))
          driver_accs
      in
      (* A sparse pattern-preserving output indexed by [v] also gets its
         row partition implicitly via the shared metadata; a sparse merge
         output is assembled locally. *)
      let driver_acc, driver_tp = List.hd tps in
      finish ~strategy:`Universe ~driver_acc ~driver_tp ~tps ~nnz_split:false
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
      let tp =
        partition_tree_nonzero env ~tname:tensor ~k_f ~cvar
          ~count:primary_count ~axis:primary_axis
      in
      emit tp.tstmts;
      add_sparse_comm tensor tp.vals_part;
      finish ~strategy:`Nonzero ~driver_acc ~driver_tp:tp
        ~tps:[ (driver_acc, tp) ]
        ~nnz_split:true

let placement_of_tdn ~env ~grid ~tensor ~order tdn =
  let stmt, sched = Tdn.to_schedule ~tensor ~order tdn in
  lower ~env ~grid stmt sched
