open Loop_ir

let pp_dim fmt = function
  | Dim_of_level (t, k) -> Format.fprintf fmt "%s[%d].dim" t k
  | Extent_of_level (t, k) -> Format.fprintf fmt "%s[%d].extent" t k
  | Nnz_of t -> Format.fprintf fmt "%s.nnz" t

let rec pp_aexpr fmt = function
  | Int n -> Format.fprintf fmt "%d" n
  | Color_var v -> Format.fprintf fmt "%s" v
  | Dim d -> pp_dim fmt d
  | Add (a, b) -> Format.fprintf fmt "%a + %a" pp_aexpr a pp_aexpr b
  | Sub (a, b) -> Format.fprintf fmt "%a - %a" pp_aexpr a pp_sub b
  | Mul (a, b) -> Format.fprintf fmt "%a * %a" pp_atom a pp_atom b
  | Div (a, b) -> Format.fprintf fmt "%a / %a" pp_atom a pp_atom b

and pp_atom fmt = function
  | (Add _ | Sub _) as e -> Format.fprintf fmt "(%a)" pp_aexpr e
  | e -> pp_aexpr fmt e

and pp_sub fmt = function
  | (Add _ | Sub _) as e -> Format.fprintf fmt "(%a)" pp_aexpr e
  | e -> pp_aexpr fmt e

let pp_rref fmt = function
  | Pos_r (t, k) -> Format.fprintf fmt "%s[%d].pos" t k
  | Crd_r (t, k) -> Format.fprintf fmt "%s[%d].crd" t k
  | Dom_r (t, k) -> Format.fprintf fmt "%s[%d].dom" t k

let pp_pexpr fmt = function
  | By_bounds { target; coloring } ->
      Format.fprintf fmt "partitionByBounds(%s, %a)" coloring pp_rref target
  | By_value_ranges { target; coloring } ->
      Format.fprintf fmt "partitionByValueRanges(%s, %a)" coloring pp_rref target
  | By_bounds_strided { target; coloring; dim } ->
      Format.fprintf fmt "partitionByBounds(%s, %a) /* per %a block */" coloring
        pp_rref target pp_dim dim
  | Image_range { pos; part; target } ->
      Format.fprintf fmt "image(%a, %s, %a)" pp_rref pos part pp_rref target
  | Preimage_range { pos; part } ->
      Format.fprintf fmt "preimage(%a, %s)" pp_rref pos part
  | Image_values { crd; part; target } ->
      Format.fprintf fmt "imageValues(%a, %s, %a)" pp_rref crd part pp_rref target
  | Copy_part p -> Format.fprintf fmt "copy(%s)" p
  | Scale_dense { part; dim } ->
      Format.fprintf fmt "copy(%s) /* scaled by %a */" part pp_dim dim
  | Unscale_dense { part; dim } ->
      Format.fprintf fmt "copy(%s) /* unscaled by %a */" part pp_dim dim

let pp_comm fmt (c : comm) =
  let part = match c.comm_part with None -> "<all>" | Some p -> p in
  let dim =
    if c.comm_dim < 0 then "nnz" else Printf.sprintf "dim %d" c.comm_dim
  in
  if c.divide_by > 1 then
    Format.fprintf fmt "communicate %s by %s[%s] (cols/%d)" c.comm_tensor dim
      part c.divide_by
  else Format.fprintf fmt "communicate %s by %s[%s]" c.comm_tensor dim part

let pp_driver fmt = function
  | Sparse_driver t -> Format.fprintf fmt "%s" t
  | Merge_driver ts -> Format.fprintf fmt "merge(%s)" (String.concat ", " ts)

let rec pp_stmt fmt = function
  | Comment s -> Format.fprintf fmt "// %s" s
  | Init_coloring { coloring = c; axis } ->
      Format.fprintf fmt "Coloring %s = {};%s" c
        (match axis with
        | Spdistal_runtime.Partition.Flat -> ""
        | Spdistal_runtime.Partition.Grid_dim d ->
            Printf.sprintf " // colors = grid dim %d" d)
  | For_colors { cvar; count; body } ->
      Format.fprintf fmt "@[<v 2>for (int %s = 0; %s < %d; %s++) {@,%a@]@,}" cvar
        cvar count cvar pp_block body
  | Coloring_entry { coloring; lo; hi } ->
      Format.fprintf fmt "%s[color] = {%a, %a};" coloring pp_aexpr lo pp_aexpr hi
  | Def_partition { pname; expr } ->
      Format.fprintf fmt "auto %s = %a;" pname pp_pexpr expr
  | Distributed_for { var; shard_parts; comms; out_comm; leaf } ->
      Format.fprintf fmt "@[<v 2>distributed for %s in pieces {" var;
      List.iter
        (fun (t, p) -> Format.fprintf fmt "@,%s = subtensor(%s[%s]);" t p var)
        shard_parts;
      List.iter (fun c -> Format.fprintf fmt "@,%a;" pp_comm c) comms;
      (match out_comm with
      | Some c -> Format.fprintf fmt "@,// output: %a (reduction)" pp_comm c
      | None -> ());
      Format.fprintf fmt "@,leaf: %a over %a%s%s%s" Tin.pp leaf.leaf_stmt
        pp_driver leaf.driver
        (if leaf.nnz_split then " [nnz-split]" else "")
        (if leaf.parallel then " [parallel]" else "")
        (if leaf.col_split > 1 then
           Printf.sprintf " [cols/%d]" leaf.col_split
         else "");
      Format.fprintf fmt "@]@,}"

and pp_block fmt body =
  Format.pp_print_list
    ~pp_sep:(fun f () -> Format.fprintf f "@,")
    pp_stmt fmt body

let pp_prog fmt prog =
  Format.fprintf fmt "@[<v>// lowered for %d piece(s)@,%a@]"
    (pieces prog) pp_block prog.stmts

let prog_to_string prog = Format.asprintf "%a" pp_prog prog
