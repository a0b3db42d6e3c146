type dim_expr =
  | Dim_of_level of string * int
  | Extent_of_level of string * int
  | Nnz_of of string

type aexpr =
  | Int of int
  | Color_var of string
  | Dim of dim_expr
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr
  | Mul of aexpr * aexpr
  | Div of aexpr * aexpr

type rref =
  | Pos_r of string * int
  | Crd_r of string * int
  | Dom_r of string * int

type pexpr =
  | By_bounds of { target : rref; coloring : string }
  | By_value_ranges of { target : rref; coloring : string }
  | By_bounds_strided of { target : rref; coloring : string; dim : dim_expr }
  | Image_range of { pos : rref; part : string; target : rref }
  | Preimage_range of { pos : rref; part : string }
  | Image_values of { crd : rref; part : string; target : rref }
  | Copy_part of string
  | Scale_dense of { part : string; dim : dim_expr }
  | Unscale_dense of { part : string; dim : dim_expr }

type comm = {
  comm_tensor : string;
  comm_dim : int;
  comm_part : string option;
  divide_by : int;
}

type driver = Sparse_driver of string | Merge_driver of string list

type leaf = {
  leaf_stmt : Tin.stmt;
  driver : driver;
  nnz_split : bool;
  parallel : bool;
  out_reduce : bool;
  leaf_row_part : string option;
  use_workspace : bool;
  col_split : int;
}

type stmt =
  | Comment of string
  | Init_coloring of { coloring : string; axis : Spdistal_runtime.Partition.axis }
  | For_colors of { cvar : string; count : int; body : stmt list }
  | Coloring_entry of { coloring : string; lo : aexpr; hi : aexpr }
  | Def_partition of { pname : string; expr : pexpr }
  | Distributed_for of {
      var : string;
      shard_parts : (string * string) list;
      comms : comm list;
      out_comm : comm option;
      leaf : leaf;
    }

type prog = { grid : int array; stmts : stmt list }

let pieces prog = Array.fold_left ( * ) 1 prog.grid

let defined_partitions prog =
  let rec go acc = function
    | [] -> acc
    | Def_partition { pname; _ } :: rest -> go (pname :: acc) rest
    | For_colors { body; _ } :: rest -> go (go acc body) rest
    | (Comment _ | Init_coloring _ | Coloring_entry _ | Distributed_for _) :: rest
      ->
        go acc rest
  in
  List.rev (go [] prog.stmts)
