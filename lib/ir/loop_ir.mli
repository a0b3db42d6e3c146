(** The loop-level intermediate representation that lowering targets: the
    "generated code" of SpDISTAL (paper Fig. 9b), as a typed AST instead of
    C++ text.

    Programs consist of partitioning statements (colorings, [partitionBy*],
    [image]/[preimage] — the IR fragments returned by the Table I level
    functions), a distributed loop carrying communication directives, and a
    leaf kernel specification executed on every piece.  {!Pretty} renders
    programs in the paper's pseudo-code style; [Spdistal_exec.Interp]
    executes them against the runtime substrate. *)

(** Symbolic dimension quantities (resolved against bound tensors). *)
type dim_expr =
  | Dim_of_level of string * int  (** universe size of a storage level *)
  | Extent_of_level of string * int  (** position extent of a storage level *)
  | Nnz_of of string  (** stored leaf count *)

(** Arithmetic over colors and dimensions, for coloring-entry bounds. *)
type aexpr =
  | Int of int
  | Color_var of string
  | Dim of dim_expr
  | Add of aexpr * aexpr
  | Sub of aexpr * aexpr
  | Mul of aexpr * aexpr
  | Div of aexpr * aexpr  (** integer division *)

(** A region within a tensor's storage. *)
type rref =
  | Pos_r of string * int
  | Crd_r of string * int
  | Dom_r of string * int
      (** the implicit position/coordinate space of a dense level *)

(** Partition-producing operations (paper Table I / §III-A). *)
type pexpr =
  | By_bounds of { target : rref; coloring : string }
  | By_value_ranges of { target : rref; coloring : string }
  | By_bounds_strided of { target : rref; coloring : string; dim : dim_expr }
      (** per-color coordinate bounds applied within every [dim]-sized block
          of the target position space (a dense level below a sparse parent) *)
  | Image_range of { pos : rref; part : string; target : rref }
  | Preimage_range of { pos : rref; part : string }
  | Image_values of { crd : rref; part : string; target : rref }
  | Copy_part of string
  | Scale_dense of { part : string; dim : dim_expr }
      (** dense-level partitionFromParent: positions [p] -> [p*dim .. ] *)
  | Unscale_dense of { part : string; dim : dim_expr }
      (** dense-level partitionFromChild *)

(** Communication directive for one operand at the distributed loop: piece
    [c] needs subset [part(c)] of dimension [dim] of [tensor], each element
    carrying the bytes of the remaining dimensions.  [part = None] means the
    whole dimension (replication).  [divide_by] scales the per-element bytes
    down (2-D column chunking of dense operands). *)
type comm = {
  comm_tensor : string;
  comm_dim : int;
  comm_part : string option;
  divide_by : int;
}

(** How the leaf iterates (derived from the TIN statement and schedule). *)
type driver =
  | Sparse_driver of string  (** iterate stored values of one sparse operand *)
  | Merge_driver of string list  (** co-iterate rows of several operands *)

type leaf = {
  leaf_stmt : Tin.stmt;
  driver : driver;
  nnz_split : bool;  (** shard boundary cuts rows (position-space split) *)
  parallel : bool;  (** leaf parallelized over the piece's processors *)
  out_reduce : bool;  (** pieces reduce into overlapping output locations *)
  leaf_row_part : string option;
      (** partition giving each piece's row set (merge kernels iterate rows
          across several operands) *)
  use_workspace : bool;
      (** merge kernels accumulate each row in a dense workspace (the
          precompute transformation of Kjolstad et al. [22]) instead of a
          k-way coordinate merge *)
  col_split : int;
      (** >1 when a second machine dimension chunks the dense column
          dimension (batched SpMM): each piece computes cols/col_split *)
}

type stmt =
  | Comment of string
  | Init_coloring of { coloring : string; axis : Spdistal_runtime.Partition.axis }
      (** [axis] records which machine-grid dimension the coloring's colors
          enumerate; partitions built from the coloring inherit it, and the
          interpreter dispatches on it when mapping piece ids to colors
          (color counts alone are ambiguous on square grids) *)
  | For_colors of { cvar : string; count : int; body : stmt list }
      (** loop over colors 0..count-1 creating coloring entries *)
  | Coloring_entry of { coloring : string; lo : aexpr; hi : aexpr }
  | Def_partition of { pname : string; expr : pexpr }
  | Distributed_for of {
      var : string;
      shard_parts : (string * string) list;
          (** tensor -> vals/row partition defining its piece's work *)
      comms : comm list;
      out_comm : comm option;
      leaf : leaf;
    }

type prog = {
  grid : int array;  (** machine grid the program was lowered for *)
  stmts : stmt list;
}

val pieces : prog -> int

(** All partition names defined by a program, in definition order. *)
val defined_partitions : prog -> string list
