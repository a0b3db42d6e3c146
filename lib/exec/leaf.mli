(** Leaf kernels: the per-piece computation at the bottom of a distributed
    loop (paper Fig. 9b label (4)).

    The executor derives the iteration shape mechanically from the TIN
    statement: iterate the stored values of the sparse driver (or co-iterate
    rows of several operands for additive merges), evaluate the dense factors,
    and write/reduce into the output — covering SpMV, SpMM, SpAdd3, SDDMM,
    SpTTV and SpMTTKRP with four loop shapes.  Results are numerically exact;
    the returned {!Spdistal_runtime.Task.work} feeds the time model. *)

open Spdistal_runtime

(** A shard's locally-assembled rows of an unknown-pattern sparse output
    (two-phase assembly, §V-B); stitched globally by the interpreter.
    [mcrd]/[mvals] hold the rows' entries back to back; they are sized by
    an upper bound, so only their first [Σ mcounts] slots are entries
    ([mvals] is not filled past them). *)
type merge_partial = {
  mrows : int array;  (** row ids, increasing *)
  mcounts : int array;  (** output non-zeros per row *)
  mcrd : int array;
  mvals : float array;
}

type result = { work : Task.work; partial : merge_partial option }

(** {1 Shared kernel classification}

    The compiled backend ({!Compile_leaf}) reuses the interpreter's
    classification and work model, so the two backends cannot disagree on a
    kernel's shape or its Cost accounting; only the element loop differs. *)

(** Where an index of a dense operand access comes from. *)
type idx_src =
  | Driver_dim of int  (** slot of the driver's access *)
  | Inner_out  (** dense output var the driver doesn't bind *)
  | Inner_red  (** dense reduction var *)

(** A dense factor of a product: the operand's name and how each of its
    indices is sourced ([F_mat] also fixes the row stride, [cols]).  A
    factor holds no storage: both backends look its data up in the launch
    bindings on every execute ({!factor_data}), so one plan runs against
    any bindings whose operands have the planned shapes. *)
type factor =
  | F_vec of string * idx_src
  | F_mat of string * int * idx_src * idx_src

(** The output's shape.  Like a factor it holds no storage: the output
    operand ([pl_out_name]) is looked up in the launch bindings on every
    execute, which also picks up a warm-start iteration's restored
    output. *)
type sink_spec =
  | Sp_vec of idx_src
  | Sp_mat of idx_src * idx_src
  | Sp_sparse of int option
      (** [Some level]: leaf positions map to output positions at that
          storage level; [None] writes at the leaf *)

type plan = {
  pl_driver_name : string;
  pl_out_name : string;
  pl_nslots : int;
  pl_inner_out : bool;
  pl_inner_red : bool;
  pl_jext : int;
  pl_kext : int;
  pl_factors : factor array;
  pl_sink : sink_spec;
  pl_scale : float;
  pl_nnz_split : bool;
}

(** Classify a multiplicative leaf. Raises [Error.Leaf] on unsupported
    shapes (second sparse operand, arity mismatches, missing extents). *)
val plan_mul :
  bindings:Operand.bindings ->
  leaf:Spdistal_ir.Loop_ir.leaf ->
  driver_name:string ->
  plan

(** The factors' data in [bindings], in [pl_factors] order.  Raises
    [Error.Leaf] when a factor's slot holds a sparse tensor. *)
val factor_data : bindings:Operand.bindings -> plan -> float array array

(** Inclusive inner-loop bounds for one piece (empty as [(0, -1)]). *)
val j_bounds : plan -> col_range:(int * int) option -> int * int

val k_bounds : plan -> int * int

(** The simulated-work model of a multiplicative leaf, shared verbatim by
    both backends.  [js]/[ks] are the executed inner extents
    ([jhi - jlo + 1]). *)
val mul_work :
  plan -> nnz:int -> rows_touched:int -> js:int -> ks:int -> Task.work

(** Per-operand resolved storage of a merge: (pos, crd, vals) triples. *)
type merge_op = (int * int) array * int array * Region.F.buf

(** Resolve the merge operands' storage and the shared column extent.
    Raises [Error.Leaf] unless every operand is a matrix with the first
    operand's dims. *)
val merge_ops :
  bindings:Operand.bindings -> tensors:string list -> merge_op array * int

(** The simulated-work model of a merge leaf, shared by both backends and
    by pricing: one flop and 32 B read per consumed operand entry, 16 B
    written per emitted entry. *)
val merge_work : entries:float -> emitted:float -> Task.work

(** The interpreter's k-way merge / workspace core, and the differential
    oracle for the compiled three-way cursor, which calls it only for the
    workspace strategy and for arities other than two and three.  It
    writes the partial's arrays directly and allocates nothing per row or
    entry; the [Task.work] counts are integer tallies converted once. *)
val merge_core :
  ops:merge_op array ->
  cols:int ->
  rows:Iset.t ->
  use_workspace:bool ->
  result

(** [execute ~bindings ~leaf ~shard_vals ~rows ~col_range ()] runs the leaf
    for one piece.  [shard_vals t] is the piece's subset of tensor [t]'s leaf
    positions; [rows] is the piece's row set (merge kernels); [col_range] an
    inclusive dense-column chunk (batched SpMM). *)
val execute :
  bindings:Operand.bindings ->
  leaf:Spdistal_ir.Loop_ir.leaf ->
  shard_vals:(string -> Iset.t) ->
  rows:Iset.t option ->
  col_range:(int * int) option ->
  unit ->
  result

(** Drop memoized coordinate expansions (frees memory between experiments). *)
val clear_cache : unit -> unit

(** Build (and memoize) the coordinate expansion of a tensor now.  The
    interpreter calls this on the reducing domain before simulating pieces in
    parallel, so worker domains only hit the (mutex-guarded) cache.  A
    memoized expansion is rebuilt once {!Spdistal_runtime.Region.generation}
    has moved past the stamp it was built under. *)
val prewarm : Spdistal_formats.Tensor.t -> unit
