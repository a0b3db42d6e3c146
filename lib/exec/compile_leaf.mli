(** Compiled leaf kernels: one leaf compiler from the level functions.

    The reference interpreter in {!Leaf} re-dispatches on the kernel shape
    for every stored element.  This pass runs once per lowered program (at
    [Spdistal.compile] / {!Interp.prepare} time) and specializes each leaf
    into a closure whose loops touch only flat arrays and the Bigarray value
    buffers ({!Spdistal_runtime.Region.F}).

    A product leaf is a segment walker and one of three loop bodies.  The
    walker is staged once from the driver's level functions
    ({!Spdistal_ir.Level_funcs}): it seeks each shard interval's first
    position with [li_locate], walks the levels above the leaf parent with
    [li_iter], and hands the body whole runs of leaf positions, one per
    leaf parent ([li_run]), with the outer coordinates and positions set.
    The body is chosen from the {!Leaf.plan} (inner variable, factor
    sources, sink) and the level each variable is stored at, not from the
    storage format:
    - ["held"]: no inner reduction, output cells fixed across a run, and
      one factor or two whose first does not read the leaf (SpMV, SpMM,
      SpTTV, SpMTTKRP on any level kinds and mode order that keep that
      shape).  The output cells stay in registers, four inner columns at a
      time, across every run that writes them; the first factor is folded
      into [scale·f0] once per run and column, as the interpreter folds it
      first.
    - ["dot"]: an inner reduction over two factors contiguous in [k], the
      first not reading the leaf (SDDMM, whose [D(k,j)] is read through a
      transposed copy made at launch): one dot product per leaf position,
      four positions at a time, each summed from [0.] over [k] upward as
      in the interpreter.
    - ["affine"]: every other shape, one position at a time, every factor
      and output index affine in the run's fixed part, the leaf coordinate
      and the inner variable.

    Each output cell receives the interpreter's products, with its
    association, in its order; only the interleaving across cells differs,
    which is why an output may not share storage with an input (see
    {!Interp.run}).

    A merge (SpAdd3) of two or three CSR operands without a workspace runs
    one three-way cursor whose positions, head columns and sum are locals;
    the workspace strategy and other arities call the interpreter's
    {!Leaf.merge_core}.  The cursor either assembles its rows into a
    partial or, given the output an earlier launch assembled ([?into]),
    computes only: it writes each sum into that output's values at the
    installed position, checking every column against the installed one,
    and allocates nothing.  All allocate nothing per stored element (an
    assembling merge nothing per row or entry beyond its partial's arrays);
    [test/test_leaf.ml] bounds one execute's minor allocation.

    Classification ({!Leaf.plan_mul}, {!Leaf.merge_ops}), inner-loop
    bounds and the simulated work models ({!Leaf.mul_work},
    {!Leaf.merge_work}) are shared verbatim with the interpreter, which
    remains the differential oracle: outputs, launch records and Cost are
    bit-identical across backends (checked by [spdistal fuzz] and the test
    suite). *)

open Spdistal_runtime

(** {1 Backend selection} *)

type backend = Interp | Compiled

(** Parse ["interp"]/["interpreter"]/["compiled"]/["compile"]
    (case-insensitive); [Error msg] otherwise. *)
val backend_of_string : string -> (backend, string) result

val backend_name : backend -> string

(** Process-wide override (the CLI's [--leaf-backend]). *)
val set_backend : backend -> unit

(** The {!set_backend} override, else [Compiled]. *)
val default_backend : unit -> backend

(** {1 Compilation and execution} *)

(** A leaf specialized for its driver format and expression shape.  It
    holds structure only: the {!Leaf.plan}, the affine index maps, the
    chosen body, and the walk (level functions, leaf-parent run ends and
    coordinates) of the driver it was compiled against.  Data binds at
    launch: each {!launch} looks up the driver's values, the factors, the
    merge operands and the output in its bindings, so a leaf compiled for
    one context serves any context whose problem has the same pattern and
    shapes (the cache key guarantees both).  A launch driver stored in
    other arrays than the compiled one is walked through its own storage
    for that launch.  All mutable walk state is allocated per piece, so
    the pieces of one launch may run concurrently.  A dot leaf keeps one
    transposed-factor buffer across its launches. *)
type t

(** Specialize one leaf.  Raises {!Spdistal_runtime.Error.Error} on the
    same unsupported shapes as the interpreter ({!Leaf.plan_mul}). *)
val compile : bindings:Operand.bindings -> Spdistal_ir.Loop_ir.leaf -> t

(** One piece of a launch: {!Leaf.execute}'s piece-shard arguments, same
    {!Leaf.result}, same deferred per-element error semantics. *)
type piece =
  shard_vals:(string -> Iset.t) ->
  rows:Iset.t option ->
  col_range:(int * int) option ->
  unit ->
  Leaf.result

(** [launch t ~bindings] resolves a launch's data once, on the calling
    domain: the shape checks, the driver's values, the factors' and the
    output's storage, the walk, and for a dot leaf the transposed factor.
    The returned piece reads what was resolved and may run concurrently on
    other domains; [bindings]' driver must have the pattern [t] was
    compiled for.  Raises {!Spdistal_runtime.Error.Error} ([Leaf]) when an
    operand's shape, or the driver's stored-value count, differs from the
    one [t] was compiled for.  Launches of one leaf must not overlap: the
    transposed factor is one buffer per leaf.  [into] is {!execute}'s. *)
val launch : ?into:Leaf.merge_op -> t -> bindings:Operand.bindings -> piece

(** Raised by a piece that computes into an installed output ([?into])
    whose pattern is not the one the piece's rows merge to: a column
    differs, or a row has more or fewer entries.  The piece may have
    written some values into the installed output before it stopped; the
    caller re-runs the launch assembling. *)
exception Reassemble

(** [launch] then one piece: a drop-in replacement for {!Leaf.execute}.
    [bindings] default to the ones [t] was compiled against.

    [into] is the [(pos, crd, vals)] storage of an assembled CSR output
    with the merge operands' row count.  A three-way-cursor merge
    (["csr-merge"]) given one computes only: each row's sums go into
    [vals] at the row's installed range, the result carries no partial,
    and its work equals the assembling cursor's.  It raises {!Reassemble}
    when a row's emitted columns are not exactly its installed [crd]
    range.  Every other leaf ignores [into]. *)
val execute :
  t ->
  ?bindings:Operand.bindings ->
  ?into:Leaf.merge_op ->
  shard_vals:(string -> Iset.t) ->
  rows:Iset.t option ->
  col_range:(int * int) option ->
  unit ->
  Leaf.result

(** The loop a leaf runs: ["held"], ["dot"] or ["affine"] for a product,
    ["csr-merge"] (the three-way merge cursor) or ["merge"]
    ({!Leaf.merge_core}) for a merge. *)
val path_name : t -> string
