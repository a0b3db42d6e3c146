(** Compiled leaf kernels: monomorphized per-(format × expression) closures.

    The reference interpreter in {!Leaf} re-dispatches on the kernel shape
    for every stored element.  This pass runs once per lowered program (at
    [Spdistal.compile] / {!Interp.prepare} time) and specializes each leaf
    loop into a closed closure: level iterators from
    {!Spdistal_ir.Level_funcs} are pre-resolved per level kind
    (dense / compressed / compressed-non-unique / singleton), the kernel
    shape is matched once, and the hot loop touches only flat arrays and
    the Bigarray value buffers ({!Spdistal_runtime.Region.F}) — no IR
    dispatch.

    CSR SpMV, SpMM and SDDMM run fused row-segment loops.  SpTTV
    ([A(i,j) = B(i,j,k)·c(k)] into a sparse output sharing [B]'s first two
    levels) and SpMTTKRP ([A(i,l) = B(i,j,k)·C(j,l)·D(k,l)], factors in that
    order) run fused slice-segment loops when [B] is stored in identity
    mode order as CSF (Dense, Compressed, Compressed) or as (Dense, Dense,
    Compressed).  The blocked loops keep output cells in registers: SpMM
    holds four columns of [A]'s row across a row segment, SpMTTKRP four
    columns of [A]'s row across every fiber of a slice, and SDDMM reads [D]
    through a transposed copy made once per launch, four elements at a
    time.  Each output cell receives the interpreter's products, with its
    association, in its order; only the interleaving across cells differs,
    which is why an output may not share storage with an input (see
    {!Interp.run}).  Every other shape runs a generic walker that indexes
    each factor and the sink affinely in the one active inner variable
    ([base + v·stride], bases recomputed once per stored element), so its
    inner loop is a plain [for] over the factor arrays with an unboxed
    float accumulator.

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

(** Process-wide override (the CLI's [--leaf-backend]); takes precedence
    over the environment variable. *)
val set_backend : backend -> unit

(** Override > [SPDISTAL_LEAF_BACKEND] > [Compiled].  An unparseable
    environment value silently falls back to the default; the CLI flag
    errors loudly instead. *)
val default_backend : unit -> backend

(** {1 Compilation and execution} *)

(** A leaf specialized for its driver format and expression shape.  It
    holds structure only: the {!Leaf.plan}, the affine index maps, the
    fast-path choice, and the level walkers, CSR row ends and fiber arrays
    of the driver it was compiled against.  Data binds at launch: each
    {!launch} looks up the driver's values, the factors, the merge
    operands and the output in its bindings, so a leaf compiled for one
    context serves any context whose problem has the same pattern and
    shapes (the cache key guarantees both).  A launch driver stored in
    other arrays than the compiled one is walked through its own storage
    for that launch.  All mutable walk state is allocated per piece, so
    the pieces of one launch may run concurrently.  An SDDMM leaf keeps one
    transposed-[D] buffer across its launches. *)
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
    output's storage, the walk, and for SDDMM the transposed [D].  The
    returned piece reads what was resolved and may run concurrently on
    other domains; [bindings]' driver must have the pattern [t] was
    compiled for.  Raises {!Spdistal_runtime.Error.Error} ([Leaf]) when an
    operand's shape, or the driver's stored-value count, differs from the
    one [t] was compiled for.  Launches of one leaf must not overlap: the
    transposed [D] is one buffer per leaf.  [into] is {!execute}'s. *)
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

(** The loop a leaf runs: ["csr-spmv"], ["csr-spmm"], ["csr-sddmm"],
    ["fiber-ttv"], ["fiber-mttkrp"], ["generic"], ["csr-merge"] (the
    three-way merge cursor) or ["merge"] ({!Leaf.merge_core}). *)
val path_name : t -> string
