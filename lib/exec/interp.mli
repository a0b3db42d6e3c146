(** Execution of lowered programs against the simulated machine.

    The interpreter plays the role Legion plays for SpDISTAL's generated
    code: it materializes the program's partitions (dependent partitioning,
    §V-A), launches the distributed loop, moves the sub-regions each piece
    needs, runs the leaf kernels for real, and advances the simulated clock.

    Timing semantics: one [run] is one {e timed iteration} of the paper's
    benchmark protocol.  Partitioning happens at setup and is not charged.
    Dense operands are assumed invalidated between iterations (they are the
    vectors/factors an iterative application updates), so their
    communication recurs, exactly like PETSc's per-MatMult VecScatter;
    sparse inputs are charged only for the difference between their declared
    data distribution and what the computation needs (paper §II-D).
    {!Spdistal_runtime.Memstate} enforces capacities: [Oom] escapes to the
    caller, which reports a DNC cell (paper Fig. 11).  Each launch checks
    every piece's footprint before any of its leaves runs, so a launch that
    OOMs writes no output.

    Host parallelism: the pieces of each distributed launch are simulated
    concurrently on a domain pool when [domains >= 2] (explicitly, via
    {!Spdistal_runtime.Machine.set_sim_domains}, or via [SPDISTAL_DOMAINS]).
    Results are {e bit-identical} to a sequential run: piece simulations are
    pure records, every leaf that reduces into overlapping output locations
    runs on the reducing domain, and all shared state (Cost, Memstate,
    message totals, stitched outputs) is updated there in ascending piece
    order, preserving float accumulation order exactly.

    Unknown-pattern outputs (merges, §V-B): each piece assembles its rows
    into a partial and the reducing domain stitches the partials, in
    piece order, into a new CSR tensor bound to the output slot.  When the
    slot already holds exactly the output the partials assemble, the
    stitch writes only its values, into that storage.  Under the compiled
    backend a three-way-cursor merge first tries to compute only: when
    the slot holds a CSR output laid out as this launch's pieces would
    stitch it, each piece writes its sums into that output's values and
    checks every column against it ({!Compile_leaf.execute}'s [into]).  A
    mismatch in any piece makes the launch run every piece again,
    assembling, so the output, the launch records and Cost equal the
    assembling launch's in every case. *)

open Spdistal_runtime

(** [run ~machine ~bindings ~placement ~memstate ~cost ?domains ?faults
    ~prepared prog] executes [prog], reserving each piece's footprint in
    [memstate].  [domains] caps the OCaml domains used
    to simulate pieces of one launch concurrently (default
    {!Spdistal_runtime.Machine.sim_domains}; [<= 1] means sequential).

    [faults] (default {!Spdistal_runtime.Fault.default}, i.e. the CLI
    override or [SPDISTAL_FAULTS], else disabled) injects a deterministic
    fault schedule — node crashes, message loss, stragglers — and prices
    Legion-style recovery into [cost]: leaves still commit exactly once on
    the reducing domain, so computed tensors are {e bit-identical} to the
    fault-free run under any schedule; only per-piece times, moved bytes and
    the recovery counters change.  Recovery exhaustion (a fault recurring
    past [max_retries], or a crash with no surviving node) raises
    {!Spdistal_runtime.Error.Error} with the [Recovery] phase.

    [trace] (default {!Spdistal_obs.Trace.default}) receives the run's
    events: per-launch critical-path spans on the runtime track, per-piece
    fetch/compute spans (plus UVM paging and fault-recovery instants) on
    piece tracks, pool-occupancy spans on the host clock, comm-matrix
    edges and cumulative cost counters (the dependent-partitioning spans
    come from {!prepare}, not from [run]).  Tracing
    never changes computed tensors or [cost] — all emission happens on the
    reducing domain in piece order.

    An output whose values share storage with an input's (one [Dense.t]
    bound to both, say) is refused before any leaf runs, with a
    {!Spdistal_runtime.Error.Error} in the [Config] phase naming both
    operands.  Every run path ([Spdistal.run], [Context.run] and the
    serving front-end) reaches this check.

    [prepared] is [prog]'s materialized {!prepared} value from {!prepare}
    (fresh from a cold build, or replayed from the execution context's
    cache); its [pp_backend] fixes how leaves execute — [Compiled] runs the
    monomorphized closures from {!Compile_leaf}, [Interp] the reference
    interpreter in {!Leaf}, bit-identical in outputs, launch records and
    Cost.  Every leaf reads values and writes the output through
    [bindings], never through the bindings [prepared] was built from, so
    one prepared program runs against any bindings with the pattern and
    shapes it was prepared for.  [launch_base]
    offsets the run's launch indices, so iteration [i]
    of a warm-start run draws the same fault schedule whether or not its
    partitions came from the cache. *)

(** A prepared program: the partition environment, its distributed loops,
    and — under the compiled backend — one specialized closure per loop
    (aligned with [pp_loops]; [None] entries fall back to the
    interpreter). *)
type prepared = {
  pp_penv : Part_eval.env;
  pp_loops : Spdistal_ir.Loop_ir.stmt list;
  pp_leaves : Compile_leaf.t option list;
  pp_backend : Compile_leaf.backend;
}

val run :
  machine:Machine.t ->
  bindings:Operand.bindings ->
  placement:Placement.t ->
  memstate:Memstate.t ->
  cost:Cost.t ->
  ?domains:int ->
  ?faults:Fault.config ->
  ?trace:Spdistal_obs.Trace.t ->
  prepared:prepared ->
  ?launch_base:int ->
  Spdistal_ir.Loop_ir.prog ->
  unit

(** [estimate ~machine ~bindings ~placement ~cost ~prepared ~work prog]
    dry-runs {!run}'s own launch loop — sequentially, fault-free, untraced,
    with the run's capacity checks on a fresh
    {!Spdistal_runtime.Memstate} — with each leaf replaced by [work leaf], the
    work one piece does given its shard, rows and column block.  [work leaf]
    is applied once per launch.  Transfers, the critical-path split and the
    reduction bill are charged to [cost] by the code {!run} uses, so given
    the executed leaves' work the two agree on every [Cost] field, and a
    program that OOMs when run raises the same
    {!Spdistal_runtime.Memstate.Oom} here.  Nothing is executed or stitched
    and no driver coordinates are expanded. *)
val estimate :
  machine:Machine.t ->
  bindings:Operand.bindings ->
  placement:Placement.t ->
  cost:Cost.t ->
  prepared:prepared ->
  work:
    (Spdistal_ir.Loop_ir.leaf ->
    shard_vals:(string -> Iset.t) ->
    rows:Iset.t option ->
    col_range:(int * int) option ->
    Task.work) ->
  Spdistal_ir.Loop_ir.prog ->
  unit

(** Materialize [prog]'s partitions — and, under the [Compiled] [backend],
    specialize its leaf loops — without executing its distributed loops:
    the value [run] takes as [~prepared].  [trace] (default
    {!Spdistal_obs.Trace.null}) receives the "part_eval" and
    "compile_leaves" phase spans.  A fresh environment evaluates the
    partitioning statements, looking each partition up in [shared] (default:
    a fresh table) first (see {!Part_eval.create}). *)
val prepare :
  ?trace:Spdistal_obs.Trace.t ->
  ?shared:Part_eval.shared ->
  backend:Compile_leaf.backend ->
  bindings:Operand.bindings ->
  Spdistal_ir.Loop_ir.prog ->
  prepared

(** Swap a prepared program to [backend], reusing its materialized
    partitions (the expensive part) and respecializing only the leaves.
    Returns [p] unchanged when its backend already matches. *)
val relink :
  ?trace:Spdistal_obs.Trace.t ->
  bindings:Operand.bindings ->
  backend:Compile_leaf.backend ->
  prepared ->
  prepared

(** Whether every launch of the program is a merge that does not read
    its own output: each one assembles that output, or computes every
    value of the one the output slot holds, so a run never reads what an
    earlier run left in the output. *)
val merge_only : prepared -> bool

(** Color of [part] selected by piece [piece] on [grid].
    Dispatches on the partition's {!Spdistal_runtime.Partition.axis}: [Flat]
    partitions are indexed by piece id; [Grid_dim d] partitions by the
    piece's coordinate along grid dimension [d] (pieces are row-major over
    the grid). *)
val color_for :
  grid:int array -> pieces:int -> Partition.t -> int -> int
