(** SpDISTAL's user-facing API, mirroring the paper's Fig. 1 program shape:
    declare a machine, declare tensors with formats and data distributions,
    state the computation in tensor index notation, schedule it, then
    compile and run.

    {[
      let m = Spdistal.machine ~kind:Machine.Cpu [| pieces |] in
      let problem =
        Spdistal.problem ~machine:m
          ~operands:
            [
              ("a", Operand.vec a, Tdn.Blocked { tensor_dim = 0; machine_dim = 0 });
              ("B", Operand.sparse b, Tdn.Blocked { tensor_dim = 0; machine_dim = 0 });
              ("c", Operand.vec c, Tdn.Replicated);
            ]
          ~stmt:Tin.spmv ~schedule:(Kernels.spmv_row ())
      in
      let prog = Spdistal.compile problem in
      let res = Spdistal.run problem
    ]} *)

open Spdistal_runtime
open Spdistal_ir
open Spdistal_exec

(** A fully-specified distributed computation. *)
type problem = {
  machine : Machine.t;
  operands : (string * Operand.slot * Tdn.t) list;
  stmt : Tin.stmt;
  schedule : Schedule.t;
}

val machine : ?params:Machine.params -> kind:Machine.proc_kind -> int array -> Machine.t

val problem :
  machine:Machine.t ->
  operands:(string * Operand.slot * Tdn.t) list ->
  stmt:Tin.stmt ->
  schedule:Schedule.t ->
  problem

(** [with_schedule p ~schedule ~tdns] is [p] with the schedule replaced and
    each operand's TDN overridden by its entry in [tdns] (operands absent
    from [tdns] keep theirs).  The operand {e slots} are shared with [p], so
    outputs land in the same bindings — this is how the auto-scheduler
    re-plans a problem without re-binding data. *)
val with_schedule :
  problem -> schedule:Schedule.t -> tdns:(string * Tdn.t) list -> problem

(** Lower the problem to its partitioning-and-compute program (Fig. 9).
    [trace] (default {!Spdistal_obs.Trace.default}) gets a host-clock
    "lower" phase span. *)
val compile : ?trace:Spdistal_obs.Trace.t -> problem -> Loop_ir.prog

(** Render the compiled program as paper-style pseudo-code. *)
val show : problem -> string

(** The partitions shared within one plan and between the plans of one
    problem under several schedules and distributions: a
    {!Spdistal_exec.Part_eval.shared} table keyed by each partition's
    derivation ({!Spdistal_exec.Part_eval.key}).  A program that derives a
    partition its placement already derived, or that another candidate's
    placement or program derived, evaluates it once.  Sharing never changes
    the bill: a recalled partition is counted exactly as evaluating it
    would be, so every plan's [e_part_ops], [e_part_seconds] and
    [e_part_elems] equal those of a build that shares nothing.  A memo
    shared between plans is only valid for problems that share one machine
    and one set of operand slots (the {!with_schedule} variants of one
    problem), and only for plans that are never executed: the shared
    partitions are read, not re-evaluated. *)
type memo

val memo : unit -> memo

(** The cold build every protocol and the pricer share: placement,
    {!compile} and {!Spdistal_exec.Interp.prepare} under [backend], with
    the dependent-partitioning work tallied into the entry's bill
    ([e_part_seconds], [e_part_ops]).  [e_key] is [""]; [trace] gets the
    host-clock phase spans.  Every placement and the program look their
    partitions up in [memo] (default: a fresh one) before evaluating them,
    and the entry's bill equals a build under a fresh memo. *)
val plan :
  ?memo:memo ->
  trace:Spdistal_obs.Trace.t ->
  backend:Compile_leaf.backend ->
  problem ->
  Spdistal_exec.Cache.entry

(** How one warm-start iteration obtained its launch plan: [`Miss] built and
    cached it (paying dependent partitioning), [`Hit] reused the cache for
    free, [`Uncached] rebuilt it with caching disabled (paying every time). *)
type cache_status = [ `Hit | `Miss | `Uncached ]

type iter_stat = {
  it_index : int;
  it_cache : cache_status;
  it_cost : Cost.t;
      (** this iteration's cost delta; [it_cost.partitioning] is non-zero
          exactly when the iteration was cold *)
}

type run_result = {
  cost : Cost.t;  (** simulated time of one timed iteration *)
  dnc : string option;
      (** [Some reason] when the run OOMed or fault recovery was exhausted
          (a DNC cell) *)
  iters : iter_stat list;
      (** per-iteration statistics of a warm-start ([?iterations]) run, in
          iteration order; empty on the legacy single-shot protocol *)
  crashed : int list;
      (** nodes that crashed during a warm-start run (sorted, deduplicated):
          transient crashes recovery absorbed, plus the node whose repeated
          crashes exhausted recovery when [dnc] is set.  Empty on the legacy
          single-shot protocol.  A serving front-end uses this to blacklist
          repeat offenders. *)
}

(** Execute one timed iteration: builds the launch plan with {!plan}
    (partitioning at setup, uncharged), runs it once (real numerics) and
    returns the simulated cost.  On OOM the result carries [dnc]; without
    [iterations] the outputs are then unspecified (with [iterations] they
    are restored, see below).  [domains] bounds
    the OCaml domains used to simulate pieces concurrently (default
    {!Spdistal_runtime.Machine.sim_domains}); it affects wall-clock only —
    costs and outputs are bit-identical at every degree.

    [faults] (default {!Spdistal_runtime.Fault.default}) injects a
    deterministic fault schedule and prices Legion-style recovery into the
    cost; outputs stay bit-identical to the fault-free run.  When recovery
    is exhausted (a fault recurring past [max_retries]) the run reports a
    DNC instead of raising.

    [leaf_backend] (default {!Spdistal_exec.Compile_leaf.default_backend},
    i.e. the CLI's [--leaf-backend] or [SPDISTAL_LEAF_BACKEND], else the
    compiled backend) selects how leaf kernels execute: [Compiled] runs the
    monomorphized per-(format × expression) closures, [Interp] the
    reference interpreter.  Outputs, launch records and cost are
    bit-identical across backends.

    [trace] (default {!Spdistal_obs.Trace.default}) records the whole run:
    compile/placement phase spans on the host clock and every runtime event
    on the simulated clock (see {!Spdistal_exec.Interp.run}).  Tracing never
    changes outputs or cost.

    [iterations] switches to the {e warm-start protocol}: a fresh
    {!Context} executes the kernel [n] times end-to-end.  The cold first
    iteration (a {!plan} build) pays dependent partitioning (charged into
    [cost.partitioning]); warm iterations reuse the cached partitions,
    placements and lowered program for the price of the index launches
    alone — Legion's amortization for iterative solvers.  [cache] (default
    true; the CLI's [--no-cache]) disables the cache, so {e every}
    iteration rebuilds and pays — the uncached baseline of the amortization
    curve.  Outputs and per-iteration launch costs are bit-identical with
    and without the cache; the output operand is restored to its pristine
    state before each iteration after the first, so the final outputs equal
    a single application's.  A warm-start run is transactional on DNC: when
    it OOMs or exhausts fault recovery, the output operand is restored to
    its pristine state before the result is returned. *)
val run :
  ?uvm:bool ->
  ?domains:int ->
  ?faults:Fault.config ->
  ?trace:Spdistal_obs.Trace.t ->
  ?leaf_backend:Compile_leaf.backend ->
  ?iterations:int ->
  ?cache:bool ->
  problem ->
  run_result

(** Simulated seconds, or [None] on DNC. *)
val time_of : run_result -> float option

(** Warm-start execution contexts: the cache-carrying handle behind
    [run ?iterations].  Create one per problem and call {!Context.run}
    repeatedly to keep partitions warm {e across} calls (the first call's
    first iteration is the only cold one, until a fault invalidates). *)
module Context : sig
  type ctx

  (** [create ?cache ?shared_cache p] snapshots [p]'s output operand and
      allocates the partition/kernel cache ([cache] defaults to true;
      [false] = always rebuild, the [--no-cache] baseline).
      [shared_cache] overrides both: the context joins an existing cache —
      the serving front-end passes one cache to every tenant's contexts so
      all jobs share one LRU byte budget.  Entries of {e distinct} problems
      never collide (digests differ).  A cached plan holds structure only
      and binds each run's own operands at launch, so contexts whose
      problems share a pattern share its entry and still compute from
      their own values.

      The context computes its cache key on first use and keeps it.  Each
      run checks in O(1) that it still holds and recomputes it only after
      an input slot was rebound to another sparse tensor, a dense input
      changed shape, or a pattern was written through
      {!Spdistal_runtime.Region.set}.  The output enters the key as the
      pristine snapshot taken here. *)
  val create : ?cache:bool -> ?shared_cache:Spdistal_exec.Cache.t -> problem -> ctx

  (** Hit/miss/invalidation counters, [None] when caching is disabled. *)
  val cache_stats : ctx -> Spdistal_exec.Cache.stats option

  (** Execute [iterations] (default 1) warm-start iterations; see
      {!Spdistal.run}'s [?iterations] documentation.  Each iteration [i]
      draws fault coordinates at launch indices [i * launches-per-iteration
      ..], identical with and without the cache; a node crash invalidates
      the cached entry (validating surviving slots via
      {!Spdistal_exec.Placement.remap_piece}), so the next iteration
      re-partitions and is charged for it. *)
  val run :
    ?uvm:bool ->
    ?domains:int ->
    ?faults:Fault.config ->
    ?trace:Spdistal_obs.Trace.t ->
    ?leaf_backend:Compile_leaf.backend ->
    ?iterations:int ->
    ctx ->
    run_result
end

(** Bindings view of a problem's operands (for validation in tests). *)
val bindings : problem -> Operand.bindings
