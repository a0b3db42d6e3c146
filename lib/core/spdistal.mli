(** SpDISTAL's user-facing API, mirroring the paper's Fig. 1 program shape:
    declare a machine, declare tensors with formats and data distributions,
    state the computation in tensor index notation, schedule it, then
    compile and run.

    {[
      let m = Spdistal.machine ~kind:Machine.Cpu [| pieces |] in
      let problem =
        Kernels.matched ~machine:m
          ~operands:
            [ ("a", Operand.vec a); ("B", Operand.sparse b); ("c", Operand.vec c) ]
          ~stmt:Tin.spmv ~schedule:(Kernels.spmv_row ())
      in
      let prog = Spdistal.compile problem in
      let res = Spdistal.run problem
    ]}

    {!Kernels.matched} gives each operand the TDN the schedule moves no
    data for; {!problem} takes any TDN per operand, and a mismatched one is
    legal but moves data (§II-D). *)

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
    problem), and only while no slot is rebound and no pattern is written:
    the shared partitions are read, not re-evaluated.  The pricer keeps
    one memo per session; a {!Context} keeps no memo, since it plans once
    per key and keeps the plan. *)
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

(** How one warm-start iteration obtained its launch plan: [`Miss] did not
    find it in the cache and (re-)added it, paying dependent partitioning,
    [`Hit] reused the cache for free, [`Uncached] ran with caching disabled,
    paying every time.  Either of the paying two builds the plan on the
    host only when the context has none for its key. *)
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
      (** per-iteration statistics, in iteration order: one per iteration
          that completed, so a run without [?iterations] that completes has
          exactly one, [`Uncached] with no partitioning charged *)
  crashed : int list;
      (** nodes that crashed during the run (sorted, deduplicated):
          transient crashes recovery absorbed, plus the node whose repeated
          crashes exhausted recovery when [dnc] is set.  A serving
          front-end uses this to blacklist repeat offenders. *)
}

(** Execute the problem (real numerics) and return its simulated cost.
    Without [iterations] this is one timed iteration of {!Context.run} on a
    cacheless context whose cold build ({!plan}) is setup: partitioning is
    not charged.  On OOM or exhausted fault recovery the result carries
    [dnc] and the output operand holds its pre-run values: a launch checks
    capacity before any of its leaves writes, and a run where a DNC can
    strike after a write (a live fault schedule, a plan of several
    launches) snapshots the output first and restores it.  [domains] bounds
    the OCaml domains used to simulate pieces concurrently (default
    {!Spdistal_runtime.Machine.sim_domains}); it affects wall-clock only —
    costs and outputs are bit-identical at every degree.

    [faults] (default {!Spdistal_runtime.Fault.default}) injects a
    deterministic fault schedule and prices Legion-style recovery into the
    cost; outputs stay bit-identical to the fault-free run.  When recovery
    is exhausted (a fault recurring past [max_retries]) the run reports a
    DNC instead of raising.

    [leaf_backend] (default {!Spdistal_exec.Compile_leaf.default_backend},
    i.e. the CLI's [--leaf-backend], else the compiled backend) selects how
    leaf kernels execute: [Compiled] runs the monomorphized per-(format ×
    expression) closures, [Interp] the reference interpreter.  Outputs, launch records and cost are
    bit-identical across backends.

    [trace] (default {!Spdistal_obs.Trace.default}) records the whole run:
    compile/placement phase spans on the host clock and every runtime event
    on the simulated clock (see {!Spdistal_exec.Interp.run}).  Tracing never
    changes outputs or cost.

    [iterations] runs [n] iterations on a fresh {!Context}, end-to-end.
    The cold first iteration (a {!plan} build) pays dependent partitioning
    (charged into [cost.partitioning]); warm iterations reuse the cached
    partitions, placements and lowered program for the price of the index
    launches alone — Legion's amortization for iterative solvers.  [cache]
    (default true; the CLI's [--no-cache]) disables the cache, so {e every}
    iteration pays dependent partitioning — the uncached baseline of the
    amortization curve (the host still builds the plan once).  Outputs and per-iteration launch costs are bit-identical with
    and without the cache; the output operand is restored to its pristine
    state before each iteration after the first, so the final outputs equal
    a single application's.  Restores after the first write in place, and
    SpAdd3's warm iterations compute into the output the first one
    assembled (see {!Context.run}): a caller who keeps an output past the
    next run must copy it. *)
val run :
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
    {!run}.  Create one per problem and call {!Context.run}
    repeatedly to keep partitions warm {e across} calls (the first call's
    first iteration is the only cold one, until a fault invalidates). *)
module Context : sig
  type ctx

  (** [create ?cache ?shared_cache p] snapshots [p]'s output operand and
      allocates the partition/kernel cache ([cache] defaults to true;
      [false] = pay partitioning every iteration, the [--no-cache]
      baseline).
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
      pristine snapshot taken here.

      The key carries the plan ({!plan}'s entry) the context last built or
      found in the cache; the plan is a pure function of the key.  The
      context plans only when its key has no plan yet.  A miss after an
      LRU eviction or a crash invalidation re-adds that same entry to the
      cache, and each iteration of an uncached context reruns it: both
      charge the entry's dependent partitioning on the simulated clock,
      exactly what a cold build bills, and rebuild nothing on the host.
      The plan lives exactly as long as the key: it is dropped whenever
      the key is recomputed. *)
  val create : ?cache:bool -> ?shared_cache:Spdistal_exec.Cache.t -> problem -> ctx

  (** Hit/miss/invalidation counters, [None] when caching is disabled. *)
  val cache_stats : ctx -> Spdistal_exec.Cache.stats option

  (** Execute [iterations] (default 1) warm-start iterations; see
      {!Spdistal.run}'s [?iterations] documentation.  Each iteration [i]
      draws fault coordinates at launch indices [i * launches-per-iteration
      ..], identical with and without the cache; a node crash invalidates
      the cached entry (validating surviving slots via
      {!Spdistal_exec.Placement.remap_piece}), so the next iteration
      misses and is charged for re-partitioning.

      The output is restored from the pristine snapshot before every
      iteration but a context's first.  The first restore installs a copy;
      each later one writes the pristine values back into that same
      storage (a dense output's array, a sparse output's [vals]), so
      iteration [n+1] reuses iteration [n]'s output storage and a caller
      who keeps a result must copy it.  A restore copies again when the
      slot no longer holds the installed storage (the caller rebound it)
      or a pattern was written since
      ({!Spdistal_runtime.Region.generation} moved).  The DNC restore
      follows the same rule.

      SpAdd3 (a program whose every launch is a merge) assembles its
      output on its first launch.  Later iterations that reuse a plan (a
      hit, a miss under a kept plan, an uncached iteration) keep that
      output instead of restoring, under the same two conditions, and
      compute every value into its storage; an iteration that builds a
      plan restores the pristine copy first and assembles again.  The same rule holds: a kept result is the next run's output
      storage, and its values are overwritten. *)
  val run :
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
