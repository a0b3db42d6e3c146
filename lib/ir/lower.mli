(** The distributed code generation algorithm (paper §IV-C, Fig. 9a).

    Lowering a scheduled TIN statement proceeds exactly as the paper's
    recursive algorithm: for the distributed index variable it either
    - creates initial {e universe} partitions of every tensor level indexed
      by the variable (coordinate-value iteration), or
    - creates an initial {e non-zero} partition of the position-split
      tensor (coordinate-position iteration),
    then derives partitions of the full coordinate trees through the Table I
    level functions ([partitionFromParent] downward, [partitionFromChild]
    upward), partitions the remaining tensors from the resulting top-level
    partition, and finally emits a distributed loop whose body is the leaf
    kernel.  Both kinds of initial partition share one tree walk: only the
    extent the blocks divide and {!Level_funcs.space} differ.
    Communication directives are inferred for every operand and always
    placed at the distributed loop: what to move is derived via
    image/preimage (§II-C); a schedule's [communicate] command is checked
    by {!Schedule.analyze} but does not change the program. *)

type operand =
  | Sparse_op of {
      formats : Spdistal_formats.Level.kind array;
      mode_order : int array;
    }
  | Vec_op
  | Mat_op

(** Tensor name -> shape metadata for every operand of the statement. *)
type env = (string * operand) list

(** [check ~env stmt schedule] is [Error] with the [Compile] error {!lower}
    would raise when the statement and schedule meet one of {!lower}'s
    static refusals, and [Ok ()] otherwise.  The static refusals are:
    {!Tin.validate}, the supported fragment (the rhs must be a single
    product with exactly one sparse operand, dense factors and literal
    coefficients allowed, or a pure sum of sparse accesses, a merge),
    {!Schedule.analyze}, a distributed variable that does not index a sparse
    operand, a merge distributed below its operands' outermost storage
    level, a universe distribution over a reduction variable with a sparse
    output, a non-zero distribution of a merge, and a 2-D distribution whose
    second variable is not the output's last, repeats the first or indexes a
    sparse operand.  A checked schedule can still fail in {!lower} where it
    builds partitions (a storage level with no partition, a dense operand
    whose access lacks the driver's shared variable).  [check] names no
    partition, so it costs a fraction of a lowering; the auto-scheduler's
    search filters its candidates with it. *)
val check :
  env:env ->
  Tin.stmt ->
  Schedule.t ->
  (unit, Spdistal_runtime.Error.t) result

(** [matched ~env stmt schedule] is the data distribution the schedule
    moves no data for (paper §II-D), every operand's TDN in [env] order.  A
    universe split blocks each operand on the dimension its distributed
    variable binds, else (2-D) tiles the output's last variable, else
    replicates.  A non-zero split gives the position-split tensor a fused
    non-zero partition over its fused variables, other sparse operands one
    over all dimensions (a plain [Non_zero] of dimension 0 where that is one
    dimension), a dense output a block of dimension 0, and replicates the
    rest.  Raises a [Compile]
    [Error.Error] when {!Schedule.analyze} refuses the schedule. *)
val matched : env:env -> Tin.stmt -> Schedule.t -> (string * Tdn.t) list

(** [lower ~env ~grid stmt schedule] produces the partitioning-and-compute
    program.  It calls {!check} first and raises its [Compile]
    [Error.Error] on a refusal. *)
val lower : env:env -> grid:int array -> Tin.stmt -> Schedule.t -> Loop_ir.prog

(** {1 Debug fault injection}

    Test-only: when set, {!lower} emits block bounds that drop the last
    element of every block, silently corrupting any distributed run.  Used by
    [spdistal fuzz --inject-bug] to prove the differential harness catches
    and shrinks a planted compiler bug.  Never set outside tests. *)

val set_debug_flip_block_bound : bool -> unit

(** [placement_of_tdn ~env ~grid ~tensor ~order tdn] lowers the §V-C
    identity statement of a TDN declaration, yielding the partitioning
    program that materializes the data distribution. *)
val placement_of_tdn :
  env:env -> grid:int array -> tensor:string -> order:int -> Tdn.t -> Loop_ir.prog
