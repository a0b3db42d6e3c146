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
    kernel.  Communication directives are inferred for every operand
    ([communicate] controls granularity; what to move is derived via
    image/preimage, §II-C). *)

type operand =
  | Sparse_op of {
      formats : Spdistal_formats.Level.kind array;
      mode_order : int array;
    }
  | Vec_op
  | Mat_op

(** Tensor name -> shape metadata for every operand of the statement. *)
type env = (string * operand) list

(** [lower ~env ~grid stmt schedule] produces the partitioning-and-compute
    program.  Raises [Invalid_argument] (or, for schedules {!Schedule.analyze}
    rejects, a [Compile] [Error.Error]) on statements/schedules outside the
    supported fragment: the rhs must be a single product with exactly one
    sparse operand (dense factors and literal coefficients allowed) or a pure
    sum of sparse accesses (merge); at most two distributed loops; no
    distributing a non-root dense variable; no universe distribution over a
    reduction variable when the output is sparse. *)
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
