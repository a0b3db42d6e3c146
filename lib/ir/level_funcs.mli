(** The partitioning level functions of paper Table I.

    Chou et al.'s format abstraction lets the code generator reason per
    dimension: each level kind implements the same interface, returning IR
    fragments, and new formats slot in without changing the lowering
    algorithm.  One group creates the {e initial} level partition, whose
    bounds are coordinates (universe) or positions (non-zero): see
    {!space}; two derived functions propagate a level partition through the
    rest of the coordinate tree ({!partition_from_parent},
    {!partition_from_child}).

    Partition names follow the paper's generated code (Fig. 9b):
    ["B1Part"], ["B2PosPart"], ["B2CrdPart"], ["BValsPart"], ... *)

open Loop_ir

type ctx = {
  tensor : string;
  level : int;  (** storage level index (0-based) *)
  kind : Spdistal_formats.Level.kind;
}

(** Result of finalizing an initial level partition: statements, the
    partition to use for partitioning {e parent} levels, and the partition to
    use for partitioning {e child} levels. *)
type finalized = { stmts : stmt list; up : string; down : string }

(** {1 Initial partitions} *)

(** What the bounds of an initial partition mean: coordinate values of the
    level ({e universe} partition) or positions within its stored
    coordinates ({e non-zero} partition). *)
type space = Universe | Non_zero

(** Returns the init statement and the coloring name it defines.  The
    coloring's entries map a bounds range to each color ([Coloring_entry],
    emitted inside a [For_colors] loop). *)
val init_partition :
  ctx -> axis:Spdistal_runtime.Partition.axis -> stmt * string

(** Partitions the level from the filled coloring.  Only a crd region
    (bucketed by value for [Universe], split by bounds for [Non_zero]) and a
    dense level below the root (a strided split per parent block for
    [Universe], a prefix split of the positions for [Non_zero]) depend on
    [space]. *)
val finalize_partition : ctx -> space:space -> coloring:string -> finalized

(** {1 Derived partitions} *)

(** [partition_from_parent ctx ~parent] partitions level [ctx.level] from a
    partition of its parent's positions; returns the statements and the
    partition of this level's positions (to continue downward). *)
val partition_from_parent : ctx -> parent:string -> stmt list * string

(** [partition_from_child ctx ~child] partitions level [ctx.level] from a
    partition of its own positions; returns the statements and the partition
    of the {e parent}'s positions (to continue upward). *)
val partition_from_child : ctx -> child:string -> stmt list * string

(** Partition of the values region from the leaf level's position
    partition. *)
val vals_partition : tensor:string -> leaf_down:string -> stmt list * string

(** {1 Compiled level iterators}

    Per-kind position walks pre-resolved to closed closures over the level's
    storage (dense / compressed / compressed-nonunique / singleton — the
    non-unique variant shares the [Compressed] representation), so a
    compiled leaf loop carries no per-element format dispatch. *)

type level_iter = {
  li_locate : int -> int;
      (** position at this level -> its parent-level position (dense:
          [p / dim]; compressed: binary search of the monotone pos ranges;
          singleton: identity) *)
  li_iter : parent:int -> from:int -> (int -> int -> unit) -> unit;
      (** [li_iter ~parent ~from emit] calls [emit coordinate position] for
          this level's positions under [parent] in storage order, starting
          at position [from] ([-1] = the parent's first position) *)
  li_run : parent:int -> (int -> int -> unit) -> unit;
      (** [li_run ~parent run] calls [run lo hi] once with the inclusive
          range of this level's positions under [parent] (empty when
          [hi < lo]): the positions are contiguous at every level kind, so
          a leaf loop may take them as one run *)
}

val iter_of_level : Spdistal_formats.Level.t -> level_iter
