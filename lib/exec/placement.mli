(** Initial data residency: where each operand lives before the computation,
    as declared by its TDN data distribution.

    The interpreter charges communication only for data a piece needs that
    its declared distribution does not already put there — this is how the
    paper's "matched data and computation distributions avoid unnecessary
    communication" (§II-D) and the mismatch penalty both emerge. *)

open Spdistal_runtime

type residency =
  | Replicated_everywhere
  | Vals_partitioned of Partition.t
      (** sparse operand: piece [c] holds leaf positions [subset c] *)
  | Dim_partitioned of { dim : int; part : Partition.t }
      (** dense operand: piece [c] holds slices [subset c] of [dim] *)
  | Not_resident  (** everything must be fetched *)

type t = (string * residency) list

val find : t -> string -> residency

(** Materialize a TDN declaration for one operand into its residency on the
    given machine, by lowering the TDN's partitioning program and executing
    it (paper §V-C).  For [Tdn.Replicated] no program runs.  [stats]
    accumulates the dependent-partitioning work this lowering performed, for
    the execution context's cold-miss cost model.  [shared] (default: a
    fresh table) is where the program's partitions are looked up by
    derivation, so a plan's program can reuse them (see
    {!Part_eval.create}). *)
val of_tdn :
  ?stats:Part_eval.stats ->
  ?shared:Part_eval.shared ->
  machine:Machine.t -> bindings:Operand.bindings -> string -> Spdistal_ir.Tdn.t ->
  residency

(** [remap_piece ~machine ~crashed piece] is the surviving grid slot that
    re-executes [piece] when the nodes in [crashed] died: deterministic
    round-robin over the pieces of surviving nodes (identity when [crashed]
    is empty).  Raises {!Spdistal_runtime.Error.Error} ([Recovery]) when no
    node survives. *)
val remap_piece : machine:Machine.t -> crashed:int list -> int -> int

(** [resident_set placement ~tensor ~comm_dim ~piece ~colors_of] is the set
    already on [piece] for the given communicated dimension ([-1] = leaf
    positions of a sparse operand), or [None] when fully resident. *)
val resident_set :
  t ->
  tensor:string ->
  comm_dim:int ->
  piece_subset:(Partition.t -> Iset.t) ->
  [ `All | `Set of Iset.t | `Nothing ]
