(** Evaluation of partitioning statements: executes the coloring loops and
    [partitionBy*]/image/preimage IR of a lowered program against bound
    operands, materializing real {!Spdistal_runtime.Partition} values.  This
    is the runtime-analysis half of SpDISTAL's implementation (paper §V-A):
    what Legion's dependent partitioning performs for the generated code. *)

open Spdistal_runtime
open Spdistal_ir

(** A coloring under construction: accumulated entries (kept reversed) plus
    the grid axis its colors enumerate, inherited by partitions built from
    it. *)
type coloring_state = {
  mutable entries : (int * int) list;
  c_axis : Partition.axis;
}

type env = {
  bindings : Operand.bindings;
  colorings : (string, coloring_state) Hashtbl.t;
  partitions : (string, Partition.t) Hashtbl.t;
  mutable dep_ops : int;  (** dependent-partitioning operations executed *)
  mutable dep_elems : int;
      (** total region entries scanned by dependent-partitioning ops — the
          work the cost model prices on a cold cache miss *)
  mutable parts : int;  (** partitions materialized ([Def_partition]s run) *)
  trace : Spdistal_obs.Trace.t;
      (** sink for host-clock spans around dependent-partitioning ops *)
}

(** Partitioning-work tally accumulated across the environments one problem
    setup creates (placement lowering + the main program), consumed by the
    execution context's partitioning cost model. *)
type stats = {
  mutable s_parts : int;
  mutable s_dep_ops : int;
  mutable s_dep_elems : int;
}

val stats : unit -> stats

(** Fold [env]'s counters into the tally. *)
val accum_stats : stats -> env -> unit

(** [add_stats s t] folds tally [t] into [s]. *)
val add_stats : stats -> stats -> unit

(** [create ?trace bindings] — [trace] (default
    {!Spdistal_obs.Trace.null}) receives one host-clock "dep" span per
    dependent-partitioning operation. *)
val create : ?trace:Spdistal_obs.Trace.t -> Operand.bindings -> env

(** A program's top-level statements split into its partitioning
    statements and its distributed loops, each in program order.  Two
    programs with equal partitioning statements on the same grid define the
    same partitions. *)
val split : Loop_ir.prog -> Loop_ir.stmt list * Loop_ir.stmt list

(** Execute every partitioning statement of a program (the first half of
    {!split}) and return its distributed loops (the second half). *)
val eval_partitions : env -> Loop_ir.prog -> Loop_ir.stmt list

val find_partition : env -> string -> Partition.t
