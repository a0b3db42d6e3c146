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

(** A partition's derivation: the operator, the region it partitions (an
    [rref] naming an operand slot), the evaluated coloring bounds and axis,
    and the derivation of its input partition ([Copy_part] passes its
    input's key through).  Under one set of operand slots, equal keys
    derive equal partitions. *)
type key

(** Partitions by derivation key, shared by the environments of one plan
    (placement and program) or of one pricing session.  A table is only
    valid for environments over one set of operand slots whose index
    structure does not change while it lives. *)
type shared

val shared : unit -> shared

type env = {
  bindings : Operand.bindings;
  colorings : (string, coloring_state) Hashtbl.t;
  partitions : (string, Partition.t) Hashtbl.t;
  keys : (string, key) Hashtbl.t;  (** each named partition's derivation *)
  table : shared;
      (** where partitions are looked up by derivation before evaluating *)
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

(** [create ?trace ?shared bindings] — [trace] (default
    {!Spdistal_obs.Trace.null}) receives one host-clock "dep" span per
    dependent-partitioning operation.  Each partition is looked up in
    [shared] (default: a fresh table) by its derivation {!key} and
    evaluated only on a miss.  A hit counts [parts], [dep_ops] and
    [dep_elems] (and emits its span) exactly as an evaluation does, so the
    partitioning bill does not depend on what was shared. *)
val create :
  ?trace:Spdistal_obs.Trace.t -> ?shared:shared -> Operand.bindings -> env

(** Execute every partitioning statement of a program and return its
    distributed loops, each in program order. *)
val eval_partitions : env -> Loop_ir.prog -> Loop_ir.stmt list

val find_partition : env -> string -> Partition.t
