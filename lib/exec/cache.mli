(** The execution-context cache behind warm-start (iterative) runs.

    SpDISTAL inherits Legion's amortization of dependent partitioning: an
    iterative solver (CG around SpMV, fig10/fig11) launches the same kernel
    over the same partitions hundreds of times, so partitioning, placement
    and lowering run once — on the {e cold miss} — and every later iteration
    replays the cached launch plan for the price of the index launches
    alone.

    Keys are structural digests of (tensor index notation, operand formats
    and sparsity {e structure}, data-distribution notation, schedule,
    machine).  Stored {e values} of operands are deliberately excluded: an
    iterative application updates them between launches without changing any
    partition.  An entry holds structure only, and data binds at launch, so
    every context whose problem has the entry's key may replay it.  A node
    crash invalidates the entry (its placements name dead slots); the next
    iteration re-partitions and pays the cold cost again. *)

open Spdistal_runtime
open Spdistal_ir

type entry = {
  e_key : string;
  e_placement : Placement.t;
  e_prog : Loop_ir.prog;
  mutable e_prepared : Interp.prepared;
      (** materialized partitions, distributed loops and (compiled backend)
          specialized leaf closures; swapped in place via {!Interp.relink}
          when a later run requests the other backend *)
  e_launches : int;
      (** per-iteration launch stride: length of the prepared loop list *)
  e_part_seconds : float;
      (** simulated dependent-partitioning seconds charged on the miss *)
  e_part_ops : int;
  e_part_elems : int;
  e_bytes : int;
      (** accounted footprint (see {!approx_bytes}), charged against the
          byte budget *)
  mutable e_hits : int;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;  (** live entries *)
  bytes : int;  (** current accounted footprint of all live entries *)
  bytes_peak : int;
      (** largest resting footprint ever reached (sampled after eviction, so
          it never exceeds the byte budget) *)
  evictions : int;  (** entries dropped by the cap or the byte budget *)
}

type t

(** [create ?cap ?byte_budget ()] — [cap] (default 64) bounds live entries
    and [byte_budget] (default unlimited) bounds their accounted bytes; the
    least recently {e used} entry is evicted first (entries are cheap to
    rebuild).  An entry bigger than the whole budget is never kept.  Raises
    {!Spdistal_runtime.Error.Error} ([Config]) on a non-positive budget. *)
val create : ?cap:int -> ?byte_budget:int -> unit -> t

(** Deterministic footprint estimate of an entry: fixed record overhead plus
    per-piece placement state, per-launch prepared-loop state and ~16 B per
    dependently-partitioned region element. *)
val approx_bytes : pieces:int -> launches:int -> part_elems:int -> int

(** Structural digest of a problem.  Injective in practice on distinct
    (tin, formats, tdn, schedule, machine) tuples (an MD5 over a canonical
    rendering); sparse operands contribute their coordinate structure, dense
    operands only their shape. *)
val digest :
  machine:Machine.t ->
  operands:(string * Operand.slot * Tdn.t) list ->
  stmt:Tin.stmt ->
  schedule:Schedule.t ->
  string

(** Simulated price of the dependent-partitioning work tallied in [stats]:
    one launch overhead per partition/query op plus the scanned region
    entries at memory bandwidth.  Charged by the execution context only on a
    cold miss. *)
val partition_seconds : Machine.t -> Part_eval.stats -> float

(** Lookup; counts a hit or a miss.  A hit refreshes the entry's recency
    (true LRU, not insertion-order FIFO). *)
val find : t -> string -> entry option

(** Insert (no-op if the key is already present), then evict least recently
    used entries until the cap and the byte budget hold — possibly including
    the entry just inserted, when it alone exceeds the budget. *)
val add : t -> entry -> unit

(** Drop the entry for [key] after the nodes in [crashed] died: validates
    that every piece they hosted still has a surviving slot (via
    {!Placement.remap_piece}; raises {!Spdistal_runtime.Error.Error} with
    the [Recovery] phase when none survives), then forces the next iteration
    to re-partition. *)
val invalidate : t -> machine:Machine.t -> crashed:int list -> string -> unit

val stats : t -> stats
