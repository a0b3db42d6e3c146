(** The scheduling language (paper §II-C): transformations that map a TIN
    statement onto a distributed machine.

    SpDISTAL's contribution is the combination of TACO's sparse iteration
    space transformations (split/divide/fuse and their non-zero [pos]
    variants, Senanayake et al.) with DISTAL's distributed primitives
    ([distribute], [communicate]).  A schedule is an ordered command list;
    {!analyze} recovers the distribution strategy the lowering algorithm
    (Fig. 9a) dispatches on: distributed {e coordinate-value} loops become
    universe partitions, distributed {e coordinate-position} loops become
    non-zero partitions. *)

type proc = Cpu_thread | Gpu_thread

type cmd =
  | Divide of { v : string; outer : string; inner : string }
      (** strip-mine [v] into [pieces] equal coordinate blocks *)
  | Split of { v : string; outer : string; inner : string; factor : int }
  | Fuse of { f : string; a : string; b : string }
      (** collapse nested loops [a], [b] into [f] *)
  | Pos of { v : string; pv : string; tensor : string }
      (** move iteration over [v] into the position space of [tensor]
          (the non-zero strip-mining enabler) *)
  | Reorder of string list
  | Distribute of string list
  | Communicate of { tensors : string list; at : string }
      (** communicate [tensors] at loop [at]: {!analyze} checks [at], and
          lowering always communicates at the distributed loop *)
  | Parallelize of { v : string; proc : proc }
  | Precompute of { v : string; tensors : string list }
      (** hoist a sub-expression out of loop [v] (modeled for completeness;
          carried through analysis but not exploited by lowering) *)

type t = cmd list

(** {1 Shapes}

    The three distributions the paper schedules every kernel with (§II-C,
    Figs. 10-11), plus the workspace.  Hand schedules, TDN lowering, the
    auto-scheduler's search and the fuzzer all build their schedules here.
    [tensors] are the communicated tensors; [par], when given, parallelizes
    the inner loop of the first distributed variable on that processor. *)

(** Row split: [divide(v, vo, vi)], [distribute(vo)], [communicate] at [vo]. *)
val row : ?par:proc -> tensors:string list -> string -> t

(** Non-zero split: fuse [vars] left to right (the fused name concatenates
    them), move into [tensor]'s position space as [pv] (default ["fp"]),
    then divide [pv] and distribute its outer loop.  Raises
    {!Spdistal_runtime.Error.Error} ([Compile]) on an empty [vars]. *)
val nnz :
  ?par:proc ->
  ?pv:string ->
  tensor:string ->
  tensors:string list ->
  string list ->
  t

(** Batched 2-D split: divide [r] and [e] over the two machine dimensions
    and communicate at [e]'s outer loop. *)
val batched : ?par:proc -> tensors:string list -> string -> string -> t

(** [precompute(v, {out})]: assemble [out] through a dense workspace. *)
val workspace : out:string -> string -> t

(** How the distributed loop iterates (paper §IV-C). *)
type strategy =
  | Universe_dist of { var : string }
      (** coordinate-value iteration over original variable [var] *)
  | Non_zero_dist of { tensor : string; fused : string list }
      (** coordinate-position iteration over [tensor]'s non-zeros; [fused]
          are the original variables collapsed into the position space *)

type plan = {
  strategy : strategy;
  dist_vars : string list;  (** the distributed derived variables, in order *)
  secondary_var : string option;
      (** the original variable of the second distributed loop of a 2-D
          (grid) distribution (batched SpMM's [j]) *)
  parallel_leaf : proc option;
  workspace : bool;  (** a [Precompute] command requested a dense workspace *)
}

(** Derive the distribution plan. Raises [Error.Error] with the [Compile]
    phase on schedules the lowering does not support (no [Distribute],
    distributing an unknown variable, more than two distributed variables,
    a fused loop without [pos], a 2-D distribution of a [pos] loop or of a
    fused one).
    [stmt] supplies variable provenance roots. *)
val analyze : Tin.stmt -> t -> plan

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Parsing}

    Inverse of {!to_string} (command chains render one [.cmd(...)] per line);
    [divide]'s machine-size placeholder ["M"] is accepted and discarded.
    Fuzzer reproducers rely on the round-trip. *)

val of_string : string -> (t, string) result

(** Like {!of_string} but raises a [Compile] {!Spdistal_runtime.Error.Error}
    with the same text. *)
val of_string_exn : string -> t
