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
  | Parallelize of { v : string; proc : proc }
  | Precompute of { v : string; tensors : string list }
      (** hoist a sub-expression out of loop [v] (modeled for completeness;
          carried through analysis but not exploited by lowering) *)

type t = cmd list

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
      (** second distributed variable for 2-D (grid) distributions — must be
          a dense-only variable (batched SpMM) *)
  communicated : (string list * string) list;
  parallel_leaf : proc option;
  workspace : bool;  (** a [Precompute] command requested a dense workspace *)
}

(** Derive the distribution plan. Raises [Error.Error] with the [Compile]
    phase on schedules the lowering does not support (no [Distribute],
    distributing an unknown variable, more than two distributed variables,
    a fused loop without [pos], a 2-D distribution of a [pos] loop).
    [stmt] supplies variable provenance roots. *)
val analyze : Tin.stmt -> t -> plan

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Parsing}

    Inverse of {!to_string} (command chains render one [.cmd(...)] per line);
    [divide]'s machine-size placeholder ["M"] is accepted and discarded.
    Fuzzer reproducers rely on the round-trip. *)

val of_string : string -> (t, string) result

(** Like {!of_string} but raises [Invalid_argument]. *)
val of_string_exn : string -> t
