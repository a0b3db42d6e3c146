(** Serializable fuzz-case descriptions spanning all four sub-languages.

    A {!t} is a pure value: the TIN statement shape, the driver tensor's
    level formats and mode order, each operand's data distribution (TDN), the
    schedule, the machine shape, the host simulation degree and an optional
    fault schedule.  It materializes deterministically into a runnable
    {!Core.Spdistal.problem} via {!build}, and round-trips through the
    one-line seed spec ({!to_string} / {!of_string}) that reproducers and the
    regression corpus quote. *)

open Spdistal_formats
open Spdistal_ir

type dense_kind = Dvec | Dmat

type factor = { f_name : string; f_kind : dense_kind; f_vars : string list }

type out_spec =
  | Out_dense of { o_name : string; o_kind : dense_kind; o_vars : string list }
  | Out_sparse_prefix of { o_name : string; depth : int }
  | Out_sparse_merge of { o_name : string }

type sched_spec =
  | S_universe of { var : string; par : bool }
  | S_nnz of { fuse : int; par : bool }
  | S_batched of { par : bool }

type tdn_spec = T_rep | T_block of int | T_fused | T_pos of int | T_tiled

type t = {
  vars : (string * int) list;
  driver : string;
  driver_vars : string list;
  driver_kinds : Level.kind array;
  driver_mode : int array;
  density : float;
  dseed : int;
  merge_extra : int;
  factors : factor list;
  lit : float option;
  out : out_spec;
  sched : sched_spec;
  tdns : (string * tdn_spec) list;
  gpu : bool;
  grid : int array;
  domains : int;
  faults : (int * float) option;
  workspace : bool;
  auto : bool;
      (** also run the case through the auto-scheduler and check the chosen
          schedule agrees with the spec's own (the auto-vs-hand property) *)
}

val dim : t -> string -> int
val is_merge : t -> bool
val merge_names : t -> string list
val out_name : t -> string
val operand_names : t -> string list
val operand_count : t -> int

(** The TIN statement the case states. *)
val stmt : t -> Tin.stmt

(** The schedule the case applies. *)
val schedule : t -> Schedule.t

(** Materialize deterministically (same spec -> bit-identical operands). *)
val build : t -> Core.Spdistal.problem

(** One-line seed spec, e.g.
    [vars=i:4,j:7;driver=B:i.j:dc:01:0.25:7;out=a:v:i;sched=u:i:1;tdn=a:b0,B:b0;grid=4]. *)
val to_string : t -> string

(** Inverse of {!to_string}.  An unknown key, a repeated key and a
    [gpu]/[ws]/[at] flag other than [1] are each an [Error]. *)
val of_string : string -> (t, string) result

(** Like {!of_string} but raises a [Config]
    {!Spdistal_runtime.Error.Error}. *)
val of_string_exn : string -> t

val equal : t -> t -> bool
