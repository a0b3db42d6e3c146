(** The auto-scheduler tournament: the evaluation kernels (fig10 CPU sweep,
    fig11/fig12 GPU kernels, batched 2-D SpMM, fig13 banded synthetic)
    priced three ways — naive strawman, the paper's hand schedule, and the
    auto-scheduler's pick — with no leaf execution.  [results/auto.csv]
    records the table; the CI ratchet bounds [max_ratio] by
    [bench/auto_ratio_floor.txt]. *)

type row = {
  t_kernel : string;
  t_dataset : string;
  t_system : string;  (** ["cpu"], ["gpu"] or ["gpu-2d"] *)
  t_pieces : int;
  t_naive : float option;  (** priced seconds; [None] = did not price *)
  t_hand : float option;
  t_auto : float option;
  t_winner : string;  (** winning candidate label; ["DNC"] if none priced *)
}

(** One tournament cell: its kernel, dataset and system labels, and its
    problem under the hand schedule, built (and its dataset loaded) on
    each call. *)
type cell = {
  c_kernel : string;
  c_dataset : string;
  c_system : string;
  c_problem : unit -> Core.Spdistal.problem;
}

(** The tournament's cells, in row order.  [quick] limits each kernel to
    its first two datasets. *)
val cells : ?quick:bool -> unit -> cell list

(** One row per cell of {!cells}. *)
val compute : ?quick:bool -> unit -> row list

(** Worst auto/hand ratio over the rows — what the CI ratchet bounds. *)
val max_ratio : row list -> float option

(** Rows where auto failed to strictly beat naive.  An auto DNC counts when
    the hand or naive schedule completes; a naive DNC that auto completes is
    a win; a row where every schedule is DNC does not count ({!print} lists
    it). *)
val regressions : row list -> row list

val csv : row list -> string

(** Writes [auto.csv] under [dir] (created if missing); returns the path. *)
val write : dir:string -> row list -> string

val print : Format.formatter -> row list -> unit
