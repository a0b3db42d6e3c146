(** Scaled structural analogs of the paper's dataset (Table II).

    The paper evaluates 14 real tensors of 10^8–10^9 non-zeros from
    SuiteSparse, FROSTT and Freebase.  Those files are data gates; each entry
    here is a deterministic generator preserving the original's {e structure
    class} — degree distribution, aspect ratio, density regime — scaled down
    by roughly 5000x in non-zero count (the cost model is linear in
    non-zeros, so relative shapes are preserved).  See DESIGN.md. *)

open Spdistal_formats

(** Non-zero scale-down factor of every analog relative to its paper
    original.  Use [Machine.scale_params scale] when building experiment
    machines so bandwidth/latency ratios and memory boundaries match the
    full-size runs. *)
val scale : float

type kind = Matrix | Tensor3

type entry = {
  ds_name : string;  (** paper name, e.g. "arabic-2005" *)
  domain : string;  (** Table II domain column *)
  paper_nnz : float;  (** Table II non-zero count *)
  ds_kind : kind;
  structure : string;  (** generator/structure class, for documentation *)
  load : unit -> Tensor.t;  (** memoized *)
}

(** All 14 entries, in Table II order. *)
val all : entry list

val matrices : entry list
val tensors3 : entry list

(** The entry named [name]; raises [Error.Config] on an unknown name. *)
val find : string -> entry

(** Drop memoized tensors. *)
val clear_cache : unit -> unit

(** Render Table II (paper and analog columns). *)
val pp_table2 : Format.formatter -> unit -> unit
