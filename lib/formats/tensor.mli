(** Sparse tensors as stacks of level formats over shared regions — the
    distributed sparse tensor encoding of paper §III-B (Fig. 7).

    Levels are stored in {e storage order}; [mode_order.(k)] names the logical
    tensor dimension stored at level [k] (CSR: [[|0;1|]], CSC: [[|1;0|]]).
    Values live in a [vals] region indexed by the leaf level's positions. *)

open Spdistal_runtime

type t = {
  name : string;
  dims : int array;  (** logical dimension sizes *)
  mode_order : int array;  (** storage level -> logical dimension *)
  levels : Level.t array;  (** one per level, storage order *)
  vals : Region.F.t;  (** Bigarray-backed value buffer, leaf-position indexed *)
}

val order : t -> int

(** Stored (leaf) value count. For tensors with a compressed leaf this is the
    non-zero count. *)
val nnz : t -> int

(** Total storage footprint in bytes (levels + values). *)
val bytes : t -> int

(** Position extent of level [k] (number of level-[k] positions). *)
val level_extent : t -> int -> int

(** {1 Construction} *)

(** [of_coo ~name ~formats ?mode_order coo] assembles a tensor.  [formats]
    are per {e storage level}; the COO input is permuted by [mode_order]
    (default identity) before assembly and must then be deduplicated (it is
    sorted internally).  Pass [~assume_sorted:true] when the (permuted) input
    is already lexicographically sorted and duplicate-free to skip the sort —
    used by large generated workloads. *)
val of_coo :
  name:string ->
  formats:Level.kind array ->
  ?mode_order:int array ->
  ?assume_sorted:bool ->
  Coo.t ->
  t

(** Standard matrix formats. *)
val csr : name:string -> Coo.t -> t

val csc : name:string -> Coo.t -> t

(** All-dense tensor (paper's Dense vector / matrix formats). *)
val dense_of_coo : name:string -> Coo.t -> t

(** COO encoding (paper Fig. 3): a non-unique compressed row level holding
    every stored row coordinate, with Singleton levels for the remaining
    dimensions. *)
val coo_matrix : name:string -> Coo.t -> t

(** {1 Access} *)

(** [iter_nnz t f] calls [f logical_coords leaf_pos value] for every stored
    value in storage order.  [logical_coords] is reused between calls. *)
val iter_nnz : t -> (int array -> int -> float -> unit) -> unit

(** Lower back to COO (logical dimension order). Structural zeros stored by
    dense leaf levels are kept. *)
val to_coo : t -> Coo.t

(** [get t coords] is the stored value at logical [coords] (0 if absent). *)
val get : t -> int array -> float

(** Compressed-level accessors (raise [Invalid_argument] on dense levels). *)
val pos_of : t -> int -> (int * int) Region.t

val crd_of : t -> int -> int Region.t

val pp : Format.formatter -> t -> unit
