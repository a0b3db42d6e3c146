(** Sparsity statistics of a sparse driver, derived from its actual level
    structures — the input of the auto-scheduler's leaf-work estimate
    (Galley's insight applied to SpDISTAL's schedule/TDN space).  Computed
    from the [pos]/[crd] arrays alone, without touching values. *)

open Spdistal_formats

type t = {
  ts_nnz : int;  (** stored values *)
  ts_rows : int;  (** distinct stored coordinates of logical dimension 0 *)
}

(** [distinct t ~dim] is the number of distinct coordinates of logical
    dimension [dim] among [t]'s stored values (the coordinates
    {!Spdistal_formats.Tensor.iter_nnz} visits), read from [pos]/[crd]
    alone: empty slices and explicitly stored empty fibers do not count. *)
val distinct : Tensor.t -> dim:int -> int

val of_tensor : Tensor.t -> t

(** Expected distinct leading coordinates touched by a contiguous shard of
    [nnz_shard] stored values (proportionality model, clamped to
    [[1, min distinct nnz_shard]]; 0 for an empty shard). *)
val rows_estimate : t -> nnz_shard:int -> int
