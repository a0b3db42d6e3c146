(** Tensor distribution notation (TDN), the data distribution language
    (paper §II-B, Fig. 4/5).

    A TDN statement maps tensor dimensions onto machine grid dimensions.
    SpDISTAL extends DISTAL's TDN with {e non-zero partitions} (the tilde
    operator: equal split of stored coordinates rather than of the coordinate
    universe) and {e coordinate fusion} (collapse several dimensions into one
    logical dimension, then non-zero split it) — e.g.
    [T_xy |->^{xy->f}_{~f} M] distributes a matrix's non-zeros evenly.

    Per paper §V-C, a TDN statement is implemented by translating it to a
    scheduled TIN statement ([divide] + [distribute], with [fuse] and the
    position-space [divide] for non-zero partitions); see
    {!to_schedule}. *)

type t =
  | Blocked of { tensor_dim : int; machine_dim : int }
      (** universe partition of one dimension: [T_x.. |->_x M] *)
  | Tiled of { mappings : (int * int) list }
      (** several dimensions blocked onto several machine dims (Fig. 4c) *)
  | Non_zero of { tensor_dim : int; machine_dim : int }
      (** non-zero partition of one dimension: [T |->_~x M] (Fig. 5b) *)
  | Fused_non_zero of { dims : int list; machine_dim : int }
      (** coordinate fusion then non-zero partition (Fig. 5c) *)
  | Replicated  (** every piece holds the whole tensor *)

(** [to_schedule ~tensor ~order tdn] builds the §V-C scheduled identity
    statement: a TIN access of every mode of [tensor] plus the schedule that
    partitions it as [tdn] prescribes.  Raises
    {!Spdistal_runtime.Error.Error} ([Compile]) on [Replicated]
    (replication is a mapping decision, not a partition), on multi-dim
    [Tiled] (only its first mapping is partition-relevant for 1-D machines)
    and on a [Fused_non_zero] of fewer than two dimensions. *)
val to_schedule : tensor:string -> order:int -> t -> Tin.stmt * Schedule.t

(** Render in the paper's notation, e.g. ["B_{xy} |->^{xy->f}_{~f} M"]. *)
val pp : tensor:string -> Format.formatter -> t -> unit
