(** Post-mortem analysis of a {!Trace} (cf. Legion Prof's summaries): where
    simulated time went, per launch and per node.

    All simulated-clock quantities are exact — they are read back from the
    same spans the interpreter emitted while advancing the [Cost] clock, so
    the sum of launch-row durations equals the run's [Cost.total] (a tested
    invariant). *)

type launch = {
  l_ix : int;  (** launch index within the run *)
  l_name : string;  (** kernel (or ["reduce"] for output reductions) *)
  l_start : float;  (** simulated start, seconds *)
  l_dur : float;  (** critical path + launch overhead, seconds *)
  l_crit_piece : int;  (** piece on the critical path (-1 if pieceless) *)
  l_comm : float;  (** communication component of the critical path *)
  l_compute : float;  (** compute component of the critical path *)
  l_overhead : float;  (** runtime launch overhead *)
  l_bytes : float;  (** bytes moved over all pieces *)
  l_msgs : int;
  l_piece_max : float;  (** max over pieces of comm+compute *)
  l_piece_mean : float;
  l_p50 : float;  (** median piece time *)
  l_p99 : float;
}

type node_util = {
  n_node : int;
  n_slots : int;  (** pieces hosted on the node *)
  n_comm : float;  (** busy simulated seconds moving data *)
  n_compute : float;  (** busy simulated seconds in leaves *)
}

(** One iteration, read back from the execution context's "iteration"
    spans: how its launch plan was obtained and where its time went
    ([ir_partition] is non-zero exactly on iterations charged for a cold
    build; a run without [--iterations] counts its cold build as setup). *)
type iter_row = {
  ir_index : int;
  ir_cache : string;  (** "hit" | "miss" | "bypass" (caching disabled) *)
  ir_start : float;
  ir_dur : float;
  ir_partition : float;
}

type t = {
  r_total : float;  (** simulated seconds (== [Cost.total]) *)
  r_launches : launch list;  (** in execution order *)
  r_nodes : node_util list;  (** ascending node id *)
  r_comm : float array array;  (** [src.(dst)] bytes between simulated nodes *)
  r_imbalance : float;  (** worst per-launch max/mean piece-time ratio *)
  r_iterations : iter_row list;
      (** iterations in order, one row per iteration span *)
  r_cache_hits : int;
  r_cache_misses : int;
  r_cache_invalidations : int;
  r_host_wall : float;  (** wall seconds spanned by host-track spans *)
  r_host_busy : (int * float) list;  (** per host domain, busy wall seconds *)
  r_meta : (string * string) list;
}

val of_trace : Trace.t -> t

(** Utilization of a node: busy / (slots x total run). *)
val utilization : t -> node_util -> float

val pp : Format.formatter -> t -> unit

(** Metrics CSV: one header plus one row per launch, then one [total] row. *)
val to_csv : t -> string
