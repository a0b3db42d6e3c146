(** CSV export of every figure's cells, so the regenerated series can be
    plotted directly against the paper's figures. *)

(** Simulated seconds as every CSV prints them: nine decimals, or ["DNC"]
    for [None]. *)
val time_cell : float option -> string

val fig13 : Runner.cell list -> string

(** One cell of the fault-rate sweep: a kernel run under an injected fault
    schedule, against its fault-free baseline. *)
type fault_row = {
  f_kernel : string;
  f_rate : float;
  f_seed : int;
  f_seconds : float option;  (** [None] = DNC (recovery exhausted) *)
  f_baseline : float;  (** fault-free simulated seconds *)
  f_cost : Spdistal_runtime.Cost.t;
      (** the faulted run's full cost record; serialized with
          {!Spdistal_runtime.Cost.to_csv_row} *)
  f_identical : bool;  (** outputs bitwise equal to the fault-free run *)
}

val faults : fault_row list -> string

(** One point of the iterative-launch amortization curve: a kernel run for
    [a_iterations] iterations on one system, with the SpDISTAL cold/warm
    split when the warm-start context produced per-iteration stats. *)
type amort_row = {
  a_kernel : string;
  a_system : string;
  a_iterations : int;
  a_cached : bool;  (** false = [--no-cache]: partitions rebuilt per iteration *)
  a_seconds : float option;  (** [None] = DNC *)
  a_iter1 : float option;  (** cold first-iteration seconds (SpDISTAL only) *)
  a_warm : float option;  (** mean warm-iteration seconds (SpDISTAL only) *)
  a_hits : int;
  a_misses : int;
}

(** [write_faults ~dir rows] writes faults.csv under [dir] (created if
    missing) and returns the path. *)
val write_faults : dir:string -> fault_row list -> string

(** [write_amortization ~dir rows] writes amortization.csv under [dir]
    (created if missing) and returns the path. *)
val write_amortization : dir:string -> amort_row list -> string

(** [write_all ~dir ...] writes fig10.csv .. fig13.csv under [dir] (created
    if missing) and returns the paths. *)
val write_all :
  dir:string ->
  fig10:Runner.cell list ->
  fig11:Runner.cell list ->
  fig12:Runner.cell list ->
  fig13:Runner.cell list ->
  string list
