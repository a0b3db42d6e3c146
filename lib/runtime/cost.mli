(** Simulated-time accounting.

    A [Cost.t] is the simulated clock of one experiment iteration.  The
    runtime executes every kernel for real (numeric results are exact); only
    {e time} is simulated, accumulated here from the {!Machine} model.
    Distributed launches advance the clock by the {e maximum} over pieces of
    per-piece (communication + compute) time, the BSP-style critical path. *)

type t = {
  mutable total : float;  (** simulated seconds *)
  mutable compute : float;  (** critical-path compute component *)
  mutable comm : float;  (** critical-path communication component *)
  mutable overhead : float;  (** runtime/launch/synchronization component *)
  mutable bytes_moved : float;  (** total bytes over all links *)
  mutable messages : int;
  mutable launches : int;
  mutable flops : float;  (** total flops over all pieces *)
  mutable recovery : float;
      (** simulated seconds spent recovering from injected faults (summed
          over pieces; the clock impact flows through the launch critical
          path) *)
  mutable retries : int;  (** fault-recovery re-executions and re-sends *)
  mutable resent_bytes : float;  (** bytes re-transferred by recovery *)
  mutable faults : int;  (** injected fault events recovered from *)
  mutable partitioning : float;
      (** simulated seconds of dependent partitioning, charged only on a
          cold execution-context cache miss (warm iterations reuse the
          cached partitions and pay nothing) *)
  mutable part_ops : int;  (** dependent-partitioning operations charged *)
}

val create : unit -> t
val reset : t -> unit

(** Immutable snapshot of the record (a fresh copy; mutating one does not
    affect the other). *)
val copy : t -> t

(** [diff after before] — field-wise [after - before], for per-iteration
    deltas carved out of an aggregate clock. *)
val diff : t -> t -> t

(** Add sequential (non-overlapped) time of the given breakdown component. *)
val add_compute : t -> float -> unit

val add_comm : t -> ?bytes:float -> ?messages:int -> float -> unit
val add_overhead : t -> float -> unit
val add_flops : t -> float -> unit

(** Charge [dt] simulated seconds of dependent partitioning ([ops]
    operations).  Advances [total]; the execution context calls this only on
    a cold cache miss. *)
val add_partitioning : t -> ?ops:int -> float -> unit

(** Book-keep fault-recovery overhead: [dt] simulated seconds of recovery
    work, re-sent [bytes] (also counted into [bytes_moved]) and [messages].
    Does {e not} advance [total] — recovery inflates the per-piece times fed
    to {!record_launch_split}, which carries the clock. *)
val add_recovery :
  t -> ?retries:int -> ?faults:int -> ?bytes:float -> ?messages:int -> float -> unit

(** [record_launch_split t ~machine ~comm_times ~leaf_times] advances the
    clock by [max over pieces (comm + leaf)] plus launch overhead, splitting
    the breakdown between the comm and compute components. *)
val record_launch_split :
  t -> machine:Machine.t -> comm_times:float array -> leaf_times:float array -> unit

val total : t -> float
val pp : Format.formatter -> t -> unit

(** Header matching {!to_csv_row} (no trailing newline). *)
val csv_header : string

(** The record as one CSV row, column-compatible with {!csv_header}. *)
val to_csv_row : t -> string

(** Monotone per-run counter series, for trace counter events: cumulative
    bytes moved, messages, flops, retries and fault events. *)
val counters : t -> (string * float) list
