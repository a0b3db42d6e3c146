(** Leaf work: what one piece's leaf kernel computed and moved through
    memory, and its roofline time on the machine.  Launches themselves are
    billed by the interpreter's launch loop ([Interp]). *)

type work = {
  flops : float;
  bytes_read : float;
  bytes_written : float;
  atomics : bool;
      (** leaf performs reduction atomics (non-zero-split schedules) *)
}

(** Leaf execution time of [work] on one piece, including the atomic
    penalty when [atomics] is set. *)
val leaf_time : Machine.t -> work -> float
