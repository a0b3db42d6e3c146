(** Admission control: a bounded queue with structured load-shedding
    rejections and deadline-aware early shedding, tightening as the cluster
    degrades. *)

open Spdistal_runtime

type t

(** Raises {!Spdistal_runtime.Error.Error} ([Config]) when [queue_bound] <
    1. *)
val create : queue_bound:int -> t

(** Degradation-scaled estimated service time of a query (simulated
    seconds), [None] until {!observe}d at least once. *)
val estimate : t -> string -> float option

(** Feed one observed service time (simulated seconds) into the per-query
    EWMA. *)
val observe : t -> string -> float -> unit

(** One rung down the degradation ladder: [alive] of [total] nodes remain.
    Contracts the queue bound proportionally (floored at 1) and inflates
    estimates by [total/alive]. *)
val degrade : t -> alive:int -> total:int -> unit

type decision =
  | Admit
  | Reject of Error.t
      (** phase [Admission] (queue full — backpressure) or [Deadline]
          (cannot meet the deadline even if admitted) *)

(** [decide t ~query ~depth ~backlog ~deadline] — [depth] is the number of
    admitted-unfinished jobs, [backlog] the simulated seconds of queued work
    ahead, [deadline] the job's relative deadline. *)
val decide :
  t -> query:string -> depth:int -> backlog:float -> deadline:float -> decision

(** The current (degradation-scaled) queue bound. *)
val bound : t -> int
