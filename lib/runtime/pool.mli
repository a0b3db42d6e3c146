(** A reusable pool of worker domains for the interpreter's per-piece
    simulation.

    Worker domains are spawned once and dispatch closures from a shared
    queue; {!map} fans a piece-indexed function out across the workers (the
    calling domain participates too) and returns the results {e in index
    order}, so callers can reduce deterministically.  A pool with zero
    workers degrades to plain sequential evaluation in ascending index
    order on the calling domain — the reference execution that parallel
    runs must reproduce bit-for-bit. *)

type t

(** [create n] spawns [n] worker domains ([n <= 0] gives a sequential
    pool). *)
val create : int -> t

(** Number of worker domains (0 for a sequential pool). *)
val workers : t -> int

(** [map t f n] evaluates [f 0 .. f (n-1)] and returns the results indexed
    by input.  With workers the evaluation order is unspecified; without,
    it is ascending.  If any [f i] raised, the exception of the
    smallest-index failure is re-raised {e exactly once}, on the calling
    domain, with its original backtrace, and only after every job has
    drained — the pool stays reusable and no worker domain dies. *)
val map : t -> (int -> 'a) -> int -> 'a array

(** Host wall-clock occupancy of one {!map_prof} job: which domain ran it
    and when (absolute [Unix.gettimeofday] seconds). *)
type job_prof = { pj_domain : int; pj_start : float; pj_stop : float }

(** {!map} plus per-job occupancy, for the observability layer.  Results are
    still in index order; only the wall-clock fields vary run to run. *)
val map_prof : t -> (int -> 'a) -> int -> ('a * job_prof) array

(** Stop and join the workers.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [get n] returns a shared pool with exactly [n] workers, creating it on
    first use.  Shared pools are joined automatically at exit. *)
val get : int -> t

(** Worker count for a requested simulation degree: [0] when [requested <= 1]
    (sequential), else [min (requested - 1) (Domain.recommended_domain_count
    () - 1)], floored at one worker so the parallel path exists even on
    single-core hosts. *)
val effective_workers : int -> int
