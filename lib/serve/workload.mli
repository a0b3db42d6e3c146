(** Deterministic workload traces for the serving front-end.

    A trace is a stream of (tenant, query, arrival, deadline) jobs: query
    popularity is Zipf over the catalog, arrivals are Poisson (optionally
    with an overload burst window), deadlines are spread around a mean.
    Generation is a pure function of the seed (built on
    {!Spdistal_runtime.Srng}), so a serve run replays bit-for-bit from its
    generator parameters — or from a saved trace file. *)

type job = {
  j_id : int;
  j_tenant : int;
  j_query : string;  (** catalog name, see {!Catalog} *)
  j_arrival : float;  (** simulated seconds since serve start *)
  j_deadline : float;  (** relative deadline, simulated seconds *)
}

type t = { w_tenants : int; w_jobs : job list (** ascending arrival *) }

type gen = {
  g_seed : int;
  g_jobs : int;
  g_tenants : int;
  g_rate : float;  (** mean arrivals per simulated second *)
  g_alpha : float;  (** Zipf exponent of query popularity *)
  g_deadline : float;  (** mean relative deadline, simulated seconds *)
  g_burst : (float * float * float) option;
      (** (start, length, multiplier): the overload window *)
}

(** 200 jobs, 4 tenants, 200 jobs/s, alpha 1.1, 0.5 s deadlines, no
    burst. *)
val default_gen : gen

(** [generate ?gen ~catalog ()] draws a trace over the query names in
    [catalog].  Raises {!Spdistal_runtime.Error.Error} ([Config]) on
    non-finite or out-of-range generator parameters and on an empty
    catalog. *)
val generate : ?gen:gen -> catalog:string list -> unit -> t

(** Bit-exact round trip ([%h] floats). *)
val to_string : t -> string

(** Raises {!Spdistal_runtime.Error.Error} ([Config]) when [w_tenants] < 1
    or a job's tenant is outside [\[0, w_tenants)], naming the job.  The
    same check rejects those trace lines in {!of_string}. *)
val check : t -> unit

(** Parses {!to_string}'s format; an [Error] names the offending line. *)
val of_string : string -> (t, string) result

(** Read/write a trace file; [load] raises {!Spdistal_runtime.Error.Error}
    ([Config]) on a malformed file. *)
val load : string -> t

val save : string -> t -> unit
