(** Structured tracing for the simulated runtime (cf. Legion Prof).

    A {!t} records typed spans and counters on {e two clocks}:

    - the {b simulated clock} — seconds of {!section-"sim"} time as accounted
      by [Cost] (launch critical paths, per-piece communication and compute,
      fault recovery);
    - the {b host clock} — wall-clock seconds of the simulating process
      (compile phases, domain-pool worker occupancy), measured relative to
      the trace's creation epoch.

    Every span says which clock it is on; the two never mix on one track.

    {b Determinism.} Tracing never changes simulated results: worker domains
    produce pure per-piece records and all trace emission happens on the
    reducing domain in piece order, so a traced run computes bit-identical
    tensors and an identical [Cost] total to an untraced one, at every
    [--domains] degree.  The only nondeterministic values in a trace are
    host-clock timestamps (wall clock is wall clock).

    {b Cost when disabled.} {!null} is a shared disabled trace; every
    emission function first checks {!enabled} (one immutable bool field), so
    an untraced hot path pays a single branch and allocates nothing. *)

(** Where an event is drawn.  One track per simulated node (with a sub-track
    per piece, since GPU machines put several pieces on a node), one per
    host domain, plus the runtime spine that carries launches and phases. *)
type track =
  | Runtime  (** simulated-clock spine: launches, reductions, phases *)
  | Piece of { node : int; piece : int }
      (** simulated clock, grouped under the piece's node *)
  | Host of int  (** host clock, one per OCaml domain (by domain id) *)
  | Tenant of int
      (** simulated clock, one per serving-front-end tenant: job lifecycle
          spans (admitted/shed/deadline/failed) *)

type clock = Sim | Wall

type value = I of int | F of float | S of string | B of bool

type span = {
  sp_track : track;
  sp_clock : clock;
  sp_cat : string;
      (** "phase" | "launch" | "comm" | "compute" | "fault" | "pool" | "dep" *)
  sp_name : string;
  sp_start : float;  (** seconds on [sp_clock]; host spans are epoch-relative *)
  sp_dur : float;
  sp_args : (string * value) list;
}

type counter = {
  ct_name : string;
  ct_time : float;  (** simulated seconds *)
  ct_series : (string * float) list;
}

type t

(** A fresh enabled trace; the host epoch is the current wall clock. *)
val create : unit -> t

(** The shared disabled trace: every emission is a no-op. *)
val null : t

val enabled : t -> bool

(** {1 Ambient default}

    Mirrors [Fault.default]/[Machine.sim_domains]: the CLI installs a trace
    for the whole process; library entry points take [?trace] and fall back
    to this.  The initial default is {!null}. *)

val default : unit -> t

val set_default : t -> unit

(** {1 Emission} *)

(** Absolute [Unix.gettimeofday] of the trace's creation, for converting
    externally captured wall timestamps (e.g. pool occupancy) to
    epoch-relative span starts. *)
val epoch : t -> float

(** [span t ~track ~clock ~cat ?args ~start ~dur name] records one span. *)
val span :
  t ->
  track:track ->
  clock:clock ->
  cat:string ->
  ?args:(string * value) list ->
  start:float ->
  dur:float ->
  string ->
  unit

(** [with_wall_span t ~track ~cat ~name f] times [f ()] on the host clock
    and records it (even if [f] raises, the span is dropped — phases that
    die are reported through errors, not the trace). *)
val with_wall_span :
  t -> track:track -> cat:string -> name:string -> (unit -> 'a) -> 'a

val counter : t -> name:string -> time:float -> (string * float) list -> unit

(** Accumulate [bytes] onto the [src -> dst] simulated-node communication
    edge.  The matrix is folded on the reducing domain in piece order, so
    it is deterministic. *)
val comm_edge : t -> src:int -> dst:int -> float -> unit

(** Free-form run metadata (kernel, machine, dataset...), latest write wins. *)
val set_meta : t -> string -> string -> unit

(** {1 Reading a finished trace} *)

val spans : t -> span list
(** In emission order. *)

val counters : t -> counter list

(** Dense [src.(dst)] byte matrix over nodes [0 .. n-1] where [n] is one
    more than the largest node id seen on any edge. *)
val comm_matrix : t -> float array array

val meta : t -> (string * string) list

val track_label : track -> string
