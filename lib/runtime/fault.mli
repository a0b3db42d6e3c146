(** Deterministic fault injection and Legion-style recovery.

    The simulated runtime inherits Legion's execution semantics: tasks are
    deterministic functions of their region arguments, so a failed piece can
    be re-executed (possibly elsewhere) without changing the computed
    tensors.  This module decides {e which} faults happen — a pure,
    seed-driven schedule over (launch, node/piece, message, attempt)
    coordinates built on {!Srng} — and prices their recovery: bounded
    retries with exponential backoff, crashed nodes' pieces remapped onto
    surviving slots (re-fetching their whole input footprint), lost messages
    re-sent, and stragglers speculatively re-launched past a deadline.

    Invariant: under any schedule, outputs are bit-identical to the
    fault-free run; only {!Cost} changes.  Injection is also independent of
    the host's [--domains] degree because every draw is a pure function of
    its event coordinates. *)

type config = {
  seed : int;
  crash_rate : float;  (** P(node crash) per (launch, node, attempt) *)
  loss_rate : float;  (** P(message loss) per (launch, piece, msg, attempt) *)
  straggle_rate : float;  (** P(straggler) per (launch, piece) *)
  straggle_factor : float;  (** leaf-time inflation of a straggler *)
  max_retries : int;  (** bounded retries before {!Error.Recovery} *)
  backoff : float;  (** base simulated backoff (doubles per attempt) *)
  deadline_factor : float;
      (** speculate when the straggler exceeds this multiple of its nominal
          leaf time *)
}

(** All rates zero: injection fully bypassed, costs identical to a build
    without this module. *)
val disabled : config

val enabled : config -> bool

(** [make ()] builds a config; [rate] seeds all three failure classes and
    [crash]/[loss]/[straggle] override per class.  Raises
    {!Error.Error} ([Config]) on out-of-range values. *)
val make :
  ?seed:int ->
  ?rate:float ->
  ?crash:float ->
  ?loss:float ->
  ?straggle:float ->
  ?factor:float ->
  ?retries:int ->
  ?backoff:float ->
  ?deadline:float ->
  unit ->
  config

(** ["seed=7,rate=0.1,loss=0.2,factor=8,retries=5,..."]; a bare number is a
    rate for all classes. *)
val of_string : string -> (config, string) result

(** Parse [$SPDISTAL_FAULTS] if set.  Raises {!Error.Error} ([Config]) on a
    malformed value. *)
val of_env : unit -> config option

(** Process-wide default used by the interpreter when no explicit config is
    passed: the {!set_default} override, else {!of_env}, else
    {!disabled}. *)
val default : unit -> config

val set_default : config -> unit

(** {2 The schedule — pure per-event draws} *)

val node_crashed : config -> launch:int -> node:int -> attempt:int -> bool
val msg_lost : config -> launch:int -> piece:int -> msg:int -> attempt:int -> bool

(** [Some factor] when the piece straggles in this launch. *)
val straggler : config -> launch:int -> piece:int -> float option

(** Simulated detection/backoff wait before retry [attempt] (exponential). *)
val backoff_time : config -> int -> float

(** Nodes whose first attempt crashes in [launch].  Empty on single-node
    machines: there is no fault domain to fail over to. *)
val crashed_nodes : config -> machine:Machine.t -> launch:int -> int list

(** {2 Recovery pricing} *)

type recovery = {
  extra_comm : float;  (** seconds added to the piece's comm/wait path *)
  extra_leaf : float;  (** seconds added to the piece's compute path *)
  resent_bytes : float;  (** bytes re-transferred by recovery *)
  resent_msgs : int;
  retries : int;  (** re-executions and re-sends *)
  crashes : int;
  losses : int;
  stragglers : int;
}

(** Injected fault events priced into [r]. *)
val events : recovery -> int

(** The recovery as trace-span args, for fault-event instants on piece
    tracks. *)
val trace_args : recovery -> (string * Spdistal_obs.Trace.value) list

(** [recover_piece cfg ~machine ~launch ~piece ~msg_bytes ~footprint
    ~comm_time ~leaf_time] plays out the piece's fault schedule for this
    launch and prices the recovery.  [msg_bytes] are the piece's transfer
    sizes in issue order, [footprint] its resident bytes, [comm_time] and
    [leaf_time] its fault-free components.  Raises {!Error.Error}
    ([Recovery]) when a fault recurs beyond [max_retries]. *)
val recover_piece :
  config ->
  machine:Machine.t ->
  launch:int ->
  piece:int ->
  msg_bytes:float list ->
  footprint:float ->
  comm_time:float ->
  leaf_time:float ->
  recovery
