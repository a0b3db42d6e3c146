(** Leveled, structured event logging (JSONL).

    Events carry the simulated time (when known), the same {!Trace.track}
    ids the Chrome-trace exporter uses (rendered as [pid]/[tid] so a log
    line can be correlated with a span in the exported trace), an optional
    correlating span name, and typed fields.

    Like [Trace] and [Metrics], emission happens on the reducing domain or
    the sequential serve loop, so a log is byte-identical across
    [--domains]; {!null} is a shared disabled log (one branch per call). *)

type level = Debug | Info | Warn | Error

type entry = {
  e_seq : int;  (** emission order, 0-based *)
  e_time : float option;  (** simulated seconds, when the site has a clock *)
  e_level : level;
  e_event : string;  (** e.g. ["job_admitted"], ["cache_evicted"] *)
  e_track : Trace.track option;
  e_span : string option;  (** name of the correlating Chrome-trace span *)
  e_fields : (string * Trace.value) list;
}

type t

(** [create ?level ()] — a fresh enabled log keeping entries at [>= level]
    (default [Info]; [Debug] keeps everything). *)
val create : ?level:level -> unit -> t

(** The shared disabled log: every emission is a no-op. *)
val null : t

val enabled : t -> bool

(** {1 Ambient default} — mirrors [Metrics.default]; initial default {!null}. *)

val default : unit -> t

val set_default : t -> unit

(** [event t ?level ?time ?track ?span ?fields name] records one entry
    (dropped when below the log's level). *)
val event :
  t ->
  ?level:level ->
  ?time:float ->
  ?track:Trace.track ->
  ?span:string ->
  ?fields:(string * Trace.value) list ->
  string ->
  unit

(** In emission order. *)
val entries : t -> entry list

(** One JSON object per entry:
    [{"seq":..,"t":..,"level":..,"event":..,"track":..,"pid":..,"tid":..,
      "span":..,"fields":{..}}] — [pid]/[tid] match the Chrome-trace
    exporter's track layout. *)
val to_jsonl : t -> string

(** Write {!to_jsonl} to [path]. *)
val write : t -> path:string -> unit
