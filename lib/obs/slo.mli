(** Declarative service-level objectives over metric snapshot windows.

    An objective file holds one objective per line ([#] comments allowed):

    {v
    p99_ms <= 200
    shed_rate <= 0.05 budget=0.1
    hit_rate >= 0.4
    v}

    Objectives are evaluated over a series of {e windows} (scraped metric
    snapshots, or rows of a wide CSV like [results/serve.csv]).  A metric
    name resolves against the window keys by exact match, then by base name
    (labels stripped), then by unique ["_"]-suffix — so [p99_ms] finds
    [spdistal_serve_p99_ms].  When a name matches several series (e.g. a
    labeled family), every matched series must satisfy the objective.

    A window {e violates} an objective when any matched value fails the
    comparison; the {e burn} is the violating fraction of evaluated windows,
    compared against the objective's error budget (default [0]: any
    violation fails). *)

type op = Le | Ge | Lt | Gt

type objective = {
  o_metric : string;
  o_op : op;
  o_bound : float;
  o_budget : float;  (** allowed violating window fraction, in [[0, 1]] *)
}

(** [parse text] — the whole objective file.  [Error] names the offending
    line. *)
val parse : string -> (objective list, string) result

(** [load path] — {!parse} of the file's contents. *)
val load : string -> (objective list, string) result

(** {1 Windows} *)

type window = {
  w_time : float;
  w_tags : (string * string) list;  (** non-numeric columns of a wide CSV *)
  w_values : (string * float) list;
}

(** From scraped snapshot rows (see [Metrics.Scrape.rows]). *)
val windows_of_samples : (float * Metrics.sample list) list -> window list

(** Parse a CSV into windows, sniffing the format from the header: the
    scraper's long format ([t_s,metric,value], one window per distinct
    time) or a wide format (one window per data row, numeric columns as
    values, other columns as tags — e.g. [results/serve.csv]).  [#]-prefixed
    lines are comments. *)
val windows_of_csv : string -> (window list, string) result

(** Keep windows whose tag [key] equals [value] (e.g.
    [~key:"scenario" ~value:"chaos"] on [results/serve.csv]). *)
val select : key:string -> value:string -> window list -> window list

(** {1 Verdicts} *)

type verdict = {
  d_objective : objective;
  d_keys : string list;  (** the series the metric name resolved to *)
  d_windows : int;  (** windows where at least one matched series appeared *)
  d_violations : int;
  d_burn : float;  (** [violations / windows] *)
  d_ok : bool;  (** [burn <= budget] *)
  d_worst : (float * float) option;  (** (window time, value) furthest past the bound *)
}

(** [Error] when some objective's metric matches no series in any window,
    or when there are no windows at all. *)
val evaluate : objective list -> window list -> (verdict list, string) result

val ok : verdict list -> bool

(** Human-readable multi-line report with error-budget burn per objective. *)
val report : verdict list -> string
