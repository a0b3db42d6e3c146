(** The auto-scheduler: statistics-driven schedule/TDN search.

    [choose] prices every {!Search} candidate plus the problem's own hand
    schedule with {!Price} and picks the cheapest, so the result never
    prices worse than the schedule the caller wrote.  Each [choose] or
    [report] call prices its candidates in one {!Price.session}, which
    ends with the call.  With a [cache], the
    winner is remembered under {!Spdistal_exec.Cache.winner_digest} (machine
    + TIN + sparsity pattern, schedule- and TDN-free) and replayed without
    pricing on later calls. *)

open Spdistal_exec

type verdict = {
  v_label : string;
  v_candidate : Search.candidate;
  v_priced : (Price.priced, string) result;  (** [Error] = infeasible *)
}

type report = {
  rp_verdicts : verdict list;
      (** generated candidates then the hand schedule, in search order *)
  rp_naive : (Price.priced, string) result;
  rp_winner : (Search.candidate * Price.priced) option;
}

type choice = {
  ch_problem : Core.Spdistal.problem;  (** the problem, re-planned *)
  ch_label : string;
  ch_total : float;  (** priced cost of the winner, simulated seconds *)
  ch_cached : bool;  (** replayed from the winner cache without pricing *)
}

(** Full pricing table (no cache interaction) — the view [spdistal auto]
    and the tournament print. *)
val report : Core.Spdistal.problem -> report

(** Pick (and, given [cache], remember or replay) the cheapest feasible
    candidate.  [None] when nothing prices — the caller keeps its hand
    schedule. *)
val choose : ?cache:Cache.t -> Core.Spdistal.problem -> choice option

(** [choose] with the identity fallback: the re-planned problem, or [p]
    unchanged when no candidate is feasible. *)
val schedule : ?cache:Cache.t -> Core.Spdistal.problem -> Core.Spdistal.problem
