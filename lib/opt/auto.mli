(** The auto-scheduler: statistics-driven schedule/TDN search.

    [choose] prices every {!Search} candidate plus the problem's own hand
    schedule with {!Price} and picks the cheapest, so the result never
    prices worse than the schedule the caller wrote.  Each [choose] or
    [report] call prices its candidates in one {!Price.session}, which
    ends with the call.  Nothing is remembered across calls: the caller
    holds the decision.  An iterative run schedules once before its loop,
    and the serve engine once per (query, machine) context. *)

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
}

(** Full pricing table — the view [spdistal auto] and the tournament
    print. *)
val report : Core.Spdistal.problem -> report

(** Pick the cheapest feasible candidate.  [None] when nothing prices — the
    caller keeps its hand schedule. *)
val choose : Core.Spdistal.problem -> choice option

(** [choose] with the identity fallback: the re-planned problem, or [p]
    unchanged when no candidate is feasible. *)
val schedule : Core.Spdistal.problem -> Core.Spdistal.problem
