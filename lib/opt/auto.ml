(* The auto-scheduler front door: enumerate candidates (plus the problem's
   own hand schedule), price them all and pick the cheapest.  The caller
   keeps the decision: an iterative run schedules once before its loop, and
   the serve engine once per (query, machine) context. *)

module Spdistal = Core.Spdistal
module Metrics = Spdistal_obs.Metrics
module Log = Spdistal_obs.Log

type verdict = {
  v_label : string;
  v_candidate : Search.candidate;
  v_priced : (Price.priced, string) result;
}

type report = {
  rp_verdicts : verdict list;  (* generated candidates + hand, search order *)
  rp_naive : (Price.priced, string) result;
  rp_winner : (Search.candidate * Price.priced) option;
}

type choice = {
  ch_problem : Spdistal.problem;  (* the problem, re-planned *)
  ch_label : string;
  ch_total : float;
}

let hand_candidate (p : Spdistal.problem) =
  {
    Search.c_label = "hand";
    c_schedule = p.Spdistal.schedule;
    c_tdns = List.map (fun (n, _, tdn) -> (n, tdn)) p.Spdistal.operands;
  }

let price_candidate s (c : Search.candidate) =
  Price.price_in s ~schedule:c.Search.c_schedule ~tdns:c.Search.c_tdns

(* Price the generated candidates and the hand schedule in session [s].
   Generated candidates come first so a generated point that ties the hand
   price wins the tie — the differential suite exercises the interesting
   path. *)
let evaluate s p =
  let cands = Search.candidates p @ [ hand_candidate p ] in
  List.map
    (fun c ->
      {
        v_label = c.Search.c_label;
        v_candidate = c;
        v_priced = price_candidate s c;
      })
    cands

let best verdicts =
  List.fold_left
    (fun acc v ->
      match (acc, v.v_priced) with
      | None, Ok pr -> Some (v.v_candidate, pr)
      | Some (_, b), Ok pr when pr.Price.pr_total < b.Price.pr_total ->
          Some (v.v_candidate, pr)
      | _ -> acc)
    None verdicts

let report p =
  let s = Price.session p in
  let verdicts = evaluate s p in
  {
    rp_verdicts = verdicts;
    rp_naive = price_candidate s (Search.naive p);
    rp_winner = best verdicts;
  }

(* Ambient search metrics: decision counts and candidates priced are pure
   facts of the problem stream (deterministic); the search wall time is a
   host-clock fact and therefore wall-flagged out of the deterministic
   snapshot.  The decision itself is also logged. *)
let note_decision ~label ~total ~candidates ~seconds =
  let m = Metrics.default () in
  Metrics.inc m ~help:"auto-scheduler decisions" "spdistal_auto_searches_total";
  Metrics.inc m
    ~by:(float_of_int candidates)
    ~help:"schedule candidates priced by the auto-scheduler"
    "spdistal_auto_candidates_priced_total";
  Metrics.inc m ~by:seconds ~wall:true "spdistal_auto_search_seconds_total";
  Log.event (Log.default ())
    ~fields:
      [
        ("winner", Spdistal_obs.Trace.S label);
        ("total_s", Spdistal_obs.Trace.F total);
        ("candidates", Spdistal_obs.Trace.I candidates);
      ]
    "auto_search_decided"

let choose (p : Spdistal.problem) =
  let t0 = Sys.time () in
  let verdicts = evaluate (Price.session p) p in
  let seconds = Sys.time () -. t0 in
  match best verdicts with
  | None -> None
  | Some (c, pr) ->
      note_decision ~label:c.Search.c_label ~total:pr.Price.pr_total
        ~candidates:(List.length verdicts) ~seconds;
      Some
        {
          ch_problem = Search.apply p c;
          ch_label = c.Search.c_label;
          ch_total = pr.Price.pr_total;
        }

let schedule p = match choose p with Some c -> c.ch_problem | None -> p
