(** Campaign driver: generate, check, shrink, report.

    A campaign runs [count] generated cases from one seed, stops at the
    first failing case, minimizes it with {!Shrink.minimize} and packages a
    reproducer.  Corpus replay re-checks frozen regression specs. *)

type failure_case = {
  index : int;
  original : Spec.t;
  shrunk : Spec.t;
  failure : Check.failure;
  text : string;
}

type report = {
  total : int;
  passed : int;
  skipped : int;
  rejected : int;
  failure : failure_case option;
}

(** [run ~seed ~count ()].  [budget_seconds <= 0.] (default) means no time
    box; a positive budget stops the campaign (not mid-case) when CPU time
    exceeds it.  [progress] is invoked after each case.  The first failure
    stops the campaign and is shrunk with at most 300 checks. *)
val run :
  ?params:Gen.params ->
  ?progress:(index:int -> spec:Spec.t -> Check.verdict -> unit) ->
  ?budget_seconds:float ->
  seed:int ->
  count:int ->
  unit ->
  report

val report_to_string : report -> string

(** Check one serialized spec line. *)
val replay_line : string -> Check.verdict

(** Replay every spec line of every [*.case] file in [dir] (sorted);
    returns [(location, verdict)] pairs, where location is [file:line].  A
    line [reject: SPEC] expects the compiler to refuse [SPEC]: its refusal
    replays as [Pass], anything else as [Fail]. *)
val replay_corpus : dir:string -> (string * Check.verdict) list
