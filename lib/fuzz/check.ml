(* The differential oracle.  One case exercises, in order:
   - round-trips: the spec line, the TIN statement and the schedule each
     re-parse to what they printed (the sub-language pretty-printers are
     load-bearing in reproducers, so they are checked on every case);
   - the full pipeline (Lower -> Part_eval -> Placement -> Interp) against
     the dense reference evaluator, within float tolerances;
   - build determinism: rebuilding and re-running is bit-identical;
   - backend equivalence: the compiled leaf closures and the reference
     interpreter produce bit-identical outputs and costs;
   - domain invariance: the host simulation degree never changes outputs or
     costs (PR-1 invariant);
   - fault invariance: an injected fault schedule never changes outputs
     (PR-2 invariant); runs that exhaust recovery report DNC, which is a
     legitimate outcome, not a failure;
   - search legality (auto cases): every candidate the auto-scheduler's
     search emits lowers;
   - auto-vs-hand (auto cases): the chosen schedule agrees with the dense
     reference. *)

open Spdistal_runtime
open Spdistal_exec
open Core

type failure = { prop : string; detail : string }

type verdict =
  | Pass
  | Skip of string  (** ran but produced nothing checkable (e.g. DNC) *)
  | Reject of string  (** compiler refused a case the generator emitted *)
  | Fail of failure

let rtol = 1e-9
let atol = 1e-12

type exec_result =
  | Ran of Cost.t
  | Dnc of string
  | Rejected of string
  | Crashed of string

(* A typed refusal: the compiler or the configuration declining the case.
   Any other exception, an untyped one included, is a crash. *)
let refusal (e : Error.t) =
  match e.Error.phase with Error.Compile | Error.Config -> true | _ -> false

let exec ?(domains = 1) ?(faults = Fault.disabled) ?leaf_backend p =
  match Spdistal.run ~domains ~faults ?leaf_backend p with
  | { cost; dnc = None; _ } -> Ran cost
  | { dnc = Some reason; _ } -> Dnc reason
  | exception Error.Error e when refusal e -> Rejected (Error.to_string e)
  | exception Error.Error e -> Crashed (Error.to_string e)
  | exception exn -> Crashed (Printexc.to_string exn)

let fail prop fmt = Printf.ksprintf (fun detail -> Fail { prop; detail }) fmt

let check_roundtrips spec =
  let line = Spec.to_string spec in
  match Spec.of_string line with
  | Error m -> fail "spec-roundtrip" "%S does not re-parse: %s" line m
  | Ok spec' when not (Spec.equal spec spec') ->
      fail "spec-roundtrip" "%S re-parses to %S" line (Spec.to_string spec')
  | Ok _ -> (
      let stmt = Spec.stmt spec in
      let s = Spdistal_ir.Tin.to_string stmt in
      match Spdistal_ir.Tin.of_string s with
      | Error m -> fail "tin-roundtrip" "%S does not re-parse: %s" s m
      | Ok stmt' when stmt' <> stmt ->
          fail "tin-roundtrip" "%S re-parses to %S" s
            (Spdistal_ir.Tin.to_string stmt')
      | Ok _ -> (
          let sched = Spec.schedule spec in
          let s = Spdistal_ir.Schedule.to_string sched in
          match Spdistal_ir.Schedule.of_string s with
          | Error m -> fail "schedule-roundtrip" "%S does not re-parse: %s" s m
          | Ok sched' when sched' <> sched ->
              fail "schedule-roundtrip" "%S re-parses to %S" s
                (Spdistal_ir.Schedule.to_string sched')
          | Ok _ -> Pass))

let faults_of spec =
  match spec.Spec.faults with
  | None -> Fault.disabled
  | Some (seed, rate) -> Fault.make ~seed ~rate ~retries:8 ()

exception Done of verdict

let run spec =
  let stop v = raise (Done v) in
  try
    (match check_roundtrips spec with
    | Pass -> ()
    | v -> stop v
    | exception Error.Error e when refusal e -> stop (Reject (Error.to_string e)));
    let p =
      match Spec.build spec with
      | p -> p
      | exception Error.Error e when refusal e ->
          stop (Reject ("build: " ^ Error.to_string e))
      | exception exn ->
          stop (Fail { prop = "build"; detail = Printexc.to_string exn })
    in
    let cost =
      match exec p with
      | Ran cost -> cost
      | Rejected m -> stop (Reject m)
      | Crashed m -> stop (Fail { prop = "pipeline"; detail = m })
      | Dnc reason -> stop (Skip ("DNC: " ^ reason))
    in
    (* differential check against the dense reference *)
    let cmp =
      Validate.compare ~rtol ~atol (Spdistal.bindings p) (Spec.stmt spec)
    in
    if not (Validate.ok cmp) then
      stop (fail "differential" "%s" (Validate.diff_to_string cmp));
    let base_out = Snapshot.outputs p in
    let base_cost = Snapshot.cost cost in
    (* One variant: a fresh build of the case, run another way, must match
       the base run bit for bit: outputs and Cost (whose launch counters
       carry the launch records).  [outputs_only] compares outputs alone
       and accepts a DNC, which is all an injected fault schedule
       promises. *)
    let variant prop ~how ?(outputs_only = false) exec_variant =
      let p' = Spec.build spec in
      match exec_variant p' with
      | Ran c
        when Snapshot.equal base_out (Snapshot.outputs p')
             && (outputs_only || Snapshot.equal base_cost (Snapshot.cost c)) ->
          ()
      | Ran _ ->
          stop
            (fail prop "outputs%s differ %s"
               (if outputs_only then "" else " or cost")
               how)
      | Dnc _ when outputs_only -> ()
      | Dnc r -> stop (fail prop "DNC only %s: %s" how r)
      | Rejected m | Crashed m -> stop (fail prop "failed %s: %s" how m)
    in
    (* rebuild determinism: a fresh build + run is bit-identical *)
    variant "rebuild-determinism" ~how:"on rebuild" exec;
    (* backend equivalence: the compiled leaf closures and the reference
       interpreter agree.  Run the case again under whichever backend the
       base run did not use. *)
    (let other =
       match Compile_leaf.default_backend () with
       | Compile_leaf.Compiled -> Compile_leaf.Interp
       | Compile_leaf.Interp -> Compile_leaf.Compiled
     in
     variant "backend-equivalence"
       ~how:
         (Printf.sprintf "under the %s leaf backend"
            (Compile_leaf.backend_name other))
       (exec ~leaf_backend:other));
    (* domain invariance *)
    if spec.Spec.domains > 1 then
      variant "domain-invariance"
        ~how:(Printf.sprintf "at domains=%d" spec.Spec.domains)
        (exec ~domains:spec.Spec.domains);
    (* fault invariance: outputs identical; DNC under faults is a
       legitimate outcome *)
    if spec.Spec.faults <> None then
      variant "fault-invariance" ~how:"under fault injection" ~outputs_only:true
        (exec ~faults:(faults_of spec));
    (* search legality: every candidate the auto-scheduler's search emits
       lowers, so pricing never places a schedule [Lower] refuses. *)
    (if spec.Spec.auto then
       List.iter
         (fun (c : Spdistal_opt.Search.candidate) ->
           match
             Spdistal.compile ~trace:Spdistal_obs.Trace.null
               (Spdistal_opt.Search.apply p c)
           with
           | _ -> ()
           | exception Error.Error e ->
               stop
                 (fail "search-legality" "candidate %s does not lower: %s"
                    c.Spdistal_opt.Search.c_label (Error.to_string e)))
         (Spdistal_opt.Search.candidates p));
    (* auto-vs-hand equivalence: whatever schedule the auto-scheduler picks
       for the same (machine, TIN, tensors), executing it must agree with
       the dense reference exactly as the spec's own schedule did.  No
       feasible candidate is a legitimate outcome (the hand schedule
       stands), and so is a DNC of the rescheduled run. *)
    (if spec.Spec.auto then
       let p5 = Spec.build spec in
       match Spdistal_opt.Auto.choose p5 with
       | None | (exception Error.Error _) -> ()
       | exception Invalid_argument m ->
           stop
             (fail "auto-vs-hand" "untyped refusal escaped Auto.choose: %s" m)
       | Some ch -> (
           match exec ch.Spdistal_opt.Auto.ch_problem with
           | Ran _ ->
               let cmp =
                 Validate.compare ~rtol ~atol
                   (Spdistal.bindings ch.Spdistal_opt.Auto.ch_problem)
                   (Spec.stmt spec)
               in
               if not (Validate.ok cmp) then
                 stop
                   (fail "auto-vs-hand" "auto schedule (%s) disagrees: %s"
                      ch.Spdistal_opt.Auto.ch_label
                      (Validate.diff_to_string cmp))
           | Dnc _ -> ()
           | Rejected m | Crashed m ->
               stop
                 (fail "auto-vs-hand" "auto schedule (%s) failed: %s"
                    ch.Spdistal_opt.Auto.ch_label m)));
    Pass
  with Done v -> v

let verdict_to_string = function
  | Pass -> "pass"
  | Skip m -> "skip: " ^ m
  | Reject m -> "reject: " ^ m
  | Fail { prop; detail } -> Printf.sprintf "FAIL [%s]: %s" prop detail
