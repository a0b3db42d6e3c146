(** The differential oracle run on every fuzz case.

    Properties checked, in order: sub-language round-trips (spec line, TIN
    statement, schedule), the full pipeline against the dense reference
    evaluator ({!Spdistal_exec.Validate}), rebuild determinism, leaf-backend
    equivalence (the compiled closures and the reference interpreter must be
    bit-identical in outputs and cost — whichever backend the process
    default did not select is re-run on a fresh build), simulation domain
    invariance, and fault invariance.  DNC (OOM / recovery exhaustion) is a
    legitimate outcome, reported as [Skip]. *)

type failure = { prop : string; detail : string }

type verdict =
  | Pass
  | Skip of string
  | Reject of string
      (** the compiler refused a generated case — a generator bug worth a
          report, but distinct from a wrong answer *)
  | Fail of failure

(** Run all properties on one case. *)
val run : Spec.t -> verdict

val verdict_to_string : verdict -> string
