(** Dense reference evaluation of TIN statements, for correctness checking.

    Evaluates the statement by brute force over the full Cartesian product of
    index domains — trustworthy but only usable on small inputs (tests). *)

module Tin := Spdistal_ir.Tin

(** [reference bindings stmt] computes the statement's result densely into a
    fresh map keyed by lhs coordinates (zero entries omitted). *)
val reference : Operand.bindings -> Tin.stmt -> (int list, float) Hashtbl.t

(** [max_error bindings stmt] compares the bound output operand against the
    dense reference and returns the largest absolute difference. *)
val max_error : Operand.bindings -> Tin.stmt -> float

(** {1 Tolerance-aware comparison}

    The fuzzer's differential oracle: every lhs coordinate is compared
    against the dense reference; coordinates failing
    [|want - got| <= atol + rtol * |want|] are mismatches. *)

type diff = { coords : int list; expected : float; actual : float }

type comparison = {
  checked : int;  (** lhs coordinates compared *)
  mismatched : int;  (** coordinates outside tolerance *)
  max_abs_err : float;  (** largest absolute difference seen *)
  samples : diff list;  (** first few mismatches, iteration order *)
}

(** [compare ?rtol ?atol ?max_samples bindings stmt]; tolerances default to 0
    (exact), [max_samples] (recorded mismatches) to 5. *)
val compare :
  ?rtol:float ->
  ?atol:float ->
  ?max_samples:int ->
  Operand.bindings ->
  Tin.stmt ->
  comparison

(** No mismatches. *)
val ok : comparison -> bool

(** Human-readable summary: mismatch counts plus the sample coordinates with
    both values. *)
val diff_to_string : comparison -> string
