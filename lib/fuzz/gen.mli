(** Deterministic random generation of well-formed fuzz cases.

    A (seed, index) pair fully determines the case — the sampler draws from
    a private splitmix64 stream, never OCaml's global RNG.  Generated cases
    stay inside the compiler's supported leaf fragment: one sparse driver
    per product, pure sums of sparse accesses for merges, at most one
    non-driver variable; schedules, formats and TDNs are drawn from pools
    valid for the sampled statement. *)

type params = {
  max_dim : int;
  max_pieces : int;
  fault_prob : float;
  gpu_prob : float;
}

val default_params : params

(** [case ?params ~seed index] — the [index]-th case of campaign [seed].
    Raises {!Spdistal_runtime.Error.Error} ([Config]) when [max_dim] or
    [max_pieces] is below 1, or [fault_prob] or [gpu_prob] is not in
    \[0, 1\]. *)
val case : ?params:params -> seed:int -> int -> Spec.t
