(** Dense vectors and matrices — the dense operands of the evaluation kernels
    (SpMV's [c], SpMM's [C], SDDMM's factors, MTTKRP's factor matrices). *)

type vec = { name : string; n : int; data : float array }

type mat = {
  name : string;
  rows : int;
  cols : int;
  data : float array;  (** row-major *)
}

val vec_create : string -> int -> vec
val vec_init : string -> int -> (int -> float) -> vec
val vec_get : vec -> int -> float
val vec_set : vec -> int -> float -> unit
val vec_fill : vec -> float -> unit
val vec_bytes : vec -> float

(** Infinity-norm distance, for approximate equality in tests. *)
val vec_dist : vec -> vec -> float

val mat_create : string -> int -> int -> mat
val mat_init : string -> int -> int -> (int -> int -> float) -> mat
val mat_get : mat -> int -> int -> float
val mat_bytes : mat -> float
val mat_dist : mat -> mat -> float
