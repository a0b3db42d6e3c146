(** Tensor index notation (TIN), the computation language of SpDISTAL
    (paper §II-A).

    A statement assigns into a left-hand-side access from an expression of
    multiplications and additions of accesses; index variables appearing only
    on the right denote sum reductions.  The concrete kernels of the
    evaluation are provided as constructors. *)

type access = { tensor : string; indices : string list }

type expr =
  | Access of access
  | Add of expr * expr
  | Mul of expr * expr
  | Lit of float

type stmt = { lhs : access; rhs : expr }

(** {1 Builders} *)

val access : string -> string list -> expr
val ( + ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val assign : string -> string list -> expr -> stmt

(** {1 Analysis} *)

(** All accesses of the right-hand side, left to right. *)
val rhs_accesses : stmt -> access list

(** Distinct index variables in first-appearance order (lhs first). *)
val index_vars : stmt -> string list

(** Index variables that appear only on the rhs (reduction variables). *)
val reduction_vars : stmt -> string list

(** [true] when the rhs is a pure sum of accesses (no products), the shape
    of SpAdd3. *)
val is_pure_addition : stmt -> bool

(** Validates arities against a lookup of tensor orders, and that lhs vars
    appear on the rhs.  Raises {!Spdistal_runtime.Error.Error} ([Compile]). *)
val validate : order_of:(string -> int) -> stmt -> unit

val pp : Format.formatter -> stmt -> unit
val to_string : stmt -> string

(** {1 Parsing}

    Inverse of {!to_string}: [*] and [+] parse left-associative, matching the
    builders, so statements built with the operators round-trip exactly.
    Fuzzer reproducers rely on this. *)

val of_string : string -> (stmt, string) result

(** Like {!of_string} but raises a [Compile] {!Spdistal_runtime.Error.Error}
    with the same text. *)
val of_string_exn : string -> stmt

(** {1 The paper's evaluation kernels (§VI-A)} *)

val spmv : stmt (* a(i) = B(i,j) * c(j) *)
val spmm : stmt (* A(i,j) = B(i,k) * C(k,j) *)
val spadd3 : stmt (* A(i,j) = B(i,j) + C(i,j) + D(i,j) *)
val sddmm : stmt (* A(i,j) = B(i,j) * C(i,k) * D(k,j) *)
val spttv : stmt (* A(i,j) = B(i,j,k) * c(k) *)
val spmttkrp : stmt (* A(i,l) = B(i,j,k) * C(j,l) * D(k,l) *)
