(** Runtime operand bindings: the data a lowered program executes against.

    Dense operands are mutated in place; sparse outputs with unknown patterns
    (additive merges) are re-assembled, so every binding is a mutable slot. *)

open Spdistal_formats

type data = Sparse of Tensor.t | Vec of Dense.vec | Mat of Dense.mat
type slot = { mutable data : data }
type bindings = (string * slot) list

val sparse : Tensor.t -> slot
val vec : Dense.vec -> slot
val mat : Dense.mat -> slot

val find : bindings -> string -> slot
val find_sparse : bindings -> string -> Tensor.t
val find_vec : bindings -> string -> Dense.vec
val find_mat : bindings -> string -> Dense.mat

(** Whether the two operands' values are one storage, so writing one
    changes the other. *)
val shares_storage : data -> data -> bool

(** Size of dimension [d] of the operand. *)
val dim : data -> int -> int

val order : data -> int

(** Bytes of one element of dimension [d]'s cross-section: 8 for a vector
    element, [8*cols] for a matrix row ([d]=0), [8*rows] for a column
    ([d]=1). *)
val slice_bytes : data -> int -> float

(** Deep copy: fresh backing arrays, identical values and structure.  Used
    by the execution context to snapshot (and later restore) the output
    operand across warm-start iterations. *)
val copy_data : data -> data

(** Build a lowering environment from bindings. *)
val env_of_bindings : bindings -> Spdistal_ir.Lower.env
