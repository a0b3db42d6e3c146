(** Matrix format conversions (CSR/CSC/COO round trips) and transposition,
    built on the COO interchange representation. *)

val csr_to_csc : Tensor.t -> Tensor.t
val csc_to_csr : Tensor.t -> Tensor.t

(** Transpose a 2-tensor, keeping its storage format kinds. *)
val transpose : name:string -> Tensor.t -> Tensor.t
