(** Two-phase parallel assembly of sparse outputs with unknown sparsity
    (Chou et al. [28]; paper §V-B).

    Phase one symbolically executes the kernel to {e count} output non-zeros
    per row; a prefix sum then fixes every row's output range so phase two can
    {e fill} coordinates and values without synchronization.  The same
    mechanism serves sparse additions and format conversions. *)

type staged = {
  pos : (int * int) array;  (** per-row inclusive output ranges *)
  total : int;
}

(** [stage ~rows ~count] runs the symbolic phase: [count r] is the number of
    output non-zeros of row [r]. *)
val stage : rows:int -> count:(int -> int) -> staged

(** [fill st ~row_fill ~name ~dims] runs the numeric phase into freshly
    allocated [crd]/[vals] storage and returns a CSR-shaped 2-tensor.
    [row_fill r emit] must call [emit col value] exactly [count r] times, in
    increasing column order. *)
val fill :
  staged ->
  row_fill:(int -> (int -> float -> unit) -> unit) ->
  name:string ->
  dims:int array ->
  Tensor.t

(** [copy_pattern ~name ?levels src] allocates an output tensor sharing the
    first [levels] (default: all) levels of [src]'s coordinate metadata — the
    §V-B fast path for pattern-preserving statements (SDDMM keeps all of
    [B]'s pattern; SpTTV keeps the first two levels of a 3-tensor) — with
    fresh zero values sized by the last kept level's extent.  Raises
    {!Spdistal_runtime.Error.Error} with phase [Config] when [levels] is out
    of range or the kept levels do not store exactly the logical dimensions
    [0 .. levels - 1] (e.g. SpTTV over a 3-tensor in mode order [0; 2; 1]). *)
val copy_pattern : name:string -> ?levels:int -> Tensor.t -> Tensor.t
