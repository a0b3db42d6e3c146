(** Instance manager: which (sub-)regions are resident in which piece memory.

    Physical data lives once in the OCaml heap; this module tracks the bytes
    that the simulated machine would hold per piece, enforces memory
    capacities (raising {!Oom} exactly where the paper reports OOM/DNC cells,
    Fig. 11), and tells the executor whether a requested instance is already
    valid — a hit costs nothing, a miss is charged as a transfer by the
    caller.  An optional CUDA-UVM mode models Trilinos's ability to oversubscribe
    GPU memory at a paging penalty. *)

exception Oom of string

type fetch = Hit | Miss of float  (** bytes to transfer *) | Paged of float
      (** bytes resident beyond capacity, to be paged each access (UVM) *)

type t

(** [create machine ~uvm] — capacities come from [Machine.piece_mem]. *)
val create : Machine.t -> uvm:bool -> t

(** [ensure t ~piece ~key ~bytes] requests that instance [key] ([bytes] large)
    be valid in [piece]'s memory.  Returns [Hit] if already valid.  On a miss,
    reserves the bytes and returns [Miss bytes]; if the reservation exceeds
    capacity, raises [Oom] (or returns [Paged overflow] under UVM). *)
val ensure : t -> piece:int -> key:string -> bytes:float -> fetch

val resident_bytes : t -> piece:int -> float
