(** Regions: typed multi-element arrays addressed by a (linearized) index
    space, the Legion-style storage abstraction of the runtime (paper §III-A).

    A region couples an index space — the set of valid indices — with backing
    storage.  Sub-regions produced by partitioning share the parent's backing
    storage, exactly as Legion logical sub-regions view the same field data;
    only the index space shrinks. *)

type 'a t = private {
  name : string;
  id : int;  (** unique per allocation (sub-regions share their parent's) *)
  ispace : Iset.t;  (** valid indices *)
  data : 'a array;  (** backing store, addressed by global index *)
}

(** [create name n init] makes a region over [{0..n-1}] filled with [init]. *)
val create : string -> int -> 'a -> 'a t

(** [of_array name a] wraps an existing array (no copy). *)
val of_array : string -> 'a array -> 'a t

(** [subregion r is] is the view of [r] restricted to [is] (shared storage).
    Raises {!Error.Error} ([Partition_eval]) if [is] is not a subset of
    [r]'s index space. *)
val subregion : 'a t -> Iset.t -> 'a t

val get : 'a t -> int -> 'a

(** Write one element and bump {!generation}. *)
val set : 'a t -> int -> 'a -> unit

(** Pattern-write stamp: a process-wide count of {!set} calls.  A value
    derived from index storage (a cache key) stays valid while the stamp
    it was derived under is current.  Float writes ({!F.set}) are value
    writes and do not bump it. *)
val generation : unit -> int
val size : 'a t -> int

(** Number of addressable slots in the backing store (the parent extent). *)
val extent : 'a t -> int

(** [iter f r] applies [f idx value] over the region's index space. *)
val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** Footprint in bytes given per-element size. *)
val bytes : elt_bytes:int -> 'a t -> int

(** Float regions over Bigarray storage: unboxed, GC-opaque, C-layout value
    buffers, matching the flat buffers a real runtime hands to compiled leaf
    tasks.  Used for tensor values; index (pos/crd) storage stays on ['a t]. *)
module F : sig
  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = private {
    name : string;
    id : int;  (** unique per allocation *)
    ispace : Iset.t;  (** valid indices *)
    data : buf;  (** backing store, addressed by global index *)
  }

  (** [create name n init] makes a region over [{0..n-1}] filled with
      [init] (Bigarray buffers are not zero-initialized by default). *)
  val create : string -> int -> float -> t

  (** [of_array name a] copies [a] into a fresh buffer. *)
  val of_array : string -> float array -> t

  val to_array : t -> float array

  (** Fresh region (new id) with a copied buffer. *)
  val copy : t -> t

  val get : t -> int -> float
  val set : t -> int -> float -> unit
  val size : t -> int

  (** Number of addressable slots in the backing store. *)
  val extent : t -> int

  val iter : (int -> float -> unit) -> t -> unit
  val fold : (int -> float -> 'b -> 'b) -> t -> 'b -> 'b

  (** Footprint in bytes (8 B elements). *)
  val bytes : t -> int
end
