(** Dependent partitioning (Treichler et al., paper §III-A, Fig. 6):
    deriving partitions of one region from partitions of another through the
    pointer structure stored in region values.

    Two value shapes occur in sparse tensor storage:
    - {e range-valued} regions — the [pos] array stores [(lo, hi)] index
      ranges naming positions of the [crd] array (paper Fig. 7);
    - {e int-valued} regions — the [crd] array stores coordinate values naming
      indices of the child level's universe.

    [image] colors all destinations of pointers with the color of their
    source; [preimage] colors all sources with the colors of their
    destinations.  Preimages of shared structure may produce aliased
    partitions (Fig. 6b).

    Each operator is one sweep over the region's backing array, on int
    compares, with results accumulated in {!Iset.builder}s.  A preimage of
    ranges keeps one forward-only cursor per destination color while the
    ranges' starts rise (CSR [pos]) and falls back to a binary search when
    a range starts below the previous one.  An image whose source subset
    escapes the region's index space fails with [Error.Error] in phase
    [Partition_eval]. *)

(** [image_ranges pos p target] where [p] partitions [pos]'s index space:
    color [c] receives the union of ranges [pos.(i)] over [i] in [p(c)],
    clipped to [target]. *)
val image_ranges : (int * int) Region.t -> Partition.t -> Iset.t -> Partition.t

(** [preimage_ranges pos p] where [p] partitions the pointed-to space: color
    [c] receives every [i] whose range [pos.(i)] intersects [p(c)]. *)
val preimage_ranges : (int * int) Region.t -> Partition.t -> Partition.t

(** [image_values crd p target] where [p] partitions [crd]'s index space:
    color [c] receives the set [{crd.(i) | i in p(c)}], clipped to
    [target]. *)
val image_values : int Region.t -> Partition.t -> Iset.t -> Partition.t

(** [preimage_values crd p] where [p] partitions the value space: color [c]
    receives every position [i] with [crd.(i)] in [p(c)]. *)
val preimage_values : int Region.t -> Partition.t -> Partition.t
