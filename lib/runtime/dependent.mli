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

    Each operator pays per run, not per entry and color: its loops keep
    their state in locals and call into {!Iset} once per interval they
    emit.  An image whose source subset escapes the region's index space
    fails with [Error.Error] in phase [Partition_eval].

    {b The [pos] precondition.}  [preimage_ranges] reads its [pos] as a
    compressed level stores it: every entry starts after the entry before
    it ends, and ends no earlier than just before its own start.  So the
    non-empty ranges rise without overlap and an empty parent is
    [(c, c - 1)] at the next start; [Tensor.of_coo] and the merge stitcher
    build every compressed level this way.  Both ends then never fall, and
    for each source run the preimage seeks the first entry ending at or
    after the run's start and scans only the entries that meet it.  Each
    entry it scans is checked; one that breaks the order fails with
    [Error.Error] in phase [Partition_eval].  The other operators assume
    nothing of the values they read. *)

(** [image_ranges pos p target] where [p] partitions [pos]'s index space:
    color [c] receives the union of ranges [pos.(i)] over [i] in [p(c)],
    clipped to [target]. *)
val image_ranges : (int * int) Region.t -> Partition.t -> Iset.t -> Partition.t

(** [preimage_ranges pos p] where [p] partitions the pointed-to space: color
    [c] receives every [i] whose range [pos.(i)] intersects [p(c)].  [pos]
    must satisfy the precondition above. *)
val preimage_ranges : (int * int) Region.t -> Partition.t -> Partition.t

(** [image_values crd p target] where [p] partitions [crd]'s index space:
    color [c] receives the set [{crd.(i) | i in p(c)}], clipped to
    [target]. *)
val image_values : int Region.t -> Partition.t -> Iset.t -> Partition.t
