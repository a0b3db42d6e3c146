open Loop_ir
module Level = Spdistal_formats.Level

type ctx = { tensor : string; level : int; kind : Level.kind }
type finalized = { stmts : stmt list; up : string; down : string }

let part_name ctx suffix = Printf.sprintf "%s%d%s" ctx.tensor (ctx.level + 1) suffix
let coloring_name ctx = part_name ctx "Coloring"

let init_universe_partition ctx ~axis =
  let c = coloring_name ctx in
  (Init_coloring { coloring = c; axis }, c)

let create_universe_partition_entry _ctx ~coloring ~lo ~hi =
  Coloring_entry { coloring; lo; hi }

let finalize_universe_partition ctx ~coloring =
  match ctx.kind with
  | Level.Singleton_k ->
      (* crd parallels the parent positions: one bucketing serves both. *)
      let p = part_name ctx "CrdPart" in
      {
        stmts =
          [
            Def_partition
              {
                pname = p;
                expr = By_value_ranges { target = Crd_r (ctx.tensor, ctx.level); coloring };
              };
          ];
        up = p;
        down = p;
      }
  | Level.Dense_k when ctx.level = 0 ->
      (* P = partitionByBounds(C, dom); same partition flows up and down. *)
      let p = part_name ctx "Part" in
      {
        stmts =
          [ Def_partition { pname = p; expr = By_bounds { target = Dom_r (ctx.tensor, ctx.level); coloring } } ];
        up = p;
        down = p;
      }
  | Level.Dense_k ->
      (* Below a parent level, the dense level's position space is
         [parent * dim + coordinate]: the coordinate bounds select a slice of
         every parent's block, not a prefix of the position space (the prefix
         version silently dropped all but the first parent's positions —
         found by the fuzzer).  Upward, every parent keeps some coordinate of
         each block, which is exactly the unscaled strided partition. *)
      let p = part_name ctx "Part" in
      let pup = part_name ctx "ParentPart" in
      let dim = Dim_of_level (ctx.tensor, ctx.level) in
      {
        stmts =
          [
            Def_partition
              {
                pname = p;
                expr =
                  By_bounds_strided
                    { target = Dom_r (ctx.tensor, ctx.level); coloring; dim };
              };
            Def_partition
              { pname = pup; expr = Unscale_dense { part = p; dim } };
          ];
        up = pup;
        down = p;
      }
  | Level.Compressed_k | Level.Compressed_nonunique_k ->
      (* P_crd = partitionByValueRanges(C_crd, crd);
         P_pos = preimage(pos, P_crd, crd). *)
      let pcrd = part_name ctx "CrdPart" and ppos = part_name ctx "PosPart" in
      {
        stmts =
          [
            Def_partition
              {
                pname = pcrd;
                expr = By_value_ranges { target = Crd_r (ctx.tensor, ctx.level); coloring };
              };
            Def_partition
              {
                pname = ppos;
                expr = Preimage_range { pos = Pos_r (ctx.tensor, ctx.level); part = pcrd };
              };
          ];
        up = ppos;
        down = pcrd;
      }

let init_non_zero_partition ctx ~axis =
  let c = coloring_name ctx in
  (Init_coloring { coloring = c; axis }, c)

let create_non_zero_partition_entry _ctx ~coloring ~lo ~hi =
  Coloring_entry { coloring; lo; hi }

let finalize_non_zero_partition ctx ~coloring =
  match ctx.kind with
  | Level.Singleton_k ->
      let p = part_name ctx "CrdPart" in
      {
        stmts =
          [
            Def_partition
              {
                pname = p;
                expr = By_bounds { target = Crd_r (ctx.tensor, ctx.level); coloring };
              };
          ];
        up = p;
        down = p;
      }
  | Level.Dense_k when ctx.level = 0 ->
      let p = part_name ctx "Part" in
      {
        stmts =
          [ Def_partition { pname = p; expr = By_bounds { target = Dom_r (ctx.tensor, ctx.level); coloring } } ];
        up = p;
        down = p;
      }
  | Level.Dense_k ->
      (* Non-zero bounds are position bounds, so the downward partition is a
         plain prefix split; the upward parent partition is its unscaling
         (the parent position of dense position [p] is [p / dim]). *)
      let p = part_name ctx "Part" in
      let pup = part_name ctx "ParentPart" in
      let dim = Dim_of_level (ctx.tensor, ctx.level) in
      {
        stmts =
          [
            Def_partition
              { pname = p; expr = By_bounds { target = Dom_r (ctx.tensor, ctx.level); coloring } };
            Def_partition
              { pname = pup; expr = Unscale_dense { part = p; dim } };
          ];
        up = pup;
        down = p;
      }
  | Level.Compressed_k | Level.Compressed_nonunique_k ->
      (* P_crd = partitionByBounds(C_crd, crd);
         P_pos = preimage(pos, P_crd, crd). *)
      let pcrd = part_name ctx "CrdPart" and ppos = part_name ctx "PosPart" in
      {
        stmts =
          [
            Def_partition
              {
                pname = pcrd;
                expr = By_bounds { target = Crd_r (ctx.tensor, ctx.level); coloring };
              };
            Def_partition
              {
                pname = ppos;
                expr = Preimage_range { pos = Pos_r (ctx.tensor, ctx.level); part = pcrd };
              };
          ];
        up = ppos;
        down = pcrd;
      }

let partition_from_parent ctx ~parent =
  match ctx.kind with
  | Level.Singleton_k ->
      (* Positions are shared with the parent. *)
      let p = part_name ctx "Part" in
      ([ Def_partition { pname = p; expr = Copy_part parent } ], p)
  | Level.Dense_k ->
      (* part = copy(parentPart), rescaled into this level's position space. *)
      let p = part_name ctx "Part" in
      ( [
          Def_partition
            {
              pname = p;
              expr = Scale_dense { part = parent; dim = Dim_of_level (ctx.tensor, ctx.level) };
            };
        ],
        p )
  | Level.Compressed_k | Level.Compressed_nonunique_k ->
      (* P_pos = copy(parentPart); P_crd = image(pos, P_pos, crd). *)
      let ppos = part_name ctx "PosPart" and pcrd = part_name ctx "CrdPart" in
      ( [
          Def_partition { pname = ppos; expr = Copy_part parent };
          Def_partition
            {
              pname = pcrd;
              expr =
                Image_range
                  {
                    pos = Pos_r (ctx.tensor, ctx.level);
                    part = ppos;
                    target = Crd_r (ctx.tensor, ctx.level);
                  };
            };
        ],
        pcrd )

let partition_from_child ctx ~child =
  match ctx.kind with
  | Level.Singleton_k ->
      let p = part_name ctx "ParentPart" in
      ([ Def_partition { pname = p; expr = Copy_part child } ], p)
  | Level.Dense_k ->
      let p = part_name ctx "ParentPart" in
      ( [
          Def_partition
            {
              pname = p;
              expr = Unscale_dense { part = child; dim = Dim_of_level (ctx.tensor, ctx.level) };
            };
        ],
        p )
  | Level.Compressed_k | Level.Compressed_nonunique_k ->
      (* P_crd = copy(childPart); P_pos = preimage(pos, P_crd, crd). *)
      let ppos = part_name ctx "PosPart" and pcrd = part_name ctx "CrdPart" in
      ( [
          Def_partition { pname = pcrd; expr = Copy_part child };
          Def_partition
            {
              pname = ppos;
              expr = Preimage_range { pos = Pos_r (ctx.tensor, ctx.level); part = pcrd };
            };
        ],
        ppos )

let vals_partition ~tensor ~leaf_down =
  let p = tensor ^ "ValsPart" in
  ([ Def_partition { pname = p; expr = Copy_part leaf_down } ], p)

(* ------------------------------------------------------------------ *)
(* Compiled level iterators (paper §III-B / Chou et al.'s level
   functions): the per-kind position walk and locate functions,
   pre-resolved to closed closures over the level's storage so a compiled
   leaf loop carries no per-element format dispatch.                     *)
(* ------------------------------------------------------------------ *)

module Region = Spdistal_runtime.Region
module Error = Spdistal_runtime.Error

type level_iter = {
  li_locate : int -> int;
      (* position at this level -> its parent-level position *)
  li_iter : parent:int -> from:int -> (int -> int -> unit) -> unit;
      (* iterate [(coordinate, position)] pairs under [parent] in storage
         order, starting at position [from] ([-1] = the parent's first) *)
  li_run : parent:int -> (int -> int -> unit) -> unit;
      (* the positions under [parent] as one inclusive range [lo, hi] *)
}

let iter_of_level (l : Level.t) =
  match l with
  | Level.Dense { dim } ->
      {
        li_locate = (fun p -> p / dim);
        li_iter =
          (fun ~parent ~from emit ->
            let base = parent * dim in
            let start = if from < 0 then base else from in
            for p = start to base + dim - 1 do
              emit (p - base) p
            done);
        li_run = (fun ~parent run -> run (parent * dim) ((parent * dim) + dim - 1));
      }
  | Level.Compressed { pos; crd } ->
      let posd = pos.Region.data and crdd = crd.Region.data in
      let n = Array.length posd in
      {
        li_locate =
          (fun p ->
            (* The ranges are monotone and non-overlapping (empty parents
               are normalized to [(c, c-1)]), so binary search finds the
               unique parent whose range holds [p].  This is the [pos]
               precondition [Dependent.preimage_ranges] states and checks
               (DESIGN.md, "Dependent partitioning kernels"). *)
            let rec bs lo hi =
              if lo > hi then
                Error.fail Error.Leaf
                  "compiled level iterator: position %d outside the pos \
                   ranges of a compressed level (%d parents)"
                  p n
              else
                let mid = (lo + hi) / 2 in
                let l, h = posd.(mid) in
                if p < l then bs lo (mid - 1)
                else if p > h then bs (mid + 1) hi
                else mid
            in
            bs 0 (n - 1));
        li_iter =
          (fun ~parent ~from emit ->
            let lo, hi = posd.(parent) in
            let start = if from < 0 then lo else from in
            for p = start to hi do
              emit crdd.(p) p
            done);
        li_run =
          (fun ~parent run ->
            let lo, hi = posd.(parent) in
            run lo hi);
      }
  | Level.Singleton { crd } ->
      let crdd = crd.Region.data in
      {
        li_locate = (fun p -> p);
        li_iter =
          (fun ~parent ~from emit ->
            ignore from;
            emit crdd.(parent) parent);
        li_run = (fun ~parent run -> run parent parent);
      }
