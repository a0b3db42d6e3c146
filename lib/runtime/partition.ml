type axis = Flat | Grid_dim of int

type t = {
  parent : Iset.t;
  subsets : Iset.t array;
  disjoint : bool;
  axis : axis;
}

(* Pairwise disjointness as one k-way sweep over the subsets' canonical
   intervals in order of their starts: the subsets are disjoint iff every
   interval starts after the largest end seen so far.  Within a subset the
   intervals are already disjoint and sorted, so each step only picks the
   lowest head among the colors. *)
let compute_disjoint subsets =
  let heads = Array.map Iset.to_intervals subsets in
  let k = Array.length heads in
  let rec sweep ~first reach =
    let best = ref (-1) and best_lo = ref max_int in
    for c = 0 to k - 1 do
      match heads.(c) with
      | (lo, _) :: _ when lo < !best_lo ->
          best := c;
          best_lo := lo
      | _ -> ()
    done;
    if !best < 0 then true
    else if (not first) && !best_lo <= reach then false
    else
      match heads.(!best) with
      | (_, hi) :: rest ->
          heads.(!best) <- rest;
          sweep ~first:false hi
      | [] -> true
  in
  sweep ~first:true 0

let make ?(axis = Flat) parent subsets =
  Array.iter
    (fun s ->
      if not (Iset.subset s parent) then
        Error.fail Error.Partition_eval "Partition.make: subset escapes parent")
    subsets;
  { parent; subsets; disjoint = compute_disjoint subsets; axis }

let colors t = Array.length t.subsets
let subset t c = t.subsets.(c)
let axis t = t.axis

let block_bounds lo hi pieces =
  (* [pieces] near-equal inclusive blocks covering [lo..hi]. *)
  let n = hi - lo + 1 in
  Array.init pieces (fun c ->
      let b_lo = lo + c * n / pieces and b_hi = lo + ((c + 1) * n / pieces) - 1 in
      (b_lo, b_hi))

let equal_blocks ?(axis = Flat) is pieces =
  if pieces <= 0 then
    Error.fail Error.Partition_eval "Partition.equal_blocks: %d pieces" pieces;
  if Iset.is_empty is then
    { parent = is; subsets = Array.make pieces Iset.empty; disjoint = true; axis }
  else
    let lo = Iset.min_elt is and hi = Iset.max_elt is in
    let subsets =
      Array.map
        (fun (blo, bhi) -> Iset.inter is (Iset.interval blo bhi))
        (block_bounds lo hi pieces)
    in
    { parent = is; subsets; disjoint = true; axis }

let equal_cardinality ?(axis = Flat) is pieces =
  if pieces <= 0 then
    Error.fail Error.Partition_eval "Partition.equal_cardinality: %d pieces" pieces;
  let n = Iset.cardinal is in
  let subsets =
    Array.init pieces (fun c ->
        let k_lo = c * n / pieces and k_hi = ((c + 1) * n / pieces) - 1 in
        if k_hi < k_lo then Iset.empty
        else
          (* Elements of rank k_lo..k_hi. Both ranks map to concrete elements;
             the subset is the intersection with that element interval, which
             is exact because ranks are contiguous. *)
          let e_lo = Iset.nth is k_lo and e_hi = Iset.nth is k_hi in
          Iset.inter is (Iset.interval e_lo e_hi))
  in
  { parent = is; subsets; disjoint = true; axis }

let by_bounds ?(axis = Flat) is bounds =
  let subsets =
    Array.map (fun (lo, hi) -> Iset.inter is (Iset.interval lo hi)) bounds
  in
  { parent = is; subsets; disjoint = compute_disjoint subsets; axis }

let by_bounds_strided ?(axis = Flat) is ~dim bounds =
  if dim <= 0 then Error.fail Error.Partition_eval "by_bounds_strided: dim %d" dim;
  let last = if Iset.is_empty is then -1 else Iset.max_elt is in
  let subsets =
    Array.map
      (fun (lo, hi) ->
        let ivs = ref [] in
        let base = ref 0 in
        while !base <= last do
          ivs := (!base + lo, !base + hi) :: !ivs;
          base := !base + dim
        done;
        Iset.inter is (Iset.of_intervals !ivs))
      bounds
  in
  { parent = is; subsets; disjoint = compute_disjoint subsets; axis }

(* The non-empty colors of a value-range coloring, in color order, with
   their bounds, when those ranges rise without overlap: then a value lies
   in at most one of them. *)
type rising = { live : int array; starts : int array; ends : int array }

let rising (ranges : (int * int) array) =
  let live =
    List.filter (fun c -> fst ranges.(c) <= snd ranges.(c))
      (List.init (Array.length ranges) Fun.id)
  in
  let rec rises = function
    | a :: (b :: _ as rest) -> snd ranges.(a) < fst ranges.(b) && rises rest
    | [ _ ] | [] -> true
  in
  if rises live then
    let live = Array.of_list live in
    Some
      {
        live;
        starts = Array.map (fun c -> fst ranges.(c)) live;
        ends = Array.map (fun c -> snd ranges.(c)) live;
      }
  else None

(* The index of the last of the (non-empty, ascending) [starts] at or
   before [v], or -1.  The steps are branch-free: which color a value falls
   in is as unpredictable as the values themselves. *)
let last_start (starts : int array) v =
  let base = ref 0 and len = ref (Array.length starts) in
  while !len > 1 do
    let half = !len lsr 1 in
    base := !base + (half * Bool.to_int (starts.(!base + half) <= v));
    len := !len - half
  done;
  if starts.(0) <= v then !base else -1

let by_value_ranges ?(axis = Flat) ~values is (ranges : (int * int) array) =
  if not (Iset.subset is values.Region.ispace) then
    Error.fail Error.Partition_eval
      "Partition.by_value_ranges: index space escapes %s" values.Region.name;
  let colors = Array.length ranges in
  let bs = Array.init colors (fun _ -> Iset.builder ()) in
  (* Color [c]'s open run of positions is [olo.(c)..ohi.(c)], none while
     [olo.(c) > ohi.(c)]; a position that does not extend it closes it
     into the color's builder, so [Iset] sees one call per run. *)
  let olo = Array.make colors 0 and ohi = Array.make colors (-1) in
  let hit c i =
    if ohi.(c) = i - 1 && olo.(c) <= ohi.(c) then ohi.(c) <- i
    else begin
      Iset.add_interval bs.(c) olo.(c) ohi.(c);
      olo.(c) <- i;
      ohi.(c) <- i
    end
  in
  let data : int array = values.Region.data in
  let order = rising ranges in
  (match order with
  | Some { live; starts; ends } ->
      (* A value usually falls in the color of the value before it, whose
         open run then ends just before it; only a change of color
         searches. *)
      if Array.length live > 0 then
        Iset.iter_intervals
          (fun lo hi ->
            let prev = ref (-1) in
            for i = lo to hi do
              let v = data.(i) in
              let k = !prev in
              if k >= 0 && v >= starts.(k) && v <= ends.(k) then
                ohi.(live.(k)) <- i
              else begin
                let k = last_start starts v in
                if k >= 0 && v <= ends.(k) then begin
                  hit live.(k) i;
                  prev := k
                end
                else prev := -1
              end
            done)
          is
  | None ->
      Iset.iter_intervals
        (fun lo hi ->
          for i = lo to hi do
            let v = data.(i) in
            for c = 0 to colors - 1 do
              if v >= fst ranges.(c) && v <= snd ranges.(c) then hit c i
            done
          done)
        is);
  let subsets =
    Array.mapi
      (fun c b ->
        Iset.add_interval b olo.(c) ohi.(c);
        Iset.build b)
      bs
  in
  (* Ranges that rise without overlap give each position one color. *)
  let disjoint = Option.is_some order || compute_disjoint subsets in
  { parent = is; subsets; disjoint; axis }

let union_of_colors t = Iset.union_list (Array.to_list t.subsets)
let is_complete t = Iset.equal (union_of_colors t) t.parent

let pp fmt t =
  Format.fprintf fmt "@[<v>partition (%s) of %a:@,"
    (if t.disjoint then "disjoint" else "aliased")
    Iset.pp t.parent;
  Array.iteri (fun c s -> Format.fprintf fmt "  %d -> %a@," c Iset.pp s) t.subsets;
  Format.fprintf fmt "@]"
