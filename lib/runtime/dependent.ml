(* Every operator is one linear sweep over a region's backing array.  A
   source subset is checked against the region's index space once per color,
   so the inner loops index [data] directly, and results accumulate in
   [Iset.builder]s, which extend their open run in place while the sweep
   stays in order.  A preimage of ranges gives each color a cursor over its
   runs that only moves forward while the queries' starts rise, as they do
   over a CSR [pos] array, and falls back to a binary search when a query
   starts below the previous one. *)

let check_within (r : _ Region.t) op c src =
  if not (Iset.subset src r.Region.ispace) then
    Error.fail Error.Partition_eval "%s: color %d escapes the index space of %s"
      op c r.Region.name

(* A color's intervals as parallel sorted arrays, so that an interval query
   is a binary search rather than a walk down the list. *)
type runs = { los : int array; his : int array }

let runs s =
  let n = Iset.interval_count s in
  let los = Array.make n 0 and his = Array.make n 0 in
  let k = ref 0 in
  Iset.iter_intervals
    (fun lo hi ->
      los.(!k) <- lo;
      his.(!k) <- hi;
      incr k)
    s;
  { los; his }

(* The first run of [r] ending at or after [lo]. *)
let first_ending_from r lo =
  let a = ref 0 and z = ref (Array.length r.his) in
  while !a < !z do
    let m = (!a + !z) lsr 1 in
    if r.his.(m) < lo then a := m + 1 else z := m
  done;
  !a

(* [meets r lo hi] for [lo <= hi]: does the first run ending at or after
   [lo] start at or before [hi]? *)
let meets r lo hi =
  let k = first_ending_from r lo in
  k < Array.length r.his && r.los.(k) <= hi

let image_ranges (pos : (int * int) Region.t) (p : Partition.t) (target : Iset.t)
    =
  let subsets =
    Array.mapi
      (fun c src ->
        check_within pos "image_ranges" c src;
        let b = Iset.builder () in
        Iset.iter_intervals
          (fun lo hi ->
            for i = lo to hi do
              let rlo, rhi = pos.Region.data.(i) in
              Iset.add_interval b rlo rhi
            done)
          src;
        Iset.inter target (Iset.build b))
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis target subsets

(* Color [c] receives every [i] of [r]'s index space for which [hit c i]. *)
let preimage (r : _ Region.t) (p : Partition.t) hit =
  let colors = Array.length p.Partition.subsets in
  let bs = Array.init colors (fun _ -> Iset.builder ()) in
  Iset.iter_intervals
    (fun lo hi ->
      for i = lo to hi do
        for c = 0 to colors - 1 do
          if hit c i then Iset.add bs.(c) i
        done
      done)
    r.Region.ispace;
  Partition.make ~axis:p.Partition.axis r.Region.ispace (Array.map Iset.build bs)

let preimage_ranges (pos : (int * int) Region.t) (p : Partition.t) =
  let dsts = Array.map runs p.Partition.subsets in
  let colors = Array.length dsts in
  let bs = Array.init colors (fun _ -> Iset.builder ()) in
  (* Per color: [cur.(c)] is the first run ending at or after [last.(c)],
     the start of that color's previous query. *)
  let cur = Array.make colors 0 and last = Array.make colors min_int in
  let data = pos.Region.data in
  Iset.iter_intervals
    (fun ilo ihi ->
      for i = ilo to ihi do
        let lo, hi = data.(i) in
        if lo <= hi then
          for c = 0 to colors - 1 do
            let r = dsts.(c) in
            let k =
              if lo >= last.(c) then begin
                let n = Array.length r.his and k = ref cur.(c) in
                while !k < n && r.his.(!k) < lo do
                  incr k
                done;
                !k
              end
              else first_ending_from r lo
            in
            cur.(c) <- k;
            last.(c) <- lo;
            if k < Array.length r.his && r.los.(k) <= hi then Iset.add bs.(c) i
          done
      done)
    pos.Region.ispace;
  Partition.make ~axis:p.Partition.axis pos.Region.ispace (Array.map Iset.build bs)

let image_values (crd : int Region.t) (p : Partition.t) (target : Iset.t) =
  (* One byte per element of [target]'s hull, reused by every color: each
     color marks its values, then emits and clears only the span it marked. *)
  let base, marks =
    if Iset.is_empty target then (0, Bytes.empty)
    else
      let lo = Iset.min_elt target in
      (lo, Bytes.make (Iset.max_elt target - lo + 1) '\000')
  in
  let extent = Bytes.length marks in
  let subsets =
    Array.mapi
      (fun c src ->
        check_within crd "image_values" c src;
        let first = ref extent and last = ref (-1) in
        Iset.iter_intervals
          (fun lo hi ->
            for i = lo to hi do
              let k = crd.Region.data.(i) - base in
              if k >= 0 && k < extent then begin
                Bytes.unsafe_set marks k '\001';
                if k < !first then first := k;
                if k > !last then last := k
              end
            done)
          src;
        let b = Iset.builder () in
        let k = ref !first in
        while !k <= !last do
          if Bytes.unsafe_get marks !k = '\000' then incr k
          else begin
            let start = !k in
            while !k <= !last && Bytes.unsafe_get marks !k <> '\000' do
              Bytes.unsafe_set marks !k '\000';
              incr k
            done;
            Iset.add_interval b (base + start) (base + !k - 1)
          end
        done;
        Iset.inter target (Iset.build b))
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis target subsets

let preimage_values (crd : int Region.t) (p : Partition.t) =
  let dsts = Array.map runs p.Partition.subsets in
  preimage crd p (fun c i ->
      let v = crd.Region.data.(i) in
      meets dsts.(c) v v)
