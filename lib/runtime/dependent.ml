(* Every operator pays per run, not per entry and color.  The loops over
   entries keep their state in locals that no closure captures, and call
   into [Iset] once per run they emit.  A source subset is checked against
   the region's index space once per color, so the inner loops index
   [data] directly. *)

let check_within (r : _ Region.t) op c src =
  if not (Iset.subset src r.Region.ispace) then
    Error.fail Error.Partition_eval "%s: color %d escapes the index space of %s"
      op c r.Region.name

(* The first entry from [i] on that does not start just past [rhi] with a
   non-empty range, or [e + 1] if every entry up to [e] does.  Ranges that
   tile, as a compressed level's do, stay in this loop, which makes no
   call. *)
let rec skip_tiled (data : (int * int) array) e rhi i =
  if i > e then i
  else
    let lo, hi = data.(i) in
    if lo = rhi + 1 && hi >= lo then skip_tiled data e hi (i + 1) else i

(* [union_ranges b data rlo rhi runs] adds the union of the ranges
   [data.(i)], [i] in [runs], to [b].  [rlo..rhi] is the union's open run
   (none while [rlo > rhi]): a range that starts inside it or just past it
   extends it, any other closes it into [b].  Ranges that tile cost one
   [Iset] call per source run. *)
let rec union_ranges b (data : (int * int) array) rlo rhi = function
  | [] -> Iset.add_interval b rlo rhi
  | (s, e) :: rest ->
      let rlo = ref rlo and rhi = ref rhi and i = ref s in
      while !i <= e do
        let j = skip_tiled data e !rhi !i in
        if j > !i then begin
          if !rlo > !rhi then rlo := fst data.(!i);
          rhi := snd data.(j - 1)
        end;
        i := j;
        if j <= e then begin
          let lo, hi = data.(j) in
          if lo <= hi then
            if lo >= !rlo && lo <= !rhi + 1 then (if hi > !rhi then rhi := hi)
            else begin
              Iset.add_interval b !rlo !rhi;
              rlo := lo;
              rhi := hi
            end;
          incr i
        end
      done;
      union_ranges b data !rlo !rhi rest

let image_ranges (pos : (int * int) Region.t) (p : Partition.t) (target : Iset.t)
    =
  let subsets =
    Array.mapi
      (fun c src ->
        check_within pos "image_ranges" c src;
        let b = Iset.builder () in
        union_ranges b pos.Region.data 0 (-1) (Iset.to_intervals src);
        Iset.inter target (Iset.build b))
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis target subsets

(* The scan tests each entry it visits against the [pos] precondition
   (stated in the interface) inline, and calls this on a violation. *)
let disorder (pos : (int * int) Region.t) i prev_hi lo hi =
  Error.fail Error.Partition_eval
    "preimage_ranges: %s.(%d) = (%d, %d) breaks the pos order (after an \
     entry ending at %d)"
    pos.Region.name i lo hi prev_hi

(* The first entry in [j..e] whose range ends at or after [a], or [e + 1]:
   a gallop from [j], then a binary search inside its last step.  Ends do
   not fall, so every entry past the first hit ends at or after [a] too. *)
let first_ending_from (data : (int * int) array) a j e =
  if snd data.(j) >= a then j
  else begin
    (* Entry [lo] ends before [a]; the answer lies in [lo + 1 .. hi]. *)
    let lo = ref j and hi = ref (e + 1) and step = ref 1 in
    while !lo + !step < !hi do
      let m = !lo + !step in
      if snd data.(m) >= a then hi := m
      else begin
        lo := m;
        step := 2 * !step
      end
    done;
    while !hi - !lo > 1 do
      let m = (!lo + !hi) lsr 1 in
      if snd data.(m) >= a then hi := m else lo := m
    done;
    !hi
  end

(* The first entry from [i] on that is not a non-empty range starting
   after [prev] ends and at or before [z], or [e + 1] if every entry up to
   [e] is.  The common case of a scan, in a loop that makes no call. *)
let rec skip_filled (data : (int * int) array) z e prev i =
  if i > e then i
  else
    let lo, hi = data.(i) in
    if lo <= z && lo > prev && lo <= hi then skip_filled data z e hi (i + 1)
    else i

(* One color of a preimage of ranges.  [spans] are the index space's
   intervals, and the cursor is entry [j] of span [k]: no entry before it
   ends at or after the start of a source run still to come.  For each
   source run [a..z], seek the first entry ending at or after [a], then
   scan while entries start at or before [z].  Every non-empty entry
   scanned meets the run, and each stretch of them becomes one interval. *)
let preimage_color b (pos : (int * int) Region.t) (spans : (int * int) array)
    runs =
  let data = pos.Region.data and nspans = Array.length spans in
  let k = ref 0 and j = ref (if nspans = 0 then 0 else fst spans.(0)) in
  List.iter
    (fun (a, z) ->
      let seeking = ref true in
      while !seeking && !k < nspans do
        let e = snd spans.(!k) in
        j := first_ending_from data a !j e;
        if !j <= e then seeking := false
        else begin
          incr k;
          if !k < nspans then j := fst spans.(!k)
        end
      done;
      (* [s] opens the current stretch (none while negative), and [prev]
         is the end of the last entry scanned. *)
      let kk = ref !k and i = ref !j and s = ref (-1) and prev = ref min_int in
      let stop = ref false in
      while (not !stop) && !kk < nspans do
        let e = snd spans.(!kk) in
        while (not !stop) && !i <= e do
          let start = !i in
          i := skip_filled data z e !prev start;
          if !i > start then begin
            if !s < 0 then s := start;
            prev := snd data.(!i - 1)
          end;
          if !i <= e then begin
            let lo, hi = data.(!i) in
            if lo > z then stop := true
            else begin
              (* Not a filled range in order: an empty one, which closes
                 the stretch, or a violation. *)
              if lo <= !prev || hi < lo - 1 then disorder pos !i !prev lo hi;
              if !s >= 0 then Iset.add_interval b !s (!i - 1);
              s := -1;
              prev := hi;
              incr i
            end
          end
        done;
        if !s >= 0 then Iset.add_interval b !s (!i - 1);
        s := -1;
        if not !stop then begin
          incr kk;
          if !kk < nspans then i := fst spans.(!kk)
        end
      done)
    runs

let preimage_ranges (pos : (int * int) Region.t) (p : Partition.t) =
  let spans = Array.of_list (Iset.to_intervals pos.Region.ispace) in
  let subsets =
    Array.map
      (fun dst ->
        let b = Iset.builder () in
        preimage_color b pos spans (Iset.to_intervals dst);
        Iset.build b)
      p.Partition.subsets
  in
  Partition.make ~axis:p.Partition.axis pos.Region.ispace subsets

(* [mark data marks base span lo hi] marks [data.(i) - base] in [marks]
   for every [i] in [lo..hi] whose value lies in the map, and widens
   [span], the lowest and highest offsets the color has marked
   ([[|0; -1|]] before the first), to cover them.  A value inside the span
   costs one unchecked load, one test and one store; only a value outside
   it is tested against the map and moves the span.  The caller has
   checked [lo..hi] against the region's index space. *)
let mark (data : int array) marks base (span : int array) lo hi =
  let extent = Bytes.length marks in
  let first = ref span.(0) and last = ref span.(1) in
  for i = lo to hi do
    let k = Array.unsafe_get data i - base in
    if k >= !first && k <= !last then Bytes.unsafe_set marks k '\001'
    else if k >= 0 && k < extent then begin
      Bytes.unsafe_set marks k '\001';
      if !last < !first then begin
        first := k;
        last := k
      end
      else if k < !first then first := k
      else last := k
    end
  done;
  span.(0) <- !first;
  span.(1) <- !last

let image_values (crd : int Region.t) (p : Partition.t) (target : Iset.t) =
  (* One byte per element of [target]'s hull, reused by every color: each
     color marks its values, then emits and clears only the span it marked. *)
  let base, marks =
    if Iset.is_empty target then (0, Bytes.empty)
    else
      let lo = Iset.min_elt target in
      (lo, Bytes.make (Iset.max_elt target - lo + 1) '\000')
  in
  let span = [| 0; -1 |] in
  let subsets =
    Array.mapi
      (fun c src ->
        check_within crd "image_values" c src;
        span.(0) <- 0;
        span.(1) <- -1;
        Iset.iter_intervals (mark crd.Region.data marks base span) src;
        let last = span.(1) in
        let b = Iset.builder () in
        let k = ref span.(0) in
        while !k <= last do
          if Bytes.unsafe_get marks !k = '\000' then incr k
          else begin
            let start = !k in
            while !k <= last && Bytes.unsafe_get marks !k <> '\000' do
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
