(* Compiled leaf kernels: one leaf compiler from the level functions.

   The interpreter ({!Leaf}) walks a per-launch coordinate expansion and
   re-dispatches on the kernel shape per element; it stays the differential
   oracle (`spdistal fuzz` checks the two for bit-identical outputs and
   Cost), and both share {!Leaf.plan_mul} and {!Leaf.mul_work}.

   A product leaf is a segment walker and one of three loop bodies.  The
   walker is staged from the driver's levels through {!Level_funcs}: each
   leaf parent (level [ord - 2]) holds one run of leaf positions
   ([li_run]), and a body receives spans of consecutive runs.  Every index
   of a factor or the output is affine in the outer coordinates, the leaf
   parent's, the leaf's and the inner variable.  The body is chosen from
   the plan and the levels its variables are stored at, never from the
   level kinds: held (no inner reduction, output cells fixed across a run,
   one factor or two whose first does not read the leaf: SpMV, SpMM,
   SpTTV, SpMTTKRP), dot (an inner reduction over two factors contiguous
   in [k], the first not reading the leaf; SDDMM's [D(k,j)] is read through
   a transposed copy) and affine (everything else).

   Bit-identity: each output cell receives the interpreter's products,
   folded left to right from the scale and then multiplied by the stored
   value, added in storage order to the cell's value.  Only the
   interleaving across distinct cells changes, which is why no input may
   share storage with the output ([Interp.run] refuses it).  No float
   crosses a closure call, so no body allocates per element.

   A compiled leaf holds structure; each [launch] resolves its data from
   the bindings, so one leaf serves every context with the same pattern
   and shapes.  Walk state is per piece, as pieces run concurrently; the
   dot body's transposed factor is the leaf's one buffer, rewritten by
   each launch (launches of one leaf never overlap: [Interp.run] runs them
   in turn, {!Cache} on one domain) and read-only for pieces. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
module A1 = Bigarray.Array1

(* ------------------------------------------------------------------ *)
(* Backend selector                                                     *)
(* ------------------------------------------------------------------ *)

type backend = Interp | Compiled

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "interp" | "interpreter" -> Ok Interp
  | "compiled" | "compile" -> Ok Compiled
  | other ->
      Error
        (Printf.sprintf "unknown leaf backend %S (expected interp or compiled)"
           other)

let backend_name = function Interp -> "interp" | Compiled -> "compiled"

let backend_override : backend option ref = ref None
let set_backend b = backend_override := Some b

let default_backend () = Option.value !backend_override ~default:Compiled

(* ------------------------------------------------------------------ *)
(* Compiled form                                                        *)
(* ------------------------------------------------------------------ *)

(* An index into a dense factor or the output: [coords.(d0)·m0 +
   coords.(d1)·m1 (+ lvlpos.(lvl))] over the levels above the leaf parent,
   fixed for a span; [pc·pm + p·pp] for the leaf parent's coordinate and
   position; [c·leaf + q·pos] for the leaf's; [v·stride] for the inner
   variable.  An unused term has multiplier 0 ([lvl = -1]). *)
type affine = { d0 : int; m0 : int; d1 : int; m1 : int; lvl : int; pm : int; pp : int;
  leaf : int; pos : int; stride : int }

let zero =
  { d0 = 0; m0 = 0; d1 = 0; m1 = 0; lvl = -1; pm = 0; pp = 0; leaf = 0; pos = 0; stride = 0 }

(* The index [Σ mult·src] of [(src, mult)] terms, for a driver whose
   logical dimension [d] is stored at level [level.(d)]. *)
let affine ~level terms =
  let ord = Array.length level in
  let sum keep = List.fold_left (fun s (src, m) -> if keep src then s + m else s) 0 terms in
  let at k = sum (function Leaf.Driver_dim d -> level.(d) = k | _ -> false) in
  let up = function Leaf.Driver_dim d, m when level.(d) < ord - 2 -> Some (d, m) | _ -> None in
  let outer = List.filter_map up terms @ [ (0, 0); (0, 0) ] in
  let (d0, m0), (d1, m1) = (List.nth outer 0, List.nth outer 1) in
  { zero with d0; m0; d1; m1; pm = at (ord - 2); leaf = at (ord - 1);
    stride = sum (function Leaf.Driver_dim _ -> false | _ -> true) }

let factor_terms = function
  | Leaf.F_vec (_, s) -> [ (s, 1) ]
  | Leaf.F_mat (_, cols, sr, sc) -> [ (sr, cols); (sc, 1) ]

(* The part of an index fixed while the walker is inside one span. *)
let[@inline] upper coords lvlpos a =
  if a.m0 = 0 && a.m1 = 0 && a.lvl < 0 then 0
  else (coords.(a.d0) * a.m0) + (coords.(a.d1) * a.m1) + if a.lvl < 0 then 0 else lvlpos.(a.lvl)

(* The loop a product leaf runs (see the header); a held leaf whose output
   reads the leaf parent holds each parent's cells separately ([split]). *)
type body = Held of { split : bool } | Dot | Affine

let choose ~level (plan : Leaf.plan) =
  let ord = Array.length level and fs = plan.Leaf.pl_factors in
  let reads k = List.exists (function Leaf.Driver_dim d -> level.(d) = k | _ -> false) in
  let stride v f = List.fold_left (fun s (x, m) -> if x = v then s + m else s) 0 (factor_terms f) in
  let nf = Array.length fs and inner_out = plan.Leaf.pl_inner_out in
  let free f = not (reads (ord - 1) (List.map fst (factor_terms f))) in
  let first_free = nf = 1 || (nf = 2 && free fs.(0)) in
  let sink_fixed, split =
    match plan.Leaf.pl_sink with
    | Leaf.Sp_vec s -> (not (reads (ord - 1) [ s ]), reads (ord - 2) [ s ])
    | Leaf.Sp_mat (sr, sc) -> (not (reads (ord - 1) [ sr; sc ]), reads (ord - 2) [ sr; sc ])
    | Leaf.Sp_sparse None -> (false, false)
    | Leaf.Sp_sparse (Some lvl) -> (not inner_out, lvl = ord - 2)
  in
  match (inner_out, plan.Leaf.pl_inner_red) with
  | _, false
    when first_free && sink_fixed && ((not inner_out) || stride Leaf.Inner_out fs.(nf - 1) = 1) ->
      Held { split }
  | false, true when first_free && nf = 2 && stride Leaf.Inner_red fs.(0) = 1 -> (
      match fs.(1) with
      | Leaf.F_mat (_, _, Leaf.Inner_red, Leaf.Driver_dim _) -> Dot
      | f -> if stride Leaf.Inner_red f = 1 then Dot else Affine)
  | _ -> Affine

(* How to walk one driver's storage, staged from its levels. *)
type walk = {
  w_levels : Level.t array;  (* the level storage this walk was derived from *)
  w_mode : int array;  (* the mode order: each level's logical dimension *)
  w_level : int array;  (* each logical dimension's storage level *)
  w_iters : Level_funcs.level_iter array;
  w_pcrd : int array;  (* each leaf parent's coordinate *)
  w_pos : (int * int) array;  (* each leaf parent's leaf positions [(lo, hi)] *)
  w_crd : int array;  (* each leaf position's coordinate *)
  w_rising : bool;  (* dim 0 at the leaf, rising in each run: tallied per run (CSC SpMV +11%) *)
}

(* The coordinates of a level's [n] positions: its crd, or [p mod dim]. *)
let coords_of (level : Level.t) n =
  match level with
  | Level.Compressed { crd; _ } | Level.Singleton { crd } -> crd.Region.data
  | Level.Dense { dim } -> Array.init n (fun p -> p mod dim)

let walk_of (driver : Tensor.t) =
  let levels = driver.Tensor.levels and mode = driver.Tensor.mode_order in
  let ord = Array.length levels and level = Array.make (Array.length mode) 0 in
  Array.iteri (fun k d -> level.(d) <- k) mode;
  let iters = Array.map Level_funcs.iter_of_level levels and ext = Tensor.level_extent driver in
  let parents = if ord = 1 then 1 else ext (ord - 2) and run = ref (0, -1) in
  (* A compressed leaf's ranges are read in place, other kinds' staged. *)
  let pos =
    match levels.(ord - 1) with
    | Level.Compressed { pos; _ } -> pos.Region.data
    | _ ->
        let set lo hi = run := (lo, hi) in
        Array.init parents (fun p -> iters.(ord - 1).Level_funcs.li_run ~parent:p set; !run)
  in
  let crd = coords_of levels.(ord - 1) (ext (ord - 1)) in
  let rising = ref (level.(0) = ord - 1) and p = ref 0 in
  for q = 1 to if !rising then Array.length crd - 1 else 0 do
    while snd pos.(!p) < q - 1 do incr p done;
    if snd pos.(!p) >= q && crd.(q) <= crd.(q - 1) then rising := false
  done;
  { w_levels = levels; w_mode = mode; w_level = level; w_iters = iters; w_pos = pos; w_crd = crd;
    w_pcrd = (if ord = 1 then [| 0 |] else coords_of levels.(ord - 2) parents);
    w_rising = !rising }

type mul = {
  m_plan : Leaf.plan;
  m_body : body;
  m_faff : affine array;  (* factor indices, in plan order (dot: as read) *)
  m_dims : int array;  (* the driver's dimensions *)
  m_nnz : int;  (* the driver's stored values *)
  m_flens : int array;  (* the factors' storage lengths, in plan order *)
  m_out_len : int;  (* the output's storage length *)
  m_walk : walk;  (* of the driver the leaf was compiled against *)
  mutable m_dt : float array;  (* dot: the transposed factor, reused by every launch *)
}

(* A merge with [g_cursor] runs {!merge_cursor}, else {!Leaf.merge_core}. *)
type kind =
  | C_mul of mul
  | C_merge of { g_tensors : string list; g_use_workspace : bool; g_cursor : bool }

(* [bindings]: the ones the leaf was compiled against, the launch default. *)
type t = { bindings : Operand.bindings; kind : kind }

let data_length = function
  | Operand.Vec v -> Array.length v.Dense.data
  | Operand.Mat m -> Array.length m.Dense.data
  | Operand.Sparse t -> Tensor.nnz t

(* The rows of a matrix of [cols] columns stored in [len] cells. *)
let rows_of ~len cols = if cols = 0 then 0 else len / cols

let compile ~bindings (leaf : Loop_ir.leaf) =
  let kind =
    match leaf.Loop_ir.driver with
    | Loop_ir.Merge_driver tensors ->
        let use_workspace = leaf.Loop_ir.use_workspace and arity = List.length tensors in
        C_merge
          { g_tensors = tensors; g_use_workspace = use_workspace;
            g_cursor = (not use_workspace) && (arity = 2 || arity = 3) }
    | Loop_ir.Sparse_driver driver_name ->
        let plan = Leaf.plan_mul ~bindings ~leaf ~driver_name in
        let driver = Operand.find_sparse bindings driver_name in
        let walk = walk_of driver in
        let level = walk.w_level and body = choose ~level:walk.w_level plan in
        let flens = Array.map Array.length (Leaf.factor_data ~bindings plan) in
        let index f fac =
          match (body, fac) with
          | Dot, Leaf.F_mat (_, cols, Leaf.Inner_red, c) when f = 1 ->
              affine ~level [ (c, rows_of ~len:flens.(f) cols); (Leaf.Inner_red, 1) ]
          | _ -> affine ~level (factor_terms fac)
        in
        C_mul
          { m_plan = plan; m_body = body; m_faff = Array.mapi index plan.Leaf.pl_factors;
            m_dims = Array.copy driver.Tensor.dims; m_nnz = Tensor.nnz driver; m_flens = flens;
            m_out_len = data_length (Operand.find bindings plan.Leaf.pl_out_name).Operand.data;
            m_walk = walk; m_dt = [||] }
  in
  { bindings; kind }

type out = Out_dense of float array | Out_sparse of Region.F.buf

(* What one launch resolves from its bindings. *)
type launch = {
  l_walk : walk;
  l_dvals : Region.F.buf;  (* the driver's values *)
  l_fdata : float array array;  (* factor storage, in plan order (dot: as read) *)
  l_out : out;
  l_oaff : affine;  (* the output's index *)
}

let shape_changed ?(what = "output slot") (plan : Leaf.plan) =
  Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf "compiled leaf: %s changed shape" what

(* [D] transposed, [dt.(col·rows + k) = d.(k·cols + col)], in 32×32 tiles
   so both sides stay in cache, into the leaf's own buffer. *)
let transposed (m : mul) d ~rows ~cols =
  if Array.length m.m_dt <> rows * cols then m.m_dt <- Array.create_float (rows * cols);
  let dt = m.m_dt in
  for r0 = 0 to (rows - 1) / 32 do
    for c0 = 0 to (cols - 1) / 32 do
      for col = 32 * c0 to Int.min cols ((32 * c0) + 32) - 1 do
        for k = 32 * r0 to Int.min rows ((32 * r0) + 32) - 1 do
          Array.unsafe_set dt ((col * rows) + k) (Array.unsafe_get d ((k * cols) + col))
        done
      done
    done
  done;
  dt

(* The held and dot bodies read factors unchecked, so every operand must
   still have the shape the leaf was compiled for ({!Leaf.plan_mul} ties
   those shapes to the driver's dimensions); the driver's pattern must be
   the compiled one's, which the cache key guarantees. *)
let resolve (m : mul) ~bindings =
  let plan = m.m_plan and level = m.m_walk.w_level in
  let driver = Operand.find_sparse bindings plan.Leaf.pl_driver_name in
  if driver.Tensor.dims <> m.m_dims || driver.Tensor.mode_order <> m.m_walk.w_mode
     || Tensor.nnz driver <> m.m_nnz
  then shape_changed ~what:"driver" plan;
  let fdata = Leaf.factor_data ~bindings plan in
  Array.iteri
    (fun f d -> if Array.length d <> m.m_flens.(f) then shape_changed ~what:"factor" plan)
    fdata;
  (match (m.m_body, plan.Leaf.pl_factors) with
  | Dot, [| _; Leaf.F_mat (_, cols, Leaf.Inner_red, _) |] ->
      fdata.(1) <- transposed m fdata.(1) ~rows:(rows_of ~len:m.m_flens.(1) cols) ~cols
  | _ -> ());
  let data = (Operand.find bindings plan.Leaf.pl_out_name).Operand.data in
  if data_length data <> m.m_out_len then shape_changed plan;
  let ord = Array.length level in
  let out, oaff =
    match (data, plan.Leaf.pl_sink) with
    | Operand.Vec v, Leaf.Sp_vec s -> (Out_dense v.Dense.data, affine ~level [ (s, 1) ])
    | Operand.Mat mt, Leaf.Sp_mat (sr, sc) ->
        (Out_dense mt.Dense.data, affine ~level [ (sr, mt.Dense.cols); (sc, 1) ])
    | Operand.Sparse ot, Leaf.Sp_sparse lvl ->
        ( Out_sparse ot.Tensor.vals.Region.F.data,
          match lvl with
          | None -> { zero with pos = 1 }
          | Some lvl when lvl = ord - 2 -> { zero with pp = 1 }
          | Some lvl -> { zero with lvl } )
    | _ -> shape_changed plan
  in
  { l_walk = (if driver.Tensor.levels == m.m_walk.w_levels then m.m_walk else walk_of driver);
    l_dvals = driver.Tensor.vals.Region.F.data; l_fdata = fdata; l_out = out; l_oaff = oaff }

(* ------------------------------------------------------------------ *)
(* Segment walker and loop bodies                                       *)
(* ------------------------------------------------------------------ *)

exception Past_end

(* [walk_shard] hands [span p0 p1 lo hi] the shard's leaf positions
   [lo..hi], held by the leaf parents [p0..p1] of one grandparent, with
   [coords] (by dimension) and [lvlpos] (by level) set above them; parent
   [r]'s run is its [w_pos] range clipped to [lo..hi].  An
   interval may start or end inside a parent (non-zero schedules cut rows
   and fibers), so it seeks its first position's spine with [li_locate],
   then scans each grandparent's parents ([li_run]) up to the one that
   reaches its end.  Returns {!Leaf.mul_work}'s [nnz] and [rows_touched]
   (the changes of dimension 0 in storage order, wherever it is stored). *)
let walk_shard w shard ~npos ~coords ~lvlpos span =
  let iters = w.w_iters and pcrd = w.w_pcrd and pos = w.w_pos and crd = w.w_crd in
  let ord = Array.length iters in
  let pl = ord - 2 and row_level = w.w_level.(0) and mo = w.w_mode in
  let path = Array.make ord 0 and cur = ref 0 and phi = ref 0 in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  let parents p0 p1 =
    (* Locals, so the scan runs in registers. *)
    let first = Int.max p0 (if pl < 0 then 0 else path.(pl)) and lo = !cur and ph = !phi in
    let c = ref lo and p = ref first and last = ref !last_row and n = ref 0 in
    while !c <= ph && !p <= p1 do
      let e = Int.min (snd pos.(!p)) ph in
      if w.w_rising && e >= !c then begin
        n := !n + (e - !c) + if Array.unsafe_get crd !c = !last then 0 else 1;
        last := Array.unsafe_get crd e
      end
      else if row_level = ord - 1 then
        for q = !c to e do
          if Array.unsafe_get crd q <> !last then (incr n; last := Array.unsafe_get crd q)
        done
      else if e >= !c then begin
        let r = if row_level = pl then Array.unsafe_get pcrd !p else coords.(0) in
        if r <> !last then (incr n; last := r)
      end;
      c := Int.max !c (e + 1);
      incr p
    done;
    cur := !c;
    last_row := !last;
    rows_touched := !rows_touched + !n;
    if !c > lo then span first (!p - 1) lo (!c - 1);
    if !c > ph then raise_notrace Past_end
  in
  (* The emit closure of each level above the leaf parent, built once per
     piece: it descends, resuming at the spine on an interval's first. *)
  let rec emit kk =
    let next = if kk = pl - 1 then fun _ _ -> () else emit (kk + 1) in
    fun c p ->
      coords.(mo.(kk)) <- c;
      lvlpos.(kk) <- p;
      if kk = pl - 1 then iters.(pl).Level_funcs.li_run ~parent:p parents
      else
        let from = if p = path.(kk) then path.(kk + 1) else -1 in
        iters.(kk + 1).Level_funcs.li_iter ~parent:p ~from next
  in
  let top = if pl > 0 then emit 0 else fun _ _ -> () in
  Iset.iter_intervals
    (fun lo hi ->
      if lo < 0 || hi >= npos then
        Error.fail Error.Leaf "compiled leaf: positions %d..%d outside the driver's %d" lo hi
          npos;
      nnz := !nnz + (hi - lo + 1);
      cur := lo;
      phi := hi;
      path.(ord - 1) <- lo;
      for kk = ord - 2 downto 0 do
        path.(kk) <- iters.(kk + 1).Level_funcs.li_locate path.(kk + 1)
      done;
      try
        if pl < 0 then parents 0 0
        else if pl = 0 then iters.(0).Level_funcs.li_run ~parent:0 parents
        else iters.(0).Level_funcs.li_iter ~parent:0 ~from:path.(0) top
      with Past_end -> ())
    shard;
  (!nnz, !rows_touched)

let[@inline] uload out o =
  match out with Out_dense d -> Array.unsafe_get d o | Out_sparse d -> A1.unsafe_get d o

let[@inline] ustore out o v =
  match out with Out_dense d -> Array.unsafe_set d o v | Out_sparse d -> A1.unsafe_set d o v

let[@inline] add out o y =
  match out with
  | Out_dense d -> d.(o) <- d.(o) +. y
  | Out_sparse d -> A1.set d o (A1.get d o +. y)

let out_of len =
  Error.fail Error.Leaf "compiled leaf: output cells outside an array of length %d" len

(* The factor a held body folds into [s] when a plan has one factor. *)
let one = [| 1. |]

(* Held: the output cells of a group of runs (the span, or with [split]
   each parent's run) stay in registers across the group and are stored
   once: four inner columns at a time, then one at a time for the rest
   (every column of a plan without an inner variable).  Each element adds
   [dv·(s·f)], [s = scale·f0] computed once per run and column ([f0 = 1.]
   for a one-factor plan, exact): the interpreter's [dv·((scale·f0)·f)].
   The one-column loop keeps a copy that reads a factor at the leaf
   coordinate without a multiply: CSR SpMV runs about 11% faster with it
   (2.42 vs 2.70 ns/nnz on the leaf bench's banded matrix).  A one-factor
   plan of scale exactly [1.] has [s = 1.], and [1.·f = f] for every float,
   so its blocks and that copy add [dv·f] and skip a multiply. *)
let held (m : mul) (l : launch) ~split ~coords ~lvlpos ~jlo ~jhi =
  let plan = m.m_plan and w = l.l_walk in
  let out = l.l_out and oa = l.l_oaff and dvals = l.l_dvals and scale = plan.Leaf.pl_scale in
  let pcrd = w.w_pcrd and pos = w.w_pos and crd = w.w_crd and nf = Array.length l.l_fdata in
  let p, pa = if nf = 2 then (l.l_fdata.(0), m.m_faff.(0)) else (one, zero) in
  let unit_scale = nf = 1 && Float.equal scale 1. in
  let f = l.l_fdata.(nf - 1) and fa = m.m_faff.(nf - 1) in
  let tlo, thi = if plan.Leaf.pl_inner_out then (jlo, jhi) else (0, 0) in
  let os = oa.stride and ps = pa.stride and fs = fa.stride and fl = fa.leaf in
  let ps2 = 2 * ps and ps3 = 3 * ps and opm = oa.pm and opp = oa.pp and ppm = pa.pm in
  let fpm = fa.pm and tmid = tlo + (4 * ((thi - tlo + 1) / 4)) in
  let olen = match out with Out_dense d -> Array.length d | Out_sparse d -> A1.dim d in
  (* Blocks exist only for an inner output, which is dense. *)
  let od = match out with Out_dense d -> d | Out_sparse _ -> [||] and ob = (tmid - 1) * os in
  fun p0 p1 lo hi ->
    let ou = upper coords lvlpos oa and pu = upper coords lvlpos pa in
    let fu = upper coords lvlpos fa and g = ref (if tmid > tlo then p0 else p1 + 1) in
    while !g <= p1 do
      let ga = !g in
      let gb = if split then ga else p1 in
      g := gb + 1;
      let o0 = ou + (Array.unsafe_get pcrd ga * opm) + (ga * opp) in
      if tlo < 0 || o0 + (tlo * os) < 0 || o0 + ob >= Array.length od then out_of olen;
      for b = 0 to ((tmid - tlo) / 4) - 1 do
        let t0 = tlo + (4 * b) in
        let o = o0 + (t0 * os) and pt = pu + (t0 * ps) and ft = fu + t0 in
        let a0 = ref (Array.unsafe_get od o) and a1 = ref (Array.unsafe_get od (o + os))
        and a2 = ref (Array.unsafe_get od (o + (2 * os)))
        and a3 = ref (Array.unsafe_get od (o + (3 * os))) in
        if unit_scale then
          for r = ga to gb do
            let rlo, rhi = Array.unsafe_get pos r in
            let fb = ft + (Array.unsafe_get pcrd r * fpm) in
            let qlo = if r = p0 then lo else rlo and qhi = Int.min rhi hi in
            for q = qlo to qhi do
              let dv = A1.unsafe_get dvals q and b = fb + (Array.unsafe_get crd q * fl) in
              a0 := !a0 +. (dv *. Array.unsafe_get f b);
              a1 := !a1 +. (dv *. Array.unsafe_get f (b + 1));
              a2 := !a2 +. (dv *. Array.unsafe_get f (b + 2));
              a3 := !a3 +. (dv *. Array.unsafe_get f (b + 3))
            done
          done
        else
          for r = ga to gb do
            let c = Array.unsafe_get pcrd r in
            let rlo, rhi = Array.unsafe_get pos r in
            let fb = ft + (c * fpm) and qlo = if r = p0 then lo else rlo and qhi = Int.min rhi hi in
            let pb = pt + (c * ppm) in
            let s0 = scale *. Array.unsafe_get p pb
            and s1 = scale *. Array.unsafe_get p (pb + ps)
            and s2 = scale *. Array.unsafe_get p (pb + ps2)
            and s3 = scale *. Array.unsafe_get p (pb + ps3) in
            for q = qlo to qhi do
              let dv = A1.unsafe_get dvals q and b = fb + (Array.unsafe_get crd q * fl) in
              a0 := !a0 +. (dv *. (s0 *. Array.unsafe_get f b));
              a1 := !a1 +. (dv *. (s1 *. Array.unsafe_get f (b + 1)));
              a2 := !a2 +. (dv *. (s2 *. Array.unsafe_get f (b + 2)));
              a3 := !a3 +. (dv *. (s3 *. Array.unsafe_get f (b + 3)))
            done
          done;
        Array.unsafe_set od o !a0;
        Array.unsafe_set od (o + os) !a1;
        Array.unsafe_set od (o + (2 * os)) !a2;
        Array.unsafe_set od (o + (3 * os)) !a3
      done
    done;
    for t = tmid to thi do
      let pt = pu + (t * ps) and ft = fu + (t * fs) and g = ref p0 in
      while !g <= p1 do
        let ga = !g in
        let gb = if split then ga else p1 in
        g := gb + 1;
        let o = ou + (Array.unsafe_get pcrd ga * opm) + (ga * opp) + (t * os) in
        if t < 0 || o < 0 || o >= olen then out_of olen;
        let acc = ref (uload out o) in
        for r = ga to gb do
          let c = Array.unsafe_get pcrd r in
          let s = scale *. Array.unsafe_get p (pt + (c * ppm)) in
          let rlo, rhi = Array.unsafe_get pos r in
          let fb = ft + (c * fpm) and qlo = if r = p0 then lo else rlo and qhi = Int.min rhi hi in
          if fl = 1 && unit_scale then
            for q = qlo to qhi do
              let x = Array.unsafe_get f (fb + Array.unsafe_get crd q) in
              acc := !acc +. (A1.unsafe_get dvals q *. x)
            done
          else if fl = 1 then
            for q = qlo to qhi do
              let x = Array.unsafe_get f (fb + Array.unsafe_get crd q) in
              acc := !acc +. (A1.unsafe_get dvals q *. (s *. x))
            done
          else
            for q = qlo to qhi do
              let x = Array.unsafe_get f (fb + (Array.unsafe_get crd q * fl)) in
              acc := !acc +. (A1.unsafe_get dvals q *. (s *. x))
            done
        done;
        ustore out o !acc
      done
    done

(* Dot: each leaf position adds [dv·Σk (scale·f0(k))·f1(k)] to its cell,
   four positions of a run at a time so [f0]'s loads serve all four, then
   one at a time.  Each sum runs over [k] upward from [0.], and the cells
   take their additions in position order. *)
let dot (m : mul) (l : launch) ~coords ~lvlpos =
  let plan = m.m_plan and w = l.l_walk in
  let out = l.l_out and oa = l.l_oaff and dvals = l.l_dvals and scale = plan.Leaf.pl_scale in
  let pcrd = w.w_pcrd and pos = w.w_pos and crd = w.w_crd in
  let c = l.l_fdata.(0) and d = l.l_fdata.(1) and ca = m.m_faff.(0) and da = m.m_faff.(1) in
  let dl = da.leaf and klo, khi = Leaf.k_bounds plan in
  let[@inline] cell ob q = ob + (Array.unsafe_get crd q * oa.leaf) + (q * oa.pos) in
  fun p0 p1 lo hi ->
    let cu = upper coords lvlpos ca and du = upper coords lvlpos da in
    let ou = upper coords lvlpos oa in
    for r = p0 to p1 do
      let pc = Array.unsafe_get pcrd r in
      let cb = cu + (pc * ca.pm) and db = du + (pc * da.pm) in
      let ob = ou + (pc * oa.pm) + (r * oa.pp) in
      let rlo, rhi = Array.unsafe_get pos r in
      let q = ref (if r = p0 then lo else rlo) and qhi = Int.min rhi hi in
      while !q + 3 <= qhi do
        let q0 = !q in
        let b0 = db + (Array.unsafe_get crd q0 * dl)
        and b1 = db + (Array.unsafe_get crd (q0 + 1) * dl)
        and b2 = db + (Array.unsafe_get crd (q0 + 2) * dl)
        and b3 = db + (Array.unsafe_get crd (q0 + 3) * dl) in
        let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
        for k = klo to khi do
          let ck = scale *. Array.unsafe_get c (cb + k) in
          acc0 := !acc0 +. (ck *. Array.unsafe_get d (b0 + k));
          acc1 := !acc1 +. (ck *. Array.unsafe_get d (b1 + k));
          acc2 := !acc2 +. (ck *. Array.unsafe_get d (b2 + k));
          acc3 := !acc3 +. (ck *. Array.unsafe_get d (b3 + k))
        done;
        add out (cell ob q0) (A1.unsafe_get dvals q0 *. !acc0);
        add out (cell ob (q0 + 1)) (A1.unsafe_get dvals (q0 + 1) *. !acc1);
        add out (cell ob (q0 + 2)) (A1.unsafe_get dvals (q0 + 2) *. !acc2);
        add out (cell ob (q0 + 3)) (A1.unsafe_get dvals (q0 + 3) *. !acc3);
        q := q0 + 4
      done;
      for q = !q to qhi do
        let b = db + (Array.unsafe_get crd q * dl) and acc = ref 0. in
        for k = klo to khi do
          acc := !acc +. (scale *. Array.unsafe_get c (cb + k) *. Array.unsafe_get d (b + k))
        done;
        add out (cell ob q) (A1.unsafe_get dvals q *. !acc)
      done
    done

(* The product of factors [lo..hi] at leaf coordinate [c] and inner index
   [v], folded left to right onto [acc] (from the scale over every factor,
   the interpreter's association order).  Inlined, so the accumulator
   stays an unboxed local. *)
let[@inline] product acc fdata frun fleaf fstride ~lo ~hi c v =
  if lo > hi then acc
  else begin
    let acc = ref acc in
    for f = lo to hi do
      let i = Array.unsafe_get frun f + (c * Array.unsafe_get fleaf f) in
      acc := !acc *. (Array.unsafe_get fdata f).(i + (v * Array.unsafe_get fstride f))
    done;
    !acc
  end

(* Affine: every other shape, one position at a time, factor reads
   checked.  Each index's span and run parts are added once per run.
   Without an inner variable, the fold of the leading factors that do not
   read the leaf is fixed for a run, so it is made once per run. *)
let affine_body (m : mul) (l : launch) ~coords ~lvlpos ~jlo ~jhi =
  let plan = m.m_plan and w = l.l_walk in
  let out = l.l_out and oa = l.l_oaff and dvals = l.l_dvals and scale = plan.Leaf.pl_scale in
  let pcrd = w.w_pcrd and pos = w.w_pos and crd = w.w_crd in
  let fdata = l.l_fdata and faff = m.m_faff and nf = Array.length l.l_fdata in
  let fleaf = Array.map (fun a -> a.leaf) faff and fstride = Array.map (fun a -> a.stride) faff in
  let frun = Array.make nf 0 and oleaf = oa.leaf and opos = oa.pos and nfree = ref 0 in
  while !nfree < nf && fleaf.(!nfree) = 0 do incr nfree done;
  let nfree = !nfree and inner_out = plan.Leaf.pl_inner_out and klo, khi = Leaf.k_bounds plan in
  (* Per run: the factors' run parts into [frun]; returns the output's. *)
  let enter_run r =
    let pc = pcrd.(r) in
    for f = 0 to nf - 1 do
      frun.(f) <- upper coords lvlpos faff.(f) + (pc * faff.(f).pm)
    done;
    upper coords lvlpos oa + (pc * oa.pm) + (r * oa.pp)
  in
  let fail what _ _ _ _ = Error.fail ~kernel:plan.Leaf.pl_driver_name Error.Leaf "%s" what in
  match (inner_out, plan.Leaf.pl_inner_red, out) with
  | true, true, _ -> fail "simultaneous inner output and reduction vars"
  | true, false, Out_sparse _ ->
      if jlo <= jhi then fail "inner-out with sparse output" else fun _ _ _ _ -> ()
  | false, false, _ ->
      fun p0 p1 lo hi ->
        for r = p0 to p1 do
          let orun = enter_run r and rlo, rhi = Array.unsafe_get pos r in
          let qlo = if r = p0 then lo else rlo and qhi = Int.min rhi hi in
          let s = product scale fdata frun fleaf fstride ~lo:0 ~hi:(nfree - 1) 0 0 in
          for q = qlo to qhi do
            let c = Array.unsafe_get crd q in
            let y = product s fdata frun fleaf fstride ~lo:nfree ~hi:(nf - 1) c 0 in
            add out (orun + (c * oleaf) + (q * opos)) (A1.unsafe_get dvals q *. y)
          done
        done
  | _ ->
      fun p0 p1 lo hi ->
        for r = p0 to p1 do
          let orun = enter_run r and rlo, rhi = Array.unsafe_get pos r in
          let qlo = if r = p0 then lo else rlo and qhi = Int.min rhi hi in
          for q = qlo to qhi do
            let c = Array.unsafe_get crd q and dv = A1.unsafe_get dvals q in
            let o = orun + (c * oleaf) + (q * opos) in
            if inner_out then
              for j = jlo to jhi do
                add out (o + (j * oa.stride))
                  (dv *. product scale fdata frun fleaf fstride ~lo:0 ~hi:(nf - 1) c j)
              done
            else begin
              let acc = ref 0. in
              for k = klo to khi do
                acc := !acc +. product scale fdata frun fleaf fstride ~lo:0 ~hi:(nf - 1) c k
              done;
              add out o (dv *. !acc)
            end
          done
        done

(* One piece: the walker drives the leaf's body over the shard. *)
let run_piece (m : mul) (l : launch) shard ~col_range =
  let plan = m.m_plan and ord = Array.length l.l_walk.w_iters in
  let coords = Array.make ord 0 and lvlpos = Array.make ord 0 in
  let jlo, jhi = Leaf.j_bounds plan ~col_range and klo, khi = Leaf.k_bounds plan in
  let npos = Int.min (A1.dim l.l_dvals) (Array.length l.l_walk.w_crd) in
  let nnz, rows_touched =
    walk_shard l.l_walk shard ~npos ~coords ~lvlpos
      (match m.m_body with
      | Held { split } -> held m l ~split ~coords ~lvlpos ~jlo ~jhi
      | Dot -> dot m l ~coords ~lvlpos
      | Affine -> affine_body m l ~coords ~lvlpos ~jlo ~jhi)
  in
  { Leaf.work = Leaf.mul_work plan ~nnz ~rows_touched ~js:(jhi - jlo + 1) ~ks:(khi - klo + 1);
    partial = None }

(* ------------------------------------------------------------------ *)
(* Three-way merge (SpAdd3)                                             *)
(* ------------------------------------------------------------------ *)

(* The column under a cursor at [p], or [max_int] past the row's end. *)
let[@inline] head crd p hi = if p <= hi then Array.unsafe_get crd p else max_int

exception Reassemble

(* A merge of two or three CSR operands without a workspace, on one
   cursor: the three positions, the three head columns and the sum are
   locals.  A two-operand merge runs with an empty third operand.  The
   rules are {!Leaf.merge_core}'s, so the partial is bit-identical: emit the
   least head column, and sum each operand's run of it, in operand order,
   from [0.] (which keeps its handling of [-0.]).  The merge consumes every
   stored entry of the rows, so the work tally counts them in the sizing
   pass ({!Leaf.row_entries}), which also checks each row's ranges.

   With [into], an assembled output's [(pos, crd, vals)], the cursor
   computes only: each row's sums go to [vals] at the row's installed
   positions, each emitted column must be the installed one there, and the
   row must end where its installed range ends.  Anything else raises
   {!Reassemble}, with some of the row's values written.  Both modes emit
   the same entries, so the work tally is the same. *)
let merge_cursor ?into (ops : Leaf.merge_op array) rows =
  let pa, ca, va = ops.(0) and pb, cb, vb = ops.(1) in
  let three = Array.length ops = 3 in
  let pc, cc, vc = ops.(if three then 2 else 0) in
  let entries = Leaf.row_entries ops rows in
  let in_place, (opos, ocrd, ovals) =
    match into with
    | Some ((opos, _, _) as o) ->
        if Array.length opos <> Array.length pa then raise Reassemble;
        (true, o)
    | None -> (false, ([||], [||], va))
  in
  let nrows = if in_place then 0 else Iset.cardinal rows in
  let mrows = Array.make nrows 0 and mcounts = Array.make nrows 0 in
  let bound = if in_place then 0 else entries in
  let mcrd = Array.make bound 0 and mvals = Array.create_float bound in
  let n = ref 0 and row = ref 0 in
  Iset.iter_intervals
    (fun rlo rhi ->
      for r = rlo to rhi do
        let a0, ahi = pa.(r) and b0, bhi = pb.(r) in
        let c0, chi = if three then pc.(r) else (0, -1) in
        let a = ref a0 and b = ref b0 and c = ref c0 in
        let ha = ref (head ca a0 ahi) and hb = ref (head cb b0 bhi) in
        let hc = ref (head cc c0 chi) in
        (* Where the row's entries go, and the position past its end. *)
        let start, stop =
          if not in_place then (!n, max_int)
          else
            let lo, hi = opos.(r) in
            if hi < lo then (lo, lo)
            else if lo < 0 || hi >= Array.length ocrd || hi >= A1.dim ovals then
              raise Reassemble
            else (lo, hi + 1)
        in
        let k = ref start in
        let col = ref (Int.min !ha (Int.min !hb !hc)) in
        while !col <> max_int do
          let s = ref 0. in
          while !ha = !col do
            s := !s +. A1.unsafe_get va !a;
            incr a;
            ha := head ca !a ahi
          done;
          while !hb = !col do
            s := !s +. A1.unsafe_get vb !b;
            incr b;
            hb := head cb !b bhi
          done;
          while !hc = !col do
            s := !s +. A1.unsafe_get vc !c;
            incr c;
            hc := head cc !c chi
          done;
          if in_place then begin
            if !k >= stop || Array.unsafe_get ocrd !k <> !col then raise Reassemble;
            A1.unsafe_set ovals !k !s
          end
          else begin
            Array.unsafe_set mcrd !k !col;
            Array.unsafe_set mvals !k !s
          end;
          incr k;
          col := Int.min !ha (Int.min !hb !hc)
        done;
        if in_place then (if !k <> stop then raise Reassemble)
        else begin
          Array.unsafe_set mrows !row r;
          Array.unsafe_set mcounts !row (!k - start);
          incr row
        end;
        n := !n + (!k - start)
      done)
    rows;
  {
    Leaf.work =
      Leaf.merge_work ~entries:(float_of_int entries) ~emitted:(float_of_int !n);
    partial = (if in_place then None else Some { Leaf.mrows; mcounts; mcrd; mvals });
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

type piece =
  shard_vals:(string -> Iset.t) ->
  rows:Iset.t option ->
  col_range:(int * int) option ->
  unit ->
  Leaf.result

let launch ?into t ~bindings : piece =
  match t.kind with
  | C_merge { g_tensors; g_use_workspace; g_cursor } ->
      let ops, cols = Leaf.merge_ops ~bindings ~tensors:g_tensors in
      fun ~shard_vals:_ ~rows ~col_range:_ () ->
        (match rows with
        | Some r when g_cursor -> merge_cursor ?into ops r
        | Some r -> Leaf.merge_core ~ops ~cols ~rows:r ~use_workspace:g_use_workspace
        | None -> Error.fail Error.Leaf "merge kernel needs a row set")
  | C_mul m ->
      let l = resolve m ~bindings in
      let driver = m.m_plan.Leaf.pl_driver_name in
      fun ~shard_vals ~rows:_ ~col_range () -> run_piece m l (shard_vals driver) ~col_range

let execute t ?(bindings = t.bindings) ?into ~shard_vals ~rows ~col_range () =
  launch ?into t ~bindings ~shard_vals ~rows ~col_range ()

let path_name t =
  match t.kind with
  | C_merge { g_cursor; _ } -> if g_cursor then "csr-merge" else "merge"
  | C_mul m -> (
      match m.m_body with Held _ -> "held" | Dot -> "dot" | Affine -> "affine")
