(* Compiled leaf kernels: monomorphized per-(format x expression) closures.

   The interpreter in {!Leaf} walks the memoized coordinate expansion of the
   driver and re-dispatches on the kernel shape per element.  This pass runs
   once per lowered program (at [Spdistal.compile] / [Interp.prepare] time)
   and specializes each leaf into a closed closure: level iterators from
   {!Level_funcs} are pre-resolved per level kind, the kernel shape is
   matched once, and the hot loop touches only flat arrays and Bigarray
   value buffers.  The classification ({!Leaf.plan_mul}) and work model
   ({!Leaf.mul_work}) are shared with the interpreter, which stays around as
   the differential oracle (`spdistal fuzz` cross-checks the two for
   bit-identical outputs and Cost).  A merge of two or three CSR operands
   without a workspace runs its own three-way cursor; only the workspace
   strategy and other arities fall back to the interpreter's
   {!Leaf.merge_core}, so the fuzzer sees a merge bug in either.

   Three CSR shapes (SpMV, SpMM, SDDMM) get fused row-segment loops, and
   two 3-tensor shapes (SpTTV, SpMTTKRP) on a CSF or (Dense, Dense,
   Compressed) driver in identity mode order get fused slice-segment loops;
   every other shape runs the generic walker.  There, every factor and sink
   index is affine in the one active inner variable ([base + v·stride]):
   the bases are recomputed once per stored element into an int array and
   the inner loop is a plain [for] with a local float accumulator.  Without
   flambda, a float returned from or passed to a closure is boxed, so no
   float crosses a closure call: every kind of loop allocates nothing per
   element.

   Register blocking: ocamlopt without flambda neither blocks loops nor
   keeps array cells in registers, so the hot loops do it in source.  SpMM
   keeps [A(row, j0..j0+3)] in four float locals across a whole row
   segment; SpMTTKRP keeps [A(i, t0..t0+3)] across every fiber of slice
   [i] in the segment; a scalar loop takes the [mod 4] tail.  SDDMM reads
   [D] through a transposed copy, so each element is a contiguous dot
   product, and computes four elements of a row at once.  Each output cell
   still receives the same products, built with the same association and
   added in the same order as the interpreter's per-element loop; only the
   interleaving across cells changes, so outputs are bit-identical.  That
   argument needs every input to be distinct from the output: a cell
   written early would otherwise be read back as an input at a different
   moment in each backend.  [Interp.run] refuses such aliasing.

   Structure and data: a compiled leaf captures only structure — its plan,
   the affine index maps, the fast-path choice and the driver's level
   walkers, CSR row ends and fiber arrays.  Each [launch] resolves the
   data once from its bindings, on the reducing domain: the shape checks,
   the driver's values, the factors' storage, the merge operands, the
   output, the walk, and SDDMM's transposed [D].  So one compiled leaf
   (and a cached plan holding it) serves every context whose problem has
   the same pattern and shapes, whatever values each binds.  The captured
   walk is used while the launch driver's level storage is the one it was
   derived from; another driver (an equal pattern in other arrays) is
   walked through a walk derived from its own storage for that launch.

   Reentrancy: the pieces of one launch run concurrently on the domains
   simulating a distributed launch, so all mutable walk state
   (coordinate/position scratch, factor bases, counters, SpMTTKRP's fiber
   list) is allocated per piece.  The one buffer a leaf keeps is SDDMM's
   transposed [D]: allocated by the leaf's first launch and rewritten by
   each later one, read-only for pieces.  Sharing it is safe because the
   launches of one leaf never overlap: [Interp.run] launches on its
   reducing domain, one launch after another, and a cached leaf is only
   reached through {!Cache}, which has no lock and runs on one domain. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
module A1 = Bigarray.Array1

(* ------------------------------------------------------------------ *)
(* Backend selector                                                     *)
(* ------------------------------------------------------------------ *)

type backend = Interp | Compiled

let backend_env_var = "SPDISTAL_LEAF_BACKEND"

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

let default_backend () =
  match !backend_override with
  | Some b -> b
  | None -> (
      match Sys.getenv_opt backend_env_var with
      | None -> Compiled
      | Some s -> ( match backend_of_string s with Ok b -> b | Error _ -> Compiled))

(* ------------------------------------------------------------------ *)
(* Compiled form                                                        *)
(* ------------------------------------------------------------------ *)

(* The fiber structure of a 3-level driver in identity mode order, read in
   place from its storage.  A fiber is a level-1 position [f]; its stored
   elements are the leaf positions [pos2.(f)], and the slice [i] it belongs
   to and its coordinate [j] come from the level-1 [pos]/[crd] (CSF:
   Dense, Compressed, Compressed) or from [f = i·n1 + j] (Dense, Dense,
   Compressed). *)
type slices =
  | Csf_slices of { pos1 : (int * int) array; crd1 : int array }
  | Ddc_slices of { n1 : int }

type fibers = { slices : slices; pos2 : (int * int) array; crd2 : int array }

(* Fused fast paths: CSR-driver kernels (the paper's fig. 10 hot loops:
   SpMV / SpMM / SDDMM) and 3-level-driver kernels (SpTTV / SpMTTKRP).
   Everything else runs the generic specialized walker, which is still free
   of per-element IR dispatch.  A fast path fixes the factors' row strides;
   their storage comes from the launch bindings. *)
type fast =
  | Generic
  | Fast_spmv
  | Fast_spmm of { ccols : int }
  | Fast_sddmm of { ccols : int; dcols : int }
  | Fast_ttv of { fib : fibers }
  | Fast_mttkrp of { fib : fibers; ccols : int; dcols : int }

(* A dense index affine in the one active inner variable [v] ([j] or [k];
   a plan never has both): [coords.(d0)·m0 + coords.(d1)·m1 + v·stride].
   The driver terms are evaluated once per stored element; an unused term
   has [m = 0]. *)
type affine = { d0 : int; m0 : int; d1 : int; m1 : int; stride : int }

(* [affine [(src, mult); ...]] is the index [Σ mult·src]. *)
let affine terms =
  let drivers =
    List.filter_map (function Leaf.Driver_dim d, m -> Some (d, m) | _ -> None) terms
  in
  let term i = Option.value (List.nth_opt drivers i) ~default:(0, 0) in
  let (d0, m0), (d1, m1) = (term 0, term 1) in
  let stride =
    List.fold_left (fun s -> function Leaf.Driver_dim _, _ -> s | _, m -> s + m) 0 terms
  in
  { d0; m0; d1; m1; stride }

let factor_affine = function
  | Leaf.F_vec (_, s) -> affine [ (s, 1) ]
  | Leaf.F_mat (_, cols, sr, sc) -> affine [ (sr, cols); (sc, 1) ]

(* How to walk one driver's storage, derived from its levels. *)
type walk = {
  w_levels : Level.t array;  (* the level storage this walk was derived from *)
  w_mode_order : int array;
  w_walkers : Level_funcs.level_iter array;
  w_csr_hi : int array;
      (* CSR fast paths only: flat row-end positions (snd of the level-1 pos
         ranges), pre-extracted so the hot loop never chases a tuple *)
  w_csr_crd : int array;
  w_fast : fast;
}

type mul = {
  m_plan : Leaf.plan;
  m_faff : affine array;  (* factor indices, in plan order *)
  m_dims : int array;  (* the driver's dimensions *)
  m_nnz : int;  (* the driver's stored values *)
  m_flens : int array;  (* the factors' storage lengths, in plan order *)
  m_out_len : int;  (* the output's storage length *)
  m_walk : walk;  (* of the driver the leaf was compiled against *)
  mutable m_dt : float array;  (* SDDMM: [D] transposed, reused by every launch *)
}

type kind =
  | C_mul of mul
  | C_merge of {
      g_tensors : string list;
      g_use_workspace : bool;
      g_cursor : bool;  (* runs {!merge_cursor}, not {!Leaf.merge_core} *)
    }

(* [bindings] are the ones the leaf was compiled against: the launch
   bindings when a caller gives none. *)
type t = { bindings : Operand.bindings; kind : kind }

(* ------------------------------------------------------------------ *)
(* Compilation                                                          *)
(* ------------------------------------------------------------------ *)

let is_csr (t : Tensor.t) =
  Tensor.order t = 2
  && t.Tensor.mode_order = [| 0; 1 |]
  &&
  match t.Tensor.levels with
  | [| Level.Dense _; Level.Compressed _ |] -> true
  | _ -> false

let fibers_of (t : Tensor.t) =
  let fibers slices (pos : _ Region.t) (crd : _ Region.t) =
    Some { slices; pos2 = pos.Region.data; crd2 = crd.Region.data }
  in
  if t.Tensor.mode_order <> [| 0; 1; 2 |] then None
  else
    match t.Tensor.levels with
    | [| Level.Dense _; Level.Compressed l1; Level.Compressed { pos; crd } |] ->
        fibers
          (Csf_slices { pos1 = l1.pos.Region.data; crd1 = l1.crd.Region.data })
          pos crd
    | [| Level.Dense _; Level.Dense { dim }; Level.Compressed { pos; crd } |] ->
        fibers (Ddc_slices { n1 = dim }) pos crd
    | _ -> None

(* The factor order is part of the match: it fixes the association order of
   the product, which every fast path reproduces. *)
let detect_fast ~(plan : Leaf.plan) ~(driver : Tensor.t) =
  match
    ( fibers_of driver,
      plan.Leaf.pl_inner_out,
      plan.Leaf.pl_inner_red,
      plan.Leaf.pl_factors,
      plan.Leaf.pl_sink )
  with
  | Some fib, false, false, [| Leaf.F_vec (_, Leaf.Driver_dim 2) |], Leaf.Sp_sparse (Some 1)
    ->
      Fast_ttv { fib }
  | ( Some fib,
      true,
      false,
      [|
        Leaf.F_mat (_, ccols, Leaf.Driver_dim 1, Leaf.Inner_out);
        Leaf.F_mat (_, dcols, Leaf.Driver_dim 2, Leaf.Inner_out);
      |],
      Leaf.Sp_mat (Leaf.Driver_dim 0, Leaf.Inner_out) ) ->
      Fast_mttkrp { fib; ccols; dcols }
  | _ when not (is_csr driver) -> Generic
  | _, false, false, [| Leaf.F_vec (_, Leaf.Driver_dim 1) |], Leaf.Sp_vec (Leaf.Driver_dim 0)
    ->
      Fast_spmv
  | ( _,
      true,
      false,
      [| Leaf.F_mat (_, ccols, Leaf.Driver_dim 1, Leaf.Inner_out) |],
      Leaf.Sp_mat (Leaf.Driver_dim 0, Leaf.Inner_out) ) ->
      Fast_spmm { ccols }
  | ( _,
      false,
      true,
      [|
        Leaf.F_mat (_, ccols, Leaf.Driver_dim 0, Leaf.Inner_red);
        Leaf.F_mat (_, dcols, Leaf.Inner_red, Leaf.Driver_dim 1);
      |],
      Leaf.Sp_sparse None ) ->
      Fast_sddmm { ccols; dcols }
  | _ -> Generic

let walk_of ~plan (driver : Tensor.t) =
  let fast = detect_fast ~plan ~driver in
  let csr_hi, csr_crd =
    match (fast, driver.Tensor.levels) with
    | (Fast_spmv | Fast_spmm _ | Fast_sddmm _), [| _; Level.Compressed { pos; crd } |] ->
        (Array.map snd pos.Region.data, crd.Region.data)
    | _ -> ([||], [||])
  in
  {
    w_levels = driver.Tensor.levels;
    w_mode_order = driver.Tensor.mode_order;
    w_walkers = Array.map Level_funcs.iter_of_level driver.Tensor.levels;
    w_csr_hi = csr_hi;
    w_csr_crd = csr_crd;
    w_fast = fast;
  }

let data_length = function
  | Operand.Vec v -> Array.length v.Dense.data
  | Operand.Mat m -> Array.length m.Dense.data
  | Operand.Sparse t -> Tensor.nnz t

let compile ~bindings (leaf : Loop_ir.leaf) =
  let kind =
    match leaf.Loop_ir.driver with
    | Loop_ir.Merge_driver tensors ->
        let use_workspace = leaf.Loop_ir.use_workspace in
        let arity = List.length tensors in
        C_merge
          {
            g_tensors = tensors;
            g_use_workspace = use_workspace;
            g_cursor = (not use_workspace) && (arity = 2 || arity = 3);
          }
    | Loop_ir.Sparse_driver driver_name ->
        let plan = Leaf.plan_mul ~bindings ~leaf ~driver_name in
        let driver = Operand.find_sparse bindings driver_name in
        C_mul
          {
            m_plan = plan;
            m_faff = Array.map factor_affine plan.Leaf.pl_factors;
            m_dims = Array.copy driver.Tensor.dims;
            m_nnz = Tensor.nnz driver;
            m_flens = Array.map Array.length (Leaf.factor_data ~bindings plan);
            m_out_len =
              data_length (Operand.find bindings plan.Leaf.pl_out_name).Operand.data;
            m_walk = walk_of ~plan driver;
            m_dt = [||];
          }
  in
  { bindings; kind }

(* ------------------------------------------------------------------ *)
(* Launch-time resolution                                               *)
(* ------------------------------------------------------------------ *)

(* What one launch resolves from its bindings. *)
type launch = {
  l_walk : walk;
  l_dvals : Region.F.buf;  (* the driver's values *)
  l_fdata : float array array;  (* factor storage, in plan order *)
  l_out : Operand.data;
}

let shape_changed ?(what = "output slot") (plan : Leaf.plan) =
  Error.fail ~kernel:plan.Leaf.pl_out_name Error.Leaf
    "compiled leaf: %s changed shape since compilation" what

(* The fast paths index unchecked, so every operand must still have the
   shape the leaf was compiled for; the driver's pattern must be the
   compiled one's, which the cache key guarantees. *)
let resolve (m : mul) ~bindings =
  let plan = m.m_plan in
  let driver = Operand.find_sparse bindings plan.Leaf.pl_driver_name in
  if driver.Tensor.dims <> m.m_dims || Tensor.nnz driver <> m.m_nnz then
    shape_changed ~what:"driver" plan;
  let fdata = Leaf.factor_data ~bindings plan in
  Array.iteri
    (fun f d -> if Array.length d <> m.m_flens.(f) then shape_changed ~what:"factor" plan)
    fdata;
  let out = (Operand.find bindings plan.Leaf.pl_out_name).Operand.data in
  if data_length out <> m.m_out_len then shape_changed plan;
  {
    l_walk =
      (if driver.Tensor.levels == m.m_walk.w_levels then m.m_walk
       else walk_of ~plan driver);
    l_dvals = driver.Tensor.vals.Region.F.data;
    l_fdata = fdata;
    l_out = out;
  }

(* The loop one piece runs over its shard and column range.  Every path
   resolves its launch's storage once, before it returns this closure. *)
type piece_loop = Iset.t -> col_range:(int * int) option -> Leaf.result

(* ------------------------------------------------------------------ *)
(* Generic specialized walker                                           *)
(* ------------------------------------------------------------------ *)

(* The output, resolved per launch: dense storage at an affine index, or the
   sparse output's values at the leaf position ([lvl = -1]) or at the
   position of storage level [lvl]. *)
type out = Out_dense of float array * affine | Out_sparse of Region.F.buf * int

let resolve_out (m : mul) (l : launch) =
  let plan = m.m_plan in
  match (l.l_out, plan.Leaf.pl_sink) with
  | Operand.Vec v, Leaf.Sp_vec s -> Out_dense (v.Dense.data, affine [ (s, 1) ])
  | Operand.Mat mt, Leaf.Sp_mat (sr, sc) ->
      Out_dense (mt.Dense.data, affine [ (sr, mt.Dense.cols); (sc, 1) ])
  | Operand.Sparse ot, Leaf.Sp_sparse lvl ->
      Out_sparse (ot.Tensor.vals.Region.F.data, Option.value lvl ~default:(-1))
  | _ -> shape_changed plan

let[@inline] base coords a = (coords.(a.d0) * a.m0) + (coords.(a.d1) * a.m1)

let[@inline] add out q y =
  match out with
  | Out_dense (d, _) -> d.(q) <- d.(q) +. y
  | Out_sparse (d, _) -> A1.set d q (A1.get d q +. y)

(* The factor product at inner index [v], folded left to right from the
   literal scale: the interpreter's association order, so rounding is
   bit-identical.  Inlined, so the accumulator stays an unboxed local. *)
let[@inline] product ~scale fdata faff fbase v =
  let acc = ref scale in
  for f = 0 to Array.length fdata - 1 do
    acc := !acc *. fdata.(f).(fbase.(f) + (v * faff.(f).stride))
  done;
  !acc

exception Past_end

let run_generic (m : mul) (l : launch) ~out ~shard ~col_range =
  let plan = m.m_plan in
  let ord = Array.length l.l_walk.w_levels in
  let coords = Array.make (max ord 1) 0 in
  let lvlpos = Array.make (max ord 1) 0 in
  let path = Array.make (max ord 1) 0 in
  let scale = plan.Leaf.pl_scale and fdata = l.l_fdata and faff = m.m_faff in
  let fbase = Array.make (Array.length fdata) 0 in
  let jlo, jhi = Leaf.j_bounds plan ~col_range in
  let klo, khi = Leaf.k_bounds plan in
  let dvals = l.l_dvals in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  (* Per stored element: tally it, evaluate every factor's driver terms, and
     return the output index at inner index 0. *)
  let enter p =
    incr nnz;
    if coords.(0) <> !last_row then begin
      incr rows_touched;
      last_row := coords.(0)
    end;
    for f = 0 to Array.length faff - 1 do
      fbase.(f) <- base coords faff.(f)
    done;
    match out with
    | Out_dense (_, a) -> base coords a
    | Out_sparse (_, lvl) -> if lvl < 0 then p else lvlpos.(lvl)
  in
  let body : int -> unit =
    match (plan.Leaf.pl_inner_out, plan.Leaf.pl_inner_red, out) with
    | false, false, _ ->
        fun p ->
          let q = enter p in
          add out q (A1.get dvals p *. product ~scale fdata faff fbase 0)
    | true, false, Out_sparse _ ->
        fun p ->
          ignore (enter p);
          if jlo <= jhi then
            Error.fail ~kernel:plan.Leaf.pl_driver_name Error.Leaf
              "inner-out with sparse output"
    | true, false, Out_dense (_, sa) ->
        fun p ->
          let q = enter p in
          let dv = A1.get dvals p in
          for j = jlo to jhi do
            add out (q + (j * sa.stride)) (dv *. product ~scale fdata faff fbase j)
          done
    | false, true, _ ->
        fun p ->
          let q = enter p in
          let acc = ref 0. in
          for k = klo to khi do
            acc := !acc +. product ~scale fdata faff fbase k
          done;
          add out q (A1.get dvals p *. !acc)
    | true, true, _ ->
        fun p ->
          ignore (enter p);
          Error.fail ~kernel:plan.Leaf.pl_driver_name Error.Leaf
            "simultaneous inner output and reduction vars"
  in
  let walkers = l.l_walk.w_walkers and mo = l.l_walk.w_mode_order in
  (* One emit closure per storage level, built once per piece: the leaf
     level's stops past the interval's end [phi], an inner level's descends,
     resuming at the spine position on the interval's first fiber. *)
  let phi = ref 0 in
  let emits = Array.make ord (fun _ _ -> ()) in
  for kk = ord - 1 downto 0 do
    emits.(kk) <-
      (if kk = ord - 1 then fun c p ->
         coords.(mo.(kk)) <- c;
         lvlpos.(kk) <- p;
         if p > !phi then raise_notrace Past_end;
         body p
       else
         let child = walkers.(kk + 1) and next = emits.(kk + 1) in
         fun c p ->
           coords.(mo.(kk)) <- c;
           lvlpos.(kk) <- p;
           child.Level_funcs.li_iter ~parent:p
             ~from:(if p = path.(kk) then path.(kk + 1) else -1)
             next)
  done;
  (* Seek the spine of the interval's first leaf position, then walk the
     nest in storage order until the leaf passes the interval's end. *)
  let walk_interval plo hi =
    phi := hi;
    path.(ord - 1) <- plo;
    for kk = ord - 2 downto 0 do
      path.(kk) <- walkers.(kk + 1).Level_funcs.li_locate path.(kk + 1)
    done;
    try walkers.(0).Level_funcs.li_iter ~parent:0 ~from:path.(0) emits.(0)
    with Past_end -> ()
  in
  Iset.iter_intervals walk_interval shard;
  {
    Leaf.work =
      Leaf.mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched
        ~js:(jhi - jlo + 1) ~ks:(khi - klo + 1);
    partial = None;
  }

(* ------------------------------------------------------------------ *)
(* CSR fast paths                                                       *)
(* ------------------------------------------------------------------ *)

(* Row cursor over the flat row-end positions: positions are visited in
   ascending order, so the cursor only moves forward within an interval,
   skipping empty rows (whose hi precedes their lo).  [csr_run m shard
   ~js ~ks seg] cuts each interval into per-row segments and calls [seg row
   lo hi] on each. *)
let csr_run (m : mul) (l : launch) shard ~js ~ks (seg : int -> int -> int -> unit) =
  let hi = l.l_walk.w_csr_hi in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  Iset.iter_intervals
    (fun plo phi ->
      nnz := !nnz + (phi - plo + 1);
      let r = ref (l.l_walk.w_walkers.(1).Level_funcs.li_locate plo) in
      let p = ref plo in
      while !p <= phi do
        let row = !r in
        let rhi = Array.unsafe_get hi row in
        if !p > rhi then incr r
        else begin
          let seg_hi = if rhi < phi then rhi else phi in
          if row <> !last_row then begin
            incr rows_touched;
            last_row := row
          end;
          seg row !p seg_hi;
          p := seg_hi + 1;
          incr r
        end
      done)
    shard;
  {
    Leaf.work = Leaf.mul_work m.m_plan ~nnz:!nnz ~rows_touched:!rows_touched ~js ~ks;
    partial = None;
  }

let out_of_bounds (m : mul) len =
  Error.fail ~kernel:m.m_plan.Leaf.pl_driver_name Error.Leaf
    "compiled leaf: index outside an array of length %d" len

(* Bounds-check the indices [base + lo .. base + hi] of an array of length
   [len] once, so the loop over them may index unchecked. *)
let[@inline] check_span m len base lo hi =
  if lo <= hi && (base + lo < 0 || base + hi >= len) then out_of_bounds m len

(* A segment accumulates into registers seeded from the output cells and
   stores once: each cell receives the identical left-to-right additions,
   in element order, as the interpreter's per-element read-modify-write,
   so rounding is bit-identical. *)
let run_spmv (m : mul) (l : launch) : piece_loop =
  let crdd = l.l_walk.w_csr_crd and dvals = l.l_dvals and x = l.l_fdata.(0) in
  let scale = m.m_plan.Leaf.pl_scale in
  let y = match l.l_out with Operand.Vec v -> v.Dense.data | _ -> shape_changed m.m_plan in
  fun shard ~col_range:_ ->
    csr_run m l shard ~js:0 ~ks:0 (fun row lo hi ->
        let acc = ref (Array.unsafe_get y row) in
        for q = lo to hi do
          acc :=
            !acc
            +. A1.unsafe_get dvals q
               *. (scale *. Array.unsafe_get x (Array.unsafe_get crdd q))
        done;
        Array.unsafe_set y row !acc)

(* SpMM, blocked by four columns: the block [A(row, j0..j0+3)] stays in
   registers across the whole row segment, each element adding
   [dv·(scale·C(k, j))]; a scalar loop takes the [js mod 4] tail. *)
let run_spmm (m : mul) (l : launch) ~ccols : piece_loop =
  let crdd = l.l_walk.w_csr_crd and dvals = l.l_dvals and c = l.l_fdata.(0) in
  let scale = m.m_plan.Leaf.pl_scale in
  let a, acols =
    match l.l_out with
    | Operand.Mat mt -> (mt.Dense.data, mt.Dense.cols)
    | _ -> shape_changed m.m_plan
  in
  fun shard ~col_range ->
    let jlo, jhi = Leaf.j_bounds m.m_plan ~col_range in
    check_span m (Int.min acols ccols) 0 jlo jhi;
    csr_run m l shard ~js:(jhi - jlo + 1) ~ks:0 (fun row lo hi ->
        let abase = row * acols in
        let j = ref jlo in
        while !j + 3 <= jhi do
          let j0 = !j in
          let o = abase + j0 in
          let a0 = ref (Array.unsafe_get a o)
          and a1 = ref (Array.unsafe_get a (o + 1))
          and a2 = ref (Array.unsafe_get a (o + 2))
          and a3 = ref (Array.unsafe_get a (o + 3)) in
          for q = lo to hi do
            let dv = A1.unsafe_get dvals q in
            let cb = (Array.unsafe_get crdd q * ccols) + j0 in
            a0 := !a0 +. (dv *. (scale *. Array.unsafe_get c cb));
            a1 := !a1 +. (dv *. (scale *. Array.unsafe_get c (cb + 1)));
            a2 := !a2 +. (dv *. (scale *. Array.unsafe_get c (cb + 2)));
            a3 := !a3 +. (dv *. (scale *. Array.unsafe_get c (cb + 3)))
          done;
          Array.unsafe_set a o !a0;
          Array.unsafe_set a (o + 1) !a1;
          Array.unsafe_set a (o + 2) !a2;
          Array.unsafe_set a (o + 3) !a3;
          j := j0 + 4
        done;
        for j = !j to jhi do
          let acc = ref (Array.unsafe_get a (abase + j)) in
          for q = lo to hi do
            acc :=
              !acc
              +. (A1.unsafe_get dvals q
                 *. (scale *. Array.unsafe_get c ((Array.unsafe_get crdd q * ccols) + j)))
          done;
          Array.unsafe_set a (abase + j) !acc
        done)

(* [D] transposed, [dt.(col·rows + k) = d.(k·cols + col)], in 32×32 tiles
   so both sides stay in cache.  The buffer is the leaf's own, allocated on
   its first launch and rewritten on each later one (see the reentrancy
   note at the top). *)
let transposed (m : mul) d ~rows ~cols =
  let n = rows * cols in
  if Array.length m.m_dt <> n then m.m_dt <- Array.create_float n;
  let dt = m.m_dt and tile = 32 in
  let r0 = ref 0 in
  while !r0 < rows do
    let r1 = Int.min rows (!r0 + tile) - 1 in
    let c0 = ref 0 in
    while !c0 < cols do
      let c1 = Int.min cols (!c0 + tile) - 1 in
      for col = !c0 to c1 do
        for k = !r0 to r1 do
          Array.unsafe_set dt ((col * rows) + k) (Array.unsafe_get d ((k * cols) + col))
        done
      done;
      c0 := !c0 + tile
    done;
    r0 := !r0 + tile
  done;
  dt

(* SDDMM over [D] transposed: each element is the contiguous dot product
   [Σk (scale·C(row, k))·dt(col, k)], four elements of a row at a time so
   [C]'s row is loaded once for all four, then one at a time for the rest.
   Each sum runs over [k] in order from 0, as in the interpreter. *)
let run_sddmm (m : mul) (l : launch) ~ccols ~dcols : piece_loop =
  let crdd = l.l_walk.w_csr_crd and dvals = l.l_dvals in
  let c = l.l_fdata.(0) and d = l.l_fdata.(1) in
  let scale = m.m_plan.Leaf.pl_scale in
  let klo, khi = Leaf.k_bounds m.m_plan in
  let out =
    match l.l_out with
    | Operand.Sparse ot -> ot.Tensor.vals.Region.F.data
    | _ -> shape_changed m.m_plan
  in
  let kn = if dcols = 0 then 0 else Array.length d / dcols in
  check_span m (Int.min kn ccols) 0 klo khi;
  let dt = transposed m d ~rows:kn ~cols:dcols in
  fun shard ~col_range:_ ->
    csr_run m l shard ~js:0 ~ks:(khi - klo + 1) (fun row lo hi ->
        let cbase = row * ccols in
        let q = ref lo in
        while !q + 3 <= hi do
          let q0 = !q in
          let b0 = Array.unsafe_get crdd q0 * kn
          and b1 = Array.unsafe_get crdd (q0 + 1) * kn
          and b2 = Array.unsafe_get crdd (q0 + 2) * kn
          and b3 = Array.unsafe_get crdd (q0 + 3) * kn in
          let acc0 = ref 0. and acc1 = ref 0. and acc2 = ref 0. and acc3 = ref 0. in
          for k = klo to khi do
            let ck = scale *. Array.unsafe_get c (cbase + k) in
            acc0 := !acc0 +. (ck *. Array.unsafe_get dt (b0 + k));
            acc1 := !acc1 +. (ck *. Array.unsafe_get dt (b1 + k));
            acc2 := !acc2 +. (ck *. Array.unsafe_get dt (b2 + k));
            acc3 := !acc3 +. (ck *. Array.unsafe_get dt (b3 + k))
          done;
          A1.unsafe_set out q0 (A1.unsafe_get out q0 +. (A1.unsafe_get dvals q0 *. !acc0));
          A1.unsafe_set out (q0 + 1)
            (A1.unsafe_get out (q0 + 1) +. (A1.unsafe_get dvals (q0 + 1) *. !acc1));
          A1.unsafe_set out (q0 + 2)
            (A1.unsafe_get out (q0 + 2) +. (A1.unsafe_get dvals (q0 + 2) *. !acc2));
          A1.unsafe_set out (q0 + 3)
            (A1.unsafe_get out (q0 + 3) +. (A1.unsafe_get dvals (q0 + 3) *. !acc3));
          q := q0 + 4
        done;
        while !q <= hi do
          let q0 = !q in
          let b0 = Array.unsafe_get crdd q0 * kn in
          let acc = ref 0. in
          for k = klo to khi do
            acc := !acc +. (scale *. Array.unsafe_get c (cbase + k) *. Array.unsafe_get dt (b0 + k))
          done;
          A1.unsafe_set out q0 (A1.unsafe_get out q0 +. (A1.unsafe_get dvals q0 *. !acc));
          q := q0 + 1
        done)

(* ------------------------------------------------------------------ *)
(* Fiber fast paths: 3-level drivers                                    *)
(* ------------------------------------------------------------------ *)

(* Slice cursor, the 3-level counterpart of [csr_run]: [slice_run m fib
   shard ~js ~ks seg] cuts each interval into per-slice segments and calls
   [seg i f0 f1 q0 q1] on each: the positions [q0..q1] of slice [i], held
   by its fibers [f0..f1].  A CSF slice and a (Dense, Dense, Compressed)
   slice are both a contiguous fiber range.  An interval may start or end
   inside a fiber or a slice (non-zero schedules cut both), so its first
   fiber and slice are located once; then the cursor only moves forward,
   stepping over empty fibers (whose hi precedes their lo) and, for CSF,
   over empty slices.  A fiber's own positions in a segment run from
   [fiber_lo] to [fiber_hi].  [nnz] and [rows_touched] are tallied as
   [run_generic] tallies them, so {!Leaf.mul_work} sees identical
   inputs. *)
let slice_run (m : mul) (l : launch) fib shard ~js ~ks seg =
  let pos2 = fib.pos2 in
  let npos = min (A1.dim l.l_dvals) (Array.length fib.crd2) in
  let nnz = ref 0 and rows_touched = ref 0 and last_row = ref (-1) in
  Iset.iter_intervals
    (fun plo phi ->
      check_span m npos 0 plo phi;
      nnz := !nnz + (phi - plo + 1);
      let f = ref (l.l_walk.w_walkers.(2).Level_funcs.li_locate plo) in
      let i = ref (l.l_walk.w_walkers.(1).Level_funcs.li_locate !f) in
      let p = ref plo in
      while !p <= phi do
        let last =
          match fib.slices with
          | Csf_slices { pos1; _ } ->
              while !f > snd pos1.(!i) do
                incr i
              done;
              snd pos1.(!i)
          | Ddc_slices { n1 } ->
              i := !f / n1;
              (!i * n1) + n1 - 1
        in
        let f0 = !f and q0 = !p in
        while !f <= last && !p <= phi do
          let fhi = snd pos2.(!f) in
          if !p <= fhi then p := (if fhi < phi then fhi else phi) + 1;
          incr f
        done;
        if !p > q0 then begin
          if !i <> !last_row then begin
            incr rows_touched;
            last_row := !i
          end;
          seg !i f0 (!f - 1) q0 (!p - 1)
        end
      done)
    shard;
  {
    Leaf.work = Leaf.mul_work m.m_plan ~nnz:!nnz ~rows_touched:!rows_touched ~js ~ks;
    partial = None;
  }

(* The positions of fiber [f] inside the segment [q0..q1]: empty when
   [hi < lo]. *)
let[@inline] fiber_lo fib f q0 = Int.max q0 (fst fib.pos2.(f))
let[@inline] fiber_hi fib f q1 = Int.min q1 (snd fib.pos2.(f))

(* The level-1 coordinate [j] of fiber [f] in slice [i]. *)
let[@inline] fiber_j fib i f =
  match fib.slices with
  | Csf_slices { crd1; _ } -> crd1.(f)
  | Ddc_slices { n1 } -> f - (i * n1)

(* SpTTV: the output is the fiber's cell of the sparse output (its level-1
   position), accumulated in a register across the fiber as in
   [run_spmv]. *)
let run_ttv (m : mul) (l : launch) ~fib : piece_loop =
  let crd2 = fib.crd2 and dvals = l.l_dvals and c = l.l_fdata.(0) in
  let scale = m.m_plan.Leaf.pl_scale in
  let out =
    match l.l_out with
    | Operand.Sparse ot -> ot.Tensor.vals.Region.F.data
    | _ -> shape_changed m.m_plan
  in
  fun shard ~col_range:_ ->
    slice_run m l fib shard ~js:0 ~ks:0 (fun _ f0 f1 q0 q1 ->
        for f = f0 to f1 do
          let lo = fiber_lo fib f q0 and hi = fiber_hi fib f q1 in
          if lo <= hi then begin
            let acc = ref (A1.get out f) in
            for q = lo to hi do
              acc :=
                !acc +. (A1.unsafe_get dvals q *. (scale *. c.(Array.unsafe_get crd2 q)))
            done;
            A1.set out f !acc
          end
        done)

(* SpMTTKRP, blocked per slice: the block [A(i, t0..t0+3)] stays in
   registers across every fiber of slice [i] in the segment.  Per fiber,
   [C]'s row [j] is scaled once, [s = scale·C(j, t)]; each element then
   adds [dv·(s·D(k, t))]: the interpreter's fold [((scale·C)·D)] followed
   by [dv·_].  A scalar loop takes the [js mod 4] tail.  A first pass
   bounds-checks every factor row the segment reads and lists its
   non-empty fibers as [(lo, hi, C row base)] triples in [fs], so the
   blocked passes index unchecked and skip empty fibers. *)
let run_mttkrp (m : mul) (l : launch) ~fib ~ccols ~dcols : piece_loop =
  let crd2 = fib.crd2 and dvals = l.l_dvals in
  let c = l.l_fdata.(0) and d = l.l_fdata.(1) in
  let scale = m.m_plan.Leaf.pl_scale in
  let a, acols =
    match l.l_out with
    | Operand.Mat mt -> (mt.Dense.data, mt.Dense.cols)
    | _ -> shape_changed m.m_plan
  in
  fun shard ~col_range ->
    let jlo, jhi = Leaf.j_bounds m.m_plan ~col_range in
    let js = jhi - jlo + 1 in
    let fs = ref (Array.make 48 0) in
    slice_run m l fib shard ~js ~ks:0 (fun i f0 f1 q0 q1 ->
        let abase = (i * acols) + jlo in
        check_span m (Array.length a) abase 0 (js - 1);
        let nf = ref 0 in
        for f = f0 to f1 do
          let lo = fiber_lo fib f q0 and hi = fiber_hi fib f q1 in
          if lo <= hi then begin
            let cb = (fiber_j fib i f * ccols) + jlo in
            check_span m (Array.length c) cb 0 (js - 1);
            for q = lo to hi do
              check_span m (Array.length d) ((crd2.(q) * dcols) + jlo) 0 (js - 1)
            done;
            if 3 * (!nf + 1) > Array.length !fs then begin
              let grown = Array.make (2 * Array.length !fs) 0 in
              Array.blit !fs 0 grown 0 (3 * !nf);
              fs := grown
            end;
            let fs = !fs and x = 3 * !nf in
            fs.(x) <- lo;
            fs.(x + 1) <- hi;
            fs.(x + 2) <- cb;
            incr nf
          end
        done;
        let fs = !fs and nf = !nf in
        let t = ref 0 in
        while !t + 3 < js do
          let t0 = !t in
          let o = abase + t0 in
          let a0 = ref (Array.unsafe_get a o)
          and a1 = ref (Array.unsafe_get a (o + 1))
          and a2 = ref (Array.unsafe_get a (o + 2))
          and a3 = ref (Array.unsafe_get a (o + 3)) in
          for n = 0 to nf - 1 do
            let cb = Array.unsafe_get fs ((3 * n) + 2) + t0 in
            let s0 = scale *. Array.unsafe_get c cb
            and s1 = scale *. Array.unsafe_get c (cb + 1)
            and s2 = scale *. Array.unsafe_get c (cb + 2)
            and s3 = scale *. Array.unsafe_get c (cb + 3) in
            for q = Array.unsafe_get fs (3 * n) to Array.unsafe_get fs ((3 * n) + 1) do
              let dv = A1.unsafe_get dvals q in
              let db = (Array.unsafe_get crd2 q * dcols) + jlo + t0 in
              a0 := !a0 +. (dv *. (s0 *. Array.unsafe_get d db));
              a1 := !a1 +. (dv *. (s1 *. Array.unsafe_get d (db + 1)));
              a2 := !a2 +. (dv *. (s2 *. Array.unsafe_get d (db + 2)));
              a3 := !a3 +. (dv *. (s3 *. Array.unsafe_get d (db + 3)))
            done
          done;
          Array.unsafe_set a o !a0;
          Array.unsafe_set a (o + 1) !a1;
          Array.unsafe_set a (o + 2) !a2;
          Array.unsafe_set a (o + 3) !a3;
          t := t0 + 4
        done;
        for t = !t to js - 1 do
          let acc = ref (Array.unsafe_get a (abase + t)) in
          for n = 0 to nf - 1 do
            let s = scale *. Array.unsafe_get c (Array.unsafe_get fs ((3 * n) + 2) + t) in
            for q = Array.unsafe_get fs (3 * n) to Array.unsafe_get fs ((3 * n) + 1) do
              acc :=
                !acc
                +. A1.unsafe_get dvals q
                   *. (s *. Array.unsafe_get d ((Array.unsafe_get crd2 q * dcols) + jlo + t))
            done
          done;
          Array.unsafe_set a (abase + t) !acc
        done)

(* ------------------------------------------------------------------ *)
(* Three-way merge (SpAdd3)                                             *)
(* ------------------------------------------------------------------ *)

(* Bounds-check one operand row's entries [lo .. hi] once, so the cursor
   may read them unchecked. *)
let check_row (crd : int array) (vals : Region.F.buf) lo hi =
  if lo <= hi && (lo < 0 || hi >= Array.length crd || hi >= A1.dim vals) then
    Error.fail Error.Leaf "merge: row entries %d..%d outside an operand" lo hi

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
   pass, which also checks each row's ranges.

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
  let entries = ref 0 in
  Iset.iter
    (fun r ->
      let alo, ahi = pa.(r) and blo, bhi = pb.(r) in
      check_row ca va alo ahi;
      check_row cb vb blo bhi;
      entries := !entries + Int.max 0 (ahi - alo + 1) + Int.max 0 (bhi - blo + 1);
      if three then begin
        let clo, chi = pc.(r) in
        check_row cc vc clo chi;
        entries := !entries + Int.max 0 (chi - clo + 1)
      end)
    rows;
  let in_place, (opos, ocrd, ovals) =
    match into with
    | Some ((opos, _, _) as o) ->
        if Array.length opos <> Array.length pa then raise Reassemble;
        (true, o)
    | None -> (false, ([||], [||], va))
  in
  let nrows = if in_place then 0 else Iset.cardinal rows in
  let mrows = Array.make nrows 0 and mcounts = Array.make nrows 0 in
  let bound = if in_place then 0 else !entries in
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
      Leaf.merge_work ~entries:(float_of_int !entries) ~emitted:(float_of_int !n);
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
      let run =
        match l.l_walk.w_fast with
        | Fast_spmv -> run_spmv m l
        | Fast_spmm { ccols } -> run_spmm m l ~ccols
        | Fast_sddmm { ccols; dcols } -> run_sddmm m l ~ccols ~dcols
        | Fast_ttv { fib } -> run_ttv m l ~fib
        | Fast_mttkrp { fib; ccols; dcols } -> run_mttkrp m l ~fib ~ccols ~dcols
        | Generic ->
            let out = resolve_out m l in
            fun shard ~col_range -> run_generic m l ~out ~shard ~col_range
      in
      let driver = m.m_plan.Leaf.pl_driver_name in
      fun ~shard_vals ~rows:_ ~col_range () -> run (shard_vals driver) ~col_range

let execute t ?(bindings = t.bindings) ?into ~shard_vals ~rows ~col_range () =
  launch ?into t ~bindings ~shard_vals ~rows ~col_range ()

let path_name t =
  match t.kind with
  | C_merge { g_cursor; _ } -> if g_cursor then "csr-merge" else "merge"
  | C_mul m -> (
      match m.m_walk.w_fast with
      | Generic -> "generic"
      | Fast_spmv -> "csr-spmv"
      | Fast_spmm _ -> "csr-spmm"
      | Fast_sddmm _ -> "csr-sddmm"
      | Fast_ttv _ -> "fiber-ttv"
      | Fast_mttkrp _ -> "fiber-mttkrp")
