open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
module A1 = Bigarray.Array1

type merge_partial = {
  mrows : int array;
  mcounts : int array;
  mcrd : int array;
  mvals : float array;
}

type result = { work : Task.work; partial : merge_partial option }

(* ------------------------------------------------------------------ *)
(* Coordinate expansion: logical coordinates and per-level positions of
   every leaf position, built once per launch from the driver's levels.  *)
(* ------------------------------------------------------------------ *)

type expansion = {
  ecoords : int array array;  (* [logical dim][leaf pos] *)
  epos : int array array;  (* [level][leaf pos] *)
}

let expand (t : Tensor.t) =
  let ord = Tensor.order t in
  let n = Tensor.nnz t in
  let ecoords = Array.init ord (fun _ -> Array.make n 0) in
  let epos = Array.init ord (fun _ -> Array.make n 0) in
  let coords = Array.make ord 0 and positions = Array.make ord 0 in
  let rec go k parent_pos =
    if k = ord then
      for d = 0 to ord - 1 do
        ecoords.(t.Tensor.mode_order.(d)).(parent_pos) <- coords.(d);
        epos.(d).(parent_pos) <- positions.(d)
      done
    else
      match t.Tensor.levels.(k) with
      | Level.Dense { dim } ->
          for c = 0 to dim - 1 do
            coords.(k) <- c;
            positions.(k) <- (parent_pos * dim) + c;
            go (k + 1) positions.(k)
          done
      | Level.Compressed { pos; crd } ->
          let lo, hi = Region.get pos parent_pos in
          for p = lo to hi do
            coords.(k) <- Region.get crd p;
            positions.(k) <- p;
            go (k + 1) p
          done
      | Level.Singleton { crd } ->
          coords.(k) <- Region.get crd parent_pos;
          positions.(k) <- parent_pos;
          go (k + 1) parent_pos
  in
  if n > 0 then go 0 0;
  { ecoords; epos }

(* ------------------------------------------------------------------ *)
(* Kernel classification, shared between the interpreter and the        *)
(* compiled backend so the two cannot disagree on a kernel's shape.     *)
(* ------------------------------------------------------------------ *)

type idx_src = Driver_dim of int | Inner_out | Inner_red

(* A dense factor names its operand; its storage is looked up in the launch
   bindings on every execute, so a plan may run against any bindings with
   the same shapes. *)
type factor =
  | F_vec of string * idx_src
  | F_mat of string * int * idx_src * idx_src

(* Where the output lives; like a factor, resolved to storage in the launch
   bindings on every execute. *)
type sink_spec =
  | Sp_vec of idx_src
  | Sp_mat of idx_src * idx_src
  | Sp_sparse of int option
      (* [Some level] maps leaf positions to output positions at that storage
         level (pattern shared above the leaf); [None] writes at the leaf. *)

type plan = {
  pl_driver_name : string;
  pl_out_name : string;
  pl_nslots : int;  (* arity of the driver's access *)
  pl_inner_out : bool;  (* has a dense output var the driver doesn't bind *)
  pl_inner_red : bool;  (* has a dense reduction var *)
  pl_jext : int;  (* inner-out extent (0 when absent) *)
  pl_kext : int;  (* inner-red extent (0 when absent) *)
  pl_factors : factor array;
  pl_sink : sink_spec;
  pl_scale : float;  (* product of literal coefficients *)
  pl_nnz_split : bool;
}

let var_pos_opt (acc : Tin.access) v =
  let rec go i = function
    | [] -> None
    | x :: _ when x = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 acc.Tin.indices

let src_of_var ~driver_acc ~inner_out ~inner_red v =
  if Some v = inner_out then Inner_out
  else if Some v = inner_red then Inner_red
  else
    match var_pos_opt driver_acc v with
    | Some i -> Driver_dim i
    | None -> Error.fail Error.Leaf "variable %s has no source" v

let eval_src coords ~j ~k = function
  | Driver_dim d -> coords.(d)
  | Inner_out -> j
  | Inner_red -> k

let plan_mul ~bindings ~(leaf : Loop_ir.leaf) ~driver_name =
  let stmt = leaf.Loop_ir.leaf_stmt in
  let driver = Operand.find_sparse bindings driver_name in
  let ord = Tensor.order driver in
  let driver_acc =
    match
      List.find_opt (fun a -> a.Tin.tensor = driver_name) (Tin.rhs_accesses stmt)
    with
    | Some a -> a
    | None -> Error.fail ~kernel:driver_name Error.Leaf "driver access missing"
  in
  let out = stmt.Tin.lhs in
  let inner_out =
    List.find_opt (fun v -> var_pos_opt driver_acc v = None) out.Tin.indices
  in
  let inner_red =
    List.find_opt
      (fun v ->
        var_pos_opt driver_acc v = None && not (List.mem v out.Tin.indices))
      (Tin.index_vars stmt)
  in
  let src = src_of_var ~driver_acc ~inner_out ~inner_red in
  let factors =
    List.filter_map
      (fun (a : Tin.access) ->
        if a.Tin.tensor = driver_name then None
        else
          match (Operand.find bindings a.Tin.tensor).Operand.data with
          | Operand.Vec _ -> (
              match a.Tin.indices with
              | [ iv ] -> Some (F_vec (a.Tin.tensor, src iv))
              | _ -> Error.fail ~kernel:a.Tin.tensor Error.Leaf "vector arity")
          | Operand.Mat m -> (
              match a.Tin.indices with
              | [ r; c ] ->
                  Some (F_mat (a.Tin.tensor, m.Dense.cols, src r, src c))
              | _ -> Error.fail ~kernel:a.Tin.tensor Error.Leaf "matrix arity")
          | Operand.Sparse _ ->
              Error.fail ~kernel:a.Tin.tensor Error.Leaf
                "second sparse operand in a product")
      (Tin.rhs_accesses stmt)
    |> Array.of_list
  in
  let sink =
    match (Operand.find bindings out.Tin.tensor).Operand.data with
    | Operand.Vec _ -> (
        match out.Tin.indices with
        | [ iv ] -> Sp_vec (src iv)
        | _ -> Error.fail ~kernel:out.Tin.tensor Error.Leaf "output vector arity")
    | Operand.Mat _ -> (
        match out.Tin.indices with
        | [ r; c ] -> Sp_mat (src r, src c)
        | _ -> Error.fail ~kernel:out.Tin.tensor Error.Leaf "output matrix arity")
    | Operand.Sparse _ ->
        let depth = List.length out.Tin.indices in
        if depth = ord then Sp_sparse None else Sp_sparse (Some (depth - 1))
  in
  let extent_of_inner v =
    let rec find = function
      | [] -> Error.fail ~kernel:driver_name Error.Leaf "no extent for %s" v
      | (a : Tin.access) :: rest -> (
          match var_pos_opt a v with
          | Some p when a.Tin.tensor <> driver_name ->
              Operand.dim (Operand.find bindings a.Tin.tensor).Operand.data p
          | _ -> find rest)
    in
    find (out :: Tin.rhs_accesses stmt)
  in
  let jext = match inner_out with None -> 0 | Some v -> extent_of_inner v in
  let kext = match inner_red with None -> 0 | Some v -> extent_of_inner v in
  (* Every operand's extent along a variable must be the one the driver (or
     the inner variable's first operand) binds: a shorter dense operand
     used to be read past its end, a longer one silently cut. *)
  List.iter
    (fun (a : Tin.access) ->
      if a.Tin.tensor <> driver_name then
        let data = (Operand.find bindings a.Tin.tensor).Operand.data in
        List.iteri
          (fun p v ->
            let want =
              match src v with
              | Driver_dim d -> driver.Tensor.dims.(d)
              | Inner_out -> jext
              | Inner_red -> kext
            in
            let got = Operand.dim data p in
            if got <> want then
              Error.fail ~kernel:a.Tin.tensor Error.Leaf
                "%s is %d along %s, which binds %d" a.Tin.tensor got v want)
          a.Tin.indices)
    (out :: Tin.rhs_accesses stmt);
  (* Literal coefficients multiply through the (fragment-validated: pure)
     product; they were silently dropped before the fuzzer caught it. *)
  let rec lit_product = function
    | Tin.Lit f -> f
    | Tin.Mul (a, b) -> lit_product a *. lit_product b
    | Tin.Access _ | Tin.Add _ -> 1.
  in
  {
    pl_driver_name = driver_name;
    pl_out_name = out.Tin.tensor;
    pl_nslots = List.length driver_acc.Tin.indices;
    pl_inner_out = inner_out <> None;
    pl_inner_red = inner_red <> None;
    pl_jext = jext;
    pl_kext = kext;
    pl_factors = factors;
    pl_sink = sink;
    pl_scale = lit_product stmt.Tin.rhs;
    pl_nnz_split = leaf.Loop_ir.nnz_split;
  }

(* The factors' storage in the launch bindings, in plan order. *)
let factor_data ~bindings plan =
  Array.map
    (fun f ->
      let name = match f with F_vec (n, _) | F_mat (n, _, _, _) -> n in
      match (Operand.find bindings name).Operand.data with
      | Operand.Vec v -> v.Dense.data
      | Operand.Mat m -> m.Dense.data
      | Operand.Sparse _ ->
          Error.fail ~kernel:name Error.Leaf "factor slot holds a sparse tensor")
    plan.pl_factors

(* Inner-loop bounds for one piece (inclusive; empty as [(0, -1)]). *)
let j_bounds plan ~col_range =
  match (plan.pl_inner_out, col_range) with
  | false, _ -> (0, -1)
  | true, None -> (0, plan.pl_jext - 1)
  | true, Some (lo, hi) -> (lo, hi)

let k_bounds plan = if plan.pl_inner_red then (0, plan.pl_kext - 1) else (0, -1)

(* Work model: bytes move once per executed access; the output row amortizes
   over the row's non-zeros (detected by row changes in the sorted
   iteration).  Shared verbatim by both backends so Cost totals cannot
   drift. *)
let mul_work plan ~nnz ~rows_touched ~js ~ks =
  let n = float_of_int nnz in
  let rows = float_of_int (max 1 rows_touched) in
  let nff = float_of_int (Array.length plan.pl_factors) in
  let js = float_of_int (max 0 js) and ks = float_of_int (max 0 ks) in
  let flops, read, written =
    match (plan.pl_inner_out, plan.pl_inner_red) with
    | false, false -> (2. *. n, (16. +. (8. *. nff)) *. n, 8. *. rows)
    | true, false ->
        ( 2. *. n *. js,
          (16. *. n) +. (8. *. n *. js) +. (8. *. rows *. js),
          8. *. rows *. js )
    | false, true -> ((2. *. ks +. 2.) *. n, (16. *. n) +. (16. *. n *. ks), 8. *. n)
    | true, true -> (0., 0., 0.)
  in
  let atomics =
    plan.pl_nnz_split
    && (match plan.pl_sink with Sp_sparse None -> false | _ -> true)
  in
  { Task.flops; bytes_read = read; bytes_written = written; atomics }

(* ------------------------------------------------------------------ *)
(* Multiplicative kernels (interpreter)                                  *)
(* ------------------------------------------------------------------ *)

(* Resolved sink storage: looked up per call (see {!sink_spec}). *)
type sink =
  | S_vec of float array * idx_src
  | S_mat of float array * int * idx_src * idx_src
  | S_sparse of Region.F.buf * int array option

let resolve_sink ~bindings ~exp plan =
  match (Operand.find bindings plan.pl_out_name).Operand.data with
  | Operand.Vec v -> (
      match plan.pl_sink with
      | Sp_vec s -> S_vec (v.Dense.data, s)
      | _ -> Error.fail ~kernel:plan.pl_out_name Error.Leaf "output slot changed shape")
  | Operand.Mat m -> (
      match plan.pl_sink with
      | Sp_mat (sr, sc) -> S_mat (m.Dense.data, m.Dense.cols, sr, sc)
      | _ -> Error.fail ~kernel:plan.pl_out_name Error.Leaf "output slot changed shape")
  | Operand.Sparse ot -> (
      match plan.pl_sink with
      | Sp_sparse None -> S_sparse (ot.Tensor.vals.Region.F.data, None)
      | Sp_sparse (Some lvl) ->
          S_sparse (ot.Tensor.vals.Region.F.data, Some exp.epos.(lvl))
      | _ -> Error.fail ~kernel:plan.pl_out_name Error.Leaf "output slot changed shape")

(* Staged: the plan, the storage and the driver's expansion are resolved
   once per launch; each piece then only reads them. *)
let mul_kernel ~bindings ~(leaf : Loop_ir.leaf) ~driver_name =
  let plan = plan_mul ~bindings ~leaf ~driver_name in
  let driver = Operand.find_sparse bindings driver_name in
  let exp = expand driver in
  let sink = resolve_sink ~bindings ~exp plan in
  let factors = plan.pl_factors in
  let fdata = factor_data ~bindings plan in
  let klo, khi = k_bounds plan in
  let dvals = driver.Tensor.vals.Region.F.data in
  let nslots = plan.pl_nslots in
  (* Slot [s] of the driver access binds the driver's logical dimension
     [s]. *)
  let coord_arrays = Array.init nslots (fun s -> exp.ecoords.(s)) in
  let nf = Array.length factors in
  let scale = plan.pl_scale in
  fun ~shard ~col_range ->
    let jlo, jhi = j_bounds plan ~col_range in
    let coords = Array.make nslots 0 in
    let eval_factors ~j ~k =
      let acc = ref scale in
      for f = 0 to nf - 1 do
        acc :=
          !acc
          *.
          (match factors.(f) with
          | F_vec (_, s) -> fdata.(f).(eval_src coords ~j ~k s)
          | F_mat (_, cols, sr, sc) ->
              fdata.(f).((eval_src coords ~j ~k sr * cols) + eval_src coords ~j ~k sc))
      done;
      !acc
    in
    let last_row = ref (-1) and rows_touched = ref 0 and nnz = ref 0 in
    Iset.iter_intervals
      (fun plo phi ->
        for p = plo to phi do
          let dv = A1.get dvals p in
          for s = 0 to nslots - 1 do
            coords.(s) <- coord_arrays.(s).(p)
          done;
          if coords.(0) <> !last_row then begin
            incr rows_touched;
            last_row := coords.(0)
          end;
          incr nnz;
          match (plan.pl_inner_out, plan.pl_inner_red) with
          | false, false -> (
              let y = dv *. eval_factors ~j:0 ~k:0 in
              match sink with
              | S_vec (d, s) ->
                  let i = eval_src coords ~j:0 ~k:0 s in
                  d.(i) <- d.(i) +. y
              | S_mat (d, cols, sr, sc) ->
                  let i =
                    (eval_src coords ~j:0 ~k:0 sr * cols) + eval_src coords ~j:0 ~k:0 sc
                  in
                  d.(i) <- d.(i) +. y
              | S_sparse (d, None) -> A1.set d p (A1.get d p +. y)
              | S_sparse (d, Some lp) ->
                  let q = lp.(p) in
                  A1.set d q (A1.get d q +. y))
          | true, false ->
              for j = jlo to jhi do
                let y = dv *. eval_factors ~j ~k:0 in
                match sink with
                | S_mat (d, cols, sr, sc) ->
                    let i = (eval_src coords ~j ~k:0 sr * cols) + eval_src coords ~j ~k:0 sc in
                    d.(i) <- d.(i) +. y
                | S_vec (d, s) ->
                    let i = eval_src coords ~j ~k:0 s in
                    d.(i) <- d.(i) +. y
                | S_sparse _ -> Error.fail ~kernel:driver_name Error.Leaf "inner-out with sparse output"
              done
          | false, true -> (
              let acc = ref 0. in
              for k = klo to khi do
                acc := !acc +. eval_factors ~j:0 ~k
              done;
              let y = dv *. !acc in
              match sink with
              | S_sparse (d, None) -> A1.set d p (A1.get d p +. y)
              | S_sparse (d, Some lp) ->
                  let q = lp.(p) in
                  A1.set d q (A1.get d q +. y)
              | S_vec (d, s) ->
                  let i = eval_src coords ~j:0 ~k:0 s in
                  d.(i) <- d.(i) +. y
              | S_mat (d, cols, sr, sc) ->
                  let i =
                    (eval_src coords ~j:0 ~k:0 sr * cols) + eval_src coords ~j:0 ~k:0 sc
                  in
                  d.(i) <- d.(i) +. y)
          | true, true ->
              Error.fail ~kernel:driver_name Error.Leaf
                "simultaneous inner output and reduction vars"
        done)
      shard;
    {
      work =
        mul_work plan ~nnz:!nnz ~rows_touched:!rows_touched ~js:(jhi - jlo + 1)
          ~ks:(khi - klo + 1);
      partial = None;
    }

(* ------------------------------------------------------------------ *)
(* Additive merge kernels (SpAdd3): per-row k-way merge with two-phase
   assembly semantics (the count pass is folded into the byte model).   *)
(* ------------------------------------------------------------------ *)

(* Resolved per-operand storage of a merge: (pos, crd, vals) triples. *)
type merge_op = (int * int) array * int array * Region.F.buf

(* Every operand must have the first one's dims: a row past another
   operand's end, or a column past the output's, is a shape error, not an
   index fault. *)
let merge_ops ~bindings ~tensors : merge_op array * int =
  let first =
    match tensors with f :: _ -> f | [] -> Error.fail Error.Leaf "merge without operands"
  in
  let dims = (Operand.find_sparse bindings first).Tensor.dims in
  let ops =
    List.map
      (fun name ->
        let t = Operand.find_sparse bindings name in
        if Tensor.order t <> 2 then
          Error.fail ~kernel:name Error.Leaf "merge needs matrices";
        if t.Tensor.dims <> dims then
          Error.fail ~kernel:name Error.Leaf
            "merge operand %s is %dx%d, %s is %dx%d" name t.Tensor.dims.(0)
            t.Tensor.dims.(1) first dims.(0) dims.(1);
        ( (Tensor.pos_of t 1).Region.data,
          (Tensor.crd_of t 1).Region.data,
          t.Tensor.vals.Region.F.data ))
      tensors
  in
  (Array.of_list ops, dims.(1))

(* The stored entries of [pos]'s rows in [rows], and the [lor] over the
   non-empty ones of their starts and of [len - 1] less their ends: it is
   negative iff one of them has an entry outside [0 .. len - 1].  [rows] is
   checked against [pos] once (a typed error, where a checked load would
   raise [Invalid_argument]), so the loop loads unchecked and makes no
   call, and its counters stay in registers. *)
let pos_entries (pos : (int * int) array) len rows =
  if
    (not (Iset.is_empty rows))
    && (Iset.min_elt rows < 0 || Iset.max_elt rows >= Array.length pos)
  then
    Error.fail Error.Leaf "merge: rows %d..%d outside an operand of %d rows"
      (Iset.min_elt rows) (Iset.max_elt rows) (Array.length pos);
  Iset.fold_intervals
    (fun rlo rhi (n, bad) ->
      let n = ref n and bad = ref bad in
      for r = rlo to rhi do
        let lo, hi = Array.unsafe_get pos r in
        if lo <= hi then begin
          n := !n + (hi - lo + 1);
          bad := !bad lor lo lor (len - 1 - hi)
        end
      done;
      (!n, !bad))
    rows (0, 0)

(* Fails on the first row, in row order, that has entries outside its
   operand's [crd] or values. *)
let row_fault (ops : merge_op array) rows =
  Iset.iter
    (fun r ->
      Array.iter
        (fun ((pos : (int * int) array), crd, vals) ->
          let lo, hi = pos.(r) in
          if lo <= hi && (lo < 0 || hi >= Array.length crd || hi >= A1.dim vals)
          then
            Error.fail Error.Leaf "merge: row entries %d..%d outside an operand"
              lo hi)
        ops)
    rows

let row_entries (ops : merge_op array) rows =
  Array.fold_left
    (fun acc (pos, crd, vals) ->
      let n, bad = pos_entries pos (Int.min (Array.length crd) (A1.dim vals)) rows in
      if bad < 0 then row_fault ops rows;
      acc + n)
    0 ops

(* Max-heap sift-down of [a.(lo + i)] within the heap [a.(lo) .. a.(lo +
   len - 1)]. *)
let rec sift_down (a : int array) lo i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
    if a.(lo + c) > a.(lo + i) then begin
      let t = a.(lo + i) in
      a.(lo + i) <- a.(lo + c);
      a.(lo + c) <- t;
      sift_down a lo c len
    end
  end

(* In-place heapsort of [a.(lo) .. a.(lo + n - 1)]. *)
let sort_range (a : int array) lo n =
  for i = (n / 2) - 1 downto 0 do
    sift_down a lo i n
  done;
  for len = n - 1 downto 1 do
    let t = a.(lo) in
    a.(lo) <- a.(lo + len);
    a.(lo + len) <- t;
    sift_down a lo 0 len
  done

(* 32 B read per consumed entry either way: the workspace reads value and
   crd and read-modify-writes the workspace; the merge reads value and crd
   (16 B) in both passes of two-phase assembly.  Each emitted entry writes
   16 B. *)
let merge_work ~entries ~emitted =
  {
    Task.flops = entries;
    bytes_read = 32. *. entries;
    bytes_written = 16. *. emitted;
    atomics = false;
  }

(* The interpreter's merge, and the differential oracle for the compiled
   three-way cursor ({!Compile_leaf}); the compiled backend also falls back
   to it for the workspace strategy and for other arities.  It writes
   straight into the partial's arrays, sized by the rows' stored entries
   (every emitted entry consumes at least one, so this bounds the output),
   and keeps one cursor per operand: no per-row or per-entry allocation. *)
let merge_core ~(ops : merge_op array) ~cols ~rows ~use_workspace =
  let nops = Array.length ops in
  let bound = row_entries ops rows in
  let nrows = Iset.cardinal rows in
  let mrows = Array.make nrows 0 and mcounts = Array.make nrows 0 in
  (* Only [mvals.(0 .. n-1)] is ever read, so it needs no fill. *)
  let mcrd = Array.make bound 0 and mvals = Array.create_float bound in
  let n = ref 0 and row = ref 0 and consumed = ref 0 in
  (* Workspace strategy (Kjolstad et al. [22]): scatter each operand row
     into a dense accumulator, track touched columns, then sort and emit —
     no k-way comparisons, at the cost of random workspace traffic.  The
     touched columns are collected and sorted in place in [mcrd]. *)
  let w = if use_workspace then Array.make cols 0. else [||] in
  let touched = if use_workspace then Array.make cols false else [||] in
  let workspace_row r =
    let start = !n in
    for o = 0 to nops - 1 do
      let pos, crd, vals = ops.(o) in
      let lo, hi = pos.(r) in
      for p = lo to hi do
        let j = crd.(p) in
        if not touched.(j) then begin
          touched.(j) <- true;
          mcrd.(!n) <- j;
          incr n
        end;
        w.(j) <- w.(j) +. A1.get vals p
      done;
      consumed := !consumed + max 0 (hi - lo + 1)
    done;
    sort_range mcrd start (!n - start);
    for q = start to !n - 1 do
      let j = mcrd.(q) in
      mvals.(q) <- w.(j);
      w.(j) <- 0.;
      touched.(j) <- false
    done
  in
  (* k-way merge: emit the least column under any cursor, summing every
     operand's run of it in operand order. *)
  let cur = Array.make nops 0 and last = Array.make nops 0 in
  let merge_row r =
    for o = 0 to nops - 1 do
      let pos, _, _ = ops.(o) in
      let lo, hi = pos.(r) in
      cur.(o) <- lo;
      last.(o) <- hi
    done;
    let go = ref true in
    while !go do
      let mincol = ref max_int in
      for o = 0 to nops - 1 do
        let _, crd, _ = ops.(o) in
        if cur.(o) <= last.(o) && crd.(cur.(o)) < !mincol then mincol := crd.(cur.(o))
      done;
      if !mincol = max_int then go := false
      else begin
        let sum = ref 0. in
        for o = 0 to nops - 1 do
          let _, crd, vals = ops.(o) in
          while cur.(o) <= last.(o) && crd.(cur.(o)) = !mincol do
            sum := !sum +. A1.get vals cur.(o);
            incr consumed;
            cur.(o) <- cur.(o) + 1
          done
        done;
        mcrd.(!n) <- !mincol;
        mvals.(!n) <- !sum;
        incr n
      end
    done
  in
  Iset.iter
    (fun r ->
      let start = !n in
      if use_workspace then workspace_row r else merge_row r;
      mrows.(!row) <- r;
      mcounts.(!row) <- !n - start;
      incr row)
    rows;
  (* Integer tallies convert exactly, so the floats equal the per-entry
     float sums. *)
  {
    work =
      merge_work ~entries:(float_of_int !consumed) ~emitted:(float_of_int !n);
    partial = Some { mrows; mcounts; mcrd; mvals };
  }

let execute ~bindings ~leaf =
  match leaf.Loop_ir.driver with
  | Loop_ir.Sparse_driver driver_name ->
      let run = mul_kernel ~bindings ~leaf ~driver_name in
      fun ~shard_vals ~rows:_ ~col_range () ->
        run ~shard:(shard_vals driver_name) ~col_range
  | Loop_ir.Merge_driver tensors -> (
      let ops, cols = merge_ops ~bindings ~tensors in
      fun ~shard_vals:_ ~rows ~col_range:_ () ->
        match rows with
        | Some rows ->
            merge_core ~ops ~cols ~rows
              ~use_workspace:leaf.Loop_ir.use_workspace
        | None -> Error.fail Error.Leaf "merge kernel needs a row set")
