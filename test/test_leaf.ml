(* Leaf-level contracts of the compiled backend: the array merge core equals
   the list-based core it replaced, the held and dot bodies on fiber, CSR
   and other driver layouts equal the interpreter on cut shards, compiled
   leaves allocate nothing per stored element, and the affine body matches
   the interpreter on shapes the kernel catalog does not reach. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec
module A1 = Bigarray.Array1

(* --- Problems -------------------------------------------------------------- *)

let row_sched tensors =
  [
    Schedule.Divide { v = "i"; outer = "io"; inner = "ii" };
    Schedule.Distribute [ "io" ];
    Schedule.Communicate { tensors; at = "io" };
    Schedule.Parallelize { v = "ii"; proc = Schedule.Cpu_thread };
  ]

(* A row-distributed problem over [operands] (name, slot, blocked?). *)
let shape_problem stmt operands () =
  let ops = operands () in
  Core.Spdistal.problem ~machine:(Helpers.cpu_machine 3)
    ~operands:
      (List.map
         (fun (name, slot, blocked) ->
           (name, slot, if blocked then Helpers.blocked_tdn else Tdn.Replicated))
         ops)
    ~stmt:(Tin.of_string_exn stmt)
    ~schedule:(row_sched (List.map (fun (n, _, _) -> n) ops))

(* The two-operand merge [A = B + C], for [B] and [C] of one shape. *)
let add2_problem b c =
  let dims = b.Tensor.dims in
  shape_problem "A(i,j) = B(i,j) + C(i,j)"
    (fun () ->
      [
        ("A", Operand.sparse (Tensor.csr ~name:"A" (Coo.make dims [])), true);
        ("B", Operand.sparse b, true);
        ("C", Operand.sparse c, true);
      ])
    ()

(* --- Merge core vs the list-based model ---------------------------------- *)

(* The merge core the array version replaced: per-row lists, a cursor list
   of refs per row, [List.sort] over the touched columns, [@] appends and a
   float tally per entry.  It is the reference model for the interpreter's
   core, which is in turn the oracle for the compiled merge cursor. *)
module Model = struct
  let merge_core ~(ops : Leaf.merge_op list) ~cols ~rows ~use_workspace =
    let flops = ref 0. and br = ref 0. and bw = ref 0. in
    let rows_list = ref [] and counts = ref [] in
    let crd_acc = ref [] and vals_acc = ref [] in
    let w = if use_workspace then Array.make cols 0. else [||] in
    let touched = if use_workspace then Array.make cols false else [||] in
    let workspace_row r emit =
      let idx = ref [] in
      List.iter
        (fun ((pos, crd, vals) : Leaf.merge_op) ->
          let lo, hi = pos.(r) in
          for p = lo to hi do
            let j = crd.(p) in
            if not touched.(j) then begin
              touched.(j) <- true;
              idx := j :: !idx
            end;
            w.(j) <- w.(j) +. A1.get vals p;
            flops := !flops +. 1.;
            br := !br +. 32.
          done)
        ops;
      let sorted = List.sort compare !idx in
      List.iter
        (fun j ->
          emit j w.(j);
          w.(j) <- 0.;
          touched.(j) <- false)
        sorted
    in
    let merge_row r emit =
      let cursors =
        List.map
          (fun ((pos, crd, vals) : Leaf.merge_op) ->
            let lo, hi = pos.(r) in
            (ref lo, hi, crd, vals))
          ops
      in
      let rec step () =
        let mincol =
          List.fold_left
            (fun m (i, hi, crd, _) -> if !i <= hi then min m crd.(!i) else m)
            max_int cursors
        in
        if mincol < max_int then begin
          let sum = ref 0. in
          List.iter
            (fun (i, hi, crd, vals) ->
              while !i <= hi && crd.(!i) = mincol do
                sum := !sum +. A1.get vals !i;
                flops := !flops +. 1.;
                br := !br +. 16.;
                incr i
              done)
            cursors;
          emit mincol !sum;
          step ()
        end
      in
      step ()
    in
    let do_row = if use_workspace then workspace_row else merge_row in
    Iset.iter
      (fun r ->
        let row_nnz = ref 0 in
        let row_crd = ref [] and row_vals = ref [] in
        do_row r (fun col v ->
            incr row_nnz;
            row_crd := col :: !row_crd;
            row_vals := v :: !row_vals;
            bw := !bw +. 16.);
        rows_list := r :: !rows_list;
        counts := !row_nnz :: !counts;
        crd_acc := !row_crd @ !crd_acc;
        vals_acc := !row_vals @ !vals_acc)
      rows;
    let partial =
      {
        Leaf.mrows = Array.of_list (List.rev !rows_list);
        mcounts = Array.of_list (List.rev !counts);
        mcrd = Array.of_list (List.rev !crd_acc);
        mvals = Array.of_list (List.rev !vals_acc);
      }
    in
    if not use_workspace then br := !br *. 2.;
    {
      Leaf.work =
        { Task.flops = !flops; bytes_read = !br; bytes_written = !bw; atomics = false };
      partial = Some partial;
    }
end

(* A merge over [nops] operands of an [nrows x cols] matrix.  Column sets
   are random sorted rows, identical across operands, disjoint across
   operands (operand [o] owns the columns [= o mod nops]), or raw: unsorted
   with duplicates, which both cores must still treat alike.  Any row may be
   empty, and the row set may be scattered, empty or everything. *)
type merge_case = {
  shape : string;
  cols : int;
  ops : Leaf.merge_op array;
  rows : Iset.t;
}

let gen_merge_case ?(arities = [| 1; 2; 3; 4 |]) st =
  let int = Random.State.int st in
  let nrows = 1 + int 10 and cols = 1 + int 12 in
  let nops = arities.(int (Array.length arities)) in
  let shape = [| "random"; "identical"; "disjoint"; "raw" |].(int 4) in
  let sorted_subset keep =
    List.filter (fun c -> keep c && int 3 = 0) (List.init cols Fun.id)
  in
  let row_cols o shared =
    if int 5 = 0 then []
    else
      match shape with
      | "random" -> sorted_subset (fun _ -> true)
      | "identical" -> shared
      | "disjoint" -> sorted_subset (fun c -> c mod nops = o)
      | _ -> List.init (int 6) (fun _ -> int cols)
  in
  let shared = Array.init nrows (fun _ -> sorted_subset (fun _ -> true)) in
  let op o =
    let per_row = Array.init nrows (fun r -> row_cols o shared.(r)) in
    let crd = Array.of_list (List.concat (Array.to_list per_row)) in
    let next = ref 0 in
    let pos =
      Array.map
        (fun cs ->
          let lo = !next in
          next := lo + List.length cs;
          (lo, !next - 1))
        per_row
    in
    (* Signed zeros too: a sum that starts anywhere but [0.] shows on
       [-0.]. *)
    let value _ =
      match int 8 with 0 -> 0. | 1 -> -0. | _ -> Random.State.float st 2. -. 1.
    in
    let vals = A1.of_array Bigarray.float64 Bigarray.c_layout (Array.map value crd) in
    ((pos, crd, vals) : Leaf.merge_op)
  in
  let rows =
    match int 4 with
    | 0 -> Iset.empty
    | 1 -> Iset.range nrows
    | _ -> Iset.of_list (List.init (int (nrows + 1)) (fun _ -> int nrows))
  in
  { shape; cols; ops = Array.init nops op; rows }

let print_merge_case c =
  let op ((pos, crd, _) : Leaf.merge_op) =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun (lo, hi) ->
              "["
              ^ String.concat ","
                  (List.init (max 0 (hi - lo + 1)) (fun i -> string_of_int crd.(lo + i)))
              ^ "]")
            pos))
  in
  Format.asprintf "%s, %d cols, rows %a@.%s" c.shape c.cols Iset.pp c.rows
    (String.concat "\n" (Array.to_list (Array.map op c.ops)))

let bits = Array.map Int64.bits_of_float

let work_bits (w : Task.work) =
  ( Int64.bits_of_float w.Task.flops,
    Int64.bits_of_float w.Task.bytes_read,
    Int64.bits_of_float w.Task.bytes_written,
    w.Task.atomics )

let same_merge (a : Leaf.result) (b : Leaf.result) =
  work_bits a.Leaf.work = work_bits b.Leaf.work
  &&
  match (a.Leaf.partial, b.Leaf.partial) with
  | Some p, Some q ->
      let entries a = Array.sub a 0 (Array.fold_left ( + ) 0 p.Leaf.mcounts) in
      p.Leaf.mrows = q.Leaf.mrows
      && p.Leaf.mcounts = q.Leaf.mcounts
      && entries p.Leaf.mcrd = entries q.Leaf.mcrd
      && bits (entries p.Leaf.mvals) = bits (entries q.Leaf.mvals)
  | _ -> false

let prop_merge_core_equals_model =
  Helpers.qtest ~count:400 "array merge core = list-based model"
    (QCheck.make ~print:print_merge_case gen_merge_case)
    (fun c ->
      List.for_all
        (fun use_workspace ->
          same_merge
            (Leaf.merge_core ~ops:c.ops ~cols:c.cols ~rows:c.rows ~use_workspace)
            (Model.merge_core ~ops:(Array.to_list c.ops) ~cols:c.cols ~rows:c.rows
               ~use_workspace))
        [ false; true ])

(* --- Compiled merge cursor vs the merge core -------------------------------- *)

(* The CSR matrix [name] holding a merge operand's storage. *)
let tensor_of_op name ~cols ((pos, crd, vals) : Leaf.merge_op) =
  let nrows = Array.length pos in
  {
    Tensor.name;
    dims = [| nrows; cols |];
    mode_order = [| 0; 1 |];
    levels =
      [|
        Level.Dense { dim = nrows };
        Level.Compressed
          {
            pos = Region.of_array (name ^ ".pos") pos;
            crd = Region.of_array (name ^ ".crd") crd;
          };
      |];
    vals = Region.F.of_array (name ^ ".vals") (Array.init (A1.dim vals) (A1.get vals));
  }

(* A compiled merge leaf over the case's operands, bound as B, C (and D). *)
let merge_leaf c =
  let names = List.filteri (fun o _ -> o < Array.length c.ops) [ "B"; "C"; "D" ] in
  let nrows = Array.length (let pos, _, _ = c.ops.(0) in pos) in
  let bindings =
    ("A", Operand.sparse (Tensor.csr ~name:"A" (Coo.make [| nrows; c.cols |] [])))
    :: List.mapi (fun o n -> (n, Operand.sparse (tensor_of_op n ~cols:c.cols c.ops.(o)))) names
  in
  let leaf =
    {
      Loop_ir.leaf_stmt =
        Tin.of_string_exn
          ("A(i,j) = " ^ String.concat " + " (List.map (fun n -> n ^ "(i,j)") names));
      driver = Loop_ir.Merge_driver names;
      nnz_split = false;
      parallel = true;
      out_reduce = false;
      leaf_row_part = None;
      use_workspace = false;
      col_split = 1;
    }
  in
  Compile_leaf.compile ~bindings leaf

let prop_merge_cursor_equals_core =
  Helpers.qtest ~count:500 "compiled merge cursor = merge core"
    (QCheck.make ~print:print_merge_case (gen_merge_case ~arities:[| 2; 3 |]))
    (fun c ->
      let cl = merge_leaf c in
      Compile_leaf.path_name cl = "csr-merge"
      && same_merge
           (Compile_leaf.execute cl ~shard_vals:(fun _ -> Iset.empty) ~rows:(Some c.rows)
              ~col_range:None ())
           (Leaf.merge_core ~ops:c.ops ~cols:c.cols ~rows:c.rows ~use_workspace:false))

(* End to end, both backends agree bit for bit on SpAdd3 and on a
   two-operand add, with signed zeros stored, on 1 to 4 pieces. *)
let test_merge_backends_agree () =
  let module K = Core.Kernels in
  let with_zeros seed ?(name = "B") rows cols =
    let t = Helpers.rand_csr ~seed ~name rows cols 0.2 in
    let v = t.Tensor.vals in
    for q = 0 to Tensor.nnz t - 1 do
      if q mod 5 = 0 then Region.F.set v q (if q mod 10 = 0 then -0. else 0.)
    done;
    t
  in
  let b = with_zeros 50 30 24 in
  let c = with_zeros 51 ~name:"C" 30 24 and d = with_zeros 52 ~name:"D" 30 24 in
  List.iter
    (fun pieces ->
      let m = Helpers.cpu_machine pieces in
      let named what = Printf.sprintf "%s on %d pieces" what pieces in
      Test_exec.check_backends_agree (named "SpAdd3 shifted") (fun () ->
          K.spadd3_problem ~machine:m b);
      Test_exec.check_backends_agree (named "SpAdd3 random") (fun () ->
          Helpers.spadd3_of ~machine:m b c d);
      Test_exec.check_backends_agree (named "SpAdd3 GPU") (fun () ->
          Helpers.spadd3_of ~machine:(Helpers.gpu_machine [| pieces |]) b c d))
    [ 1; 2; 3; 4 ];
  Test_exec.check_backends_agree "B + C" (fun () -> add2_problem b c)

(* Merge operands must share the first one's dims: a shorter C used to
   raise [Invalid_argument], a wider D to emit columns past A's.  A
   product's dense operands must have the driver's extent along every
   variable it binds: a 4-long c under an 8×4000 SpMV used to return
   garbage from the compiled backend, a 3-row D under a 300-wide k to raise
   [Invalid_argument] from the interpreter. *)
let test_merge_shape_checked () =
  let module K = Core.Kernels in
  let m = Helpers.cpu_machine 2 in
  let b = Helpers.rand_csr ~seed:46 20 20 0.2 in
  let short = Helpers.rand_csr ~seed:47 ~name:"C" 15 20 0.2 in
  let wide = Helpers.rand_csr ~seed:48 ~name:"D" 20 25 0.2 in
  let shift name by = K.shift_last_dim ~name ~by b in
  let short_c () =
    K.matched ~machine:m
      ~operands:
        [
          ("a", Operand.vec (Dense.vec_create "a" 8));
          ("B", Operand.sparse (Helpers.rand_csr ~seed:45 8 4000 0.01));
          ("c", Operand.vec (K.dense_vec "c" 4));
        ]
      ~stmt:Tin.spmv ~schedule:(row_sched [ "a"; "B"; "c" ])
  in
  let short_d () =
    let t = Helpers.rand_csf ~seed:44 6 5 300 0.02 in
    K.matched ~machine:m
      ~operands:
        [
          ("A", Operand.mat (Dense.mat_create "A" 6 4));
          ("B", Operand.sparse t);
          ("C", Operand.mat (K.dense_mat "C" 5 4));
          ("D", Operand.mat (K.dense_mat "D" 3 4));
        ]
      ~stmt:Tin.spmttkrp ~schedule:(row_sched [ "A"; "B"; "C"; "D" ])
  in
  List.iter
    (fun (name, make) ->
      List.iter
        (fun backend ->
          let name = name ^ " " ^ Compile_leaf.backend_name backend in
          match Core.Spdistal.run ~leaf_backend:backend (make ()) with
          | _ -> Alcotest.failf "%s: accepted" name
          | exception Error.Error { Error.phase = Error.Leaf; _ } -> ())
        [ Compile_leaf.Interp; Compile_leaf.Compiled ])
    [
      ("C with fewer rows", fun () -> Helpers.spadd3_of ~machine:m b short (shift "D" 2));
      ("D with more columns", fun () -> Helpers.spadd3_of ~machine:m b (shift "C" 1) wide);
      ("SpMV with a 4-long c", short_c);
      ("SpMTTKRP with a 3-row D", short_d);
    ]

(* --- Fiber fast paths vs the interpreter ---------------------------------- *)

(* A 3-tensor in identity mode order, CSF or (Dense, Dense, Compressed),
   given per fiber: [fibers] lists, in storage order, each fiber's slice
   [i], coordinate [j] and sorted [k]s.  A CSF fiber with no [k] is an
   empty fiber that [Tensor.of_coo] would never store; a slice with no
   fiber is an empty slice.  A DDC tensor lists all [d0·d1] fibers. *)
type fiber_case = {
  csf : bool;
  mttkrp : bool;
  dims : int array;
  fibers : (int * int * int list) array;
  vals : float array;  (* driver, then output, then factor values *)
  scale : string;  (* a literal coefficient prefix of the statement, or "" *)
  cols : int;
  col_range : (int * int) option;
  nnz_split : bool;
  shards : Iset.t list;
}

let fiber_tensor c =
  let nfib = Array.length c.fibers in
  let nnz = Array.fold_left (fun n (_, _, ks) -> n + List.length ks) 0 c.fibers in
  let pos2 = Array.make nfib (0, -1) and crd2 = Array.make (max nnz 1) 0 in
  let next = ref 0 in
  Array.iteri
    (fun f (_, _, ks) ->
      pos2.(f) <- (!next, !next + List.length ks - 1);
      List.iter
        (fun k ->
          crd2.(!next) <- k;
          incr next)
        ks)
    c.fibers;
  let leaf =
    Level.Compressed
      { pos = Region.of_array "B.pos2" pos2; crd = Region.of_array "B.crd2" crd2 }
  in
  let middle =
    if c.csf then
      (* Slice [i] holds the run of fibers listing [i]; an empty slice is the
         empty range [(f, f - 1)] at the next fiber [f]. *)
      let next = ref 0 in
      let pos1 =
        Array.init c.dims.(0) (fun i ->
            let lo = !next in
            while
              !next < nfib
              &&
              let fi, _, _ = c.fibers.(!next) in
              fi = i
            do
              incr next
            done;
            (lo, !next - 1))
      in
      Level.Compressed
        {
          pos = Region.of_array "B.pos1" pos1;
          crd = Region.of_array "B.crd1" (Array.map (fun (_, j, _) -> j) c.fibers);
        }
    else Level.Dense { dim = c.dims.(1) }
  in
  {
    Tensor.name = "B";
    dims = c.dims;
    mode_order = [| 0; 1; 2 |];
    levels = [| Level.Dense { dim = c.dims.(0) }; middle; leaf |];
    vals = Region.F.of_array "B.vals" (Array.sub c.vals 0 (max nnz 1));
  }

(* One to three piece shards over [nnz] stored values: the whole range, one
   interval, or a scattered subset, so shards cut rows, slices and fibers. *)
let gen_shards st nnz =
  let int = Random.State.int st in
  let random_shard () =
    if nnz = 0 then Iset.empty
    else
      match int 4 with
      | 0 -> Iset.range nnz
      | 1 ->
          let a = int nnz and b = int nnz in
          Iset.interval (min a b) (max a b)
      | _ -> Iset.of_list (List.filter (fun _ -> int 3 > 0) (List.init nnz Fun.id))
  in
  List.init (1 + int 3) (fun _ -> random_shard ())

let gen_fiber_case st =
  let int = Random.State.int st in
  let dims = Array.init 3 (fun _ -> 1 + int 6) in
  let csf = Random.State.bool st and mttkrp = Random.State.bool st in
  let ks () = List.filter (fun _ -> int 2 = 0) (List.init dims.(2) Fun.id) in
  let fibers =
    List.concat
      (List.init dims.(0) (fun i ->
           if csf && int 4 = 0 then []
           else
             List.filter_map
               (fun j ->
                 if not csf then Some (i, j, if int 3 = 0 then [] else ks ())
                 else if int 2 = 0 then None
                 else Some (i, j, if int 5 = 0 then [] else ks ()))
               (List.init dims.(1) Fun.id)))
    |> Array.of_list
  in
  let nnz = Array.fold_left (fun n (_, _, ks) -> n + List.length ks) 0 fibers in
  let cols = 1 + int 9 in
  {
    csf;
    mttkrp;
    dims;
    fibers;
    vals = Array.init 2000 (fun _ -> Random.State.float st 2. -. 1.);
    scale = [| ""; ""; "0.3 * "; "1.7 * " |].(int 4);
    cols;
    col_range = (if Random.State.bool st then None else Some (int cols, int cols));
    nnz_split = Random.State.bool st;
    shards = gen_shards st nnz;
  }

let print_fiber_case c =
  Format.asprintf "%s %s %s%a, cols %d, col_range %s, nnz_split %b@.fibers %s@.shards %s"
    (if c.mttkrp then "SpMTTKRP" else "SpTTV")
    (if c.csf then "CSF" else "DDC")
    c.scale
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f "x") Format.pp_print_int)
    (Array.to_list c.dims) c.cols
    (match c.col_range with None -> "none" | Some (lo, hi) -> Printf.sprintf "%d..%d" lo hi)
    c.nnz_split
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun (i, j, ks) ->
               Printf.sprintf "(%d,%d)[%s]" i j (String.concat "," (List.map string_of_int ks)))
             c.fibers)))
    (String.concat " " (List.map (Format.asprintf "%a" Iset.pp) c.shards))

(* Fresh bindings for one backend: the shared driver and factors, and an
   output seeded with non-zero values, so the order of the additions into it
   shows in the rounding. *)
let fiber_bindings c b =
  let v = c.vals and off = Tensor.nnz b in
  let fill (d : float array) base = Array.iteri (fun x _ -> d.(x) <- v.((base + x) mod 2000)) d in
  let mat name rows cols base =
    let m = Dense.mat_create name rows cols in
    fill m.Dense.data base;
    m
  in
  let d0, d1, d2 = (c.dims.(0), c.dims.(1), c.dims.(2)) in
  if c.mttkrp then
    [
      ("A", Operand.mat (mat "A" d0 c.cols off));
      ("B", Operand.sparse b);
      ("C", Operand.mat (mat "C" d1 c.cols (off + 300)));
      ("D", Operand.mat (mat "D" d2 c.cols (off + 600)));
    ]
  else
    let a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
    let av = a.Tensor.vals.Region.F.data in
    for x = 0 to A1.dim av - 1 do
      A1.set av x v.((off + x) mod 2000)
    done;
    let cv = Dense.vec_create "c" d2 in
    fill cv.Dense.data (off + 900);
    [ ("A", Operand.sparse a); ("B", Operand.sparse b); ("c", Operand.vec cv) ]

let output_bits bindings =
  match (Operand.find bindings "A").Operand.data with
  | Operand.Mat m -> bits m.Dense.data
  | Operand.Sparse t -> bits (Region.F.to_array t.Tensor.vals)
  | _ -> [||]

let fiber_leaf c =
  let stmt =
    if c.mttkrp then c.scale ^ "B(i,j,k) * C(j,l) * D(k,l)" else c.scale ^ "B(i,j,k) * c(k)"
  in
  {
    Loop_ir.leaf_stmt =
      Tin.of_string_exn ((if c.mttkrp then "A(i,l) = " else "A(i,j) = ") ^ stmt);
    driver = Loop_ir.Sparse_driver "B";
    nnz_split = c.nnz_split;
    parallel = true;
    out_reduce = false;
    leaf_row_part = None;
    use_workspace = false;
    col_split = 1;
  }

(* Each shard runs in turn on both backends; the outputs and every shard's
   work must agree bit for bit, and the compiled leaf must have taken the
   fiber path. *)
let prop_fiber_paths_equal_interp =
  Helpers.qtest ~count:500 "fiber fast paths = interp (outputs, work bits)"
    (QCheck.make ~print:print_fiber_case gen_fiber_case)
    (fun c ->
      let b = fiber_tensor c in
      let leaf = fiber_leaf c in
      let bi = fiber_bindings c b and bc = fiber_bindings c b in
      let compiled = Compile_leaf.compile ~bindings:bc leaf in
      let works exec = List.map (fun shard -> work_bits (exec shard).Leaf.work) c.shards in
      let interp = Leaf.execute ~bindings:bi ~leaf in
      let wi =
        works (fun shard ->
            interp ~shard_vals:(fun _ -> shard) ~rows:None ~col_range:c.col_range ())
      in
      let wc =
        works (fun shard ->
            Compile_leaf.execute compiled ~shard_vals:(fun _ -> shard) ~rows:None
              ~col_range:c.col_range ())
      in
      Compile_leaf.path_name compiled = "held"
      && wi = wc
      && output_bits bi = output_bits bc)

(* --- CSR fast paths vs the interpreter ---------------------------------- *)

(* A random CSR SpMM or SDDMM leaf: empty rows, widths 1-9 (so every
   [mod 4] tail of the blocked loops runs), column ranges, literal scales
   and shards that cut rows. *)
type csr_case = {
  sddmm : bool;
  m_rows : int;
  m_cols : int;
  entries : (int * int) list;  (* stored coordinates, row-major *)
  m_vals : float array;
  m_scale : string;
  width : int;  (* SpMM's dense columns, SDDMM's reduction extent *)
  m_col_range : (int * int) option;
  m_nnz_split : bool;
  m_shards : Iset.t list;
}

let gen_csr_case st =
  let int = Random.State.int st in
  let m_rows = 1 + int 7 and m_cols = 1 + int 7 in
  let entries =
    List.concat
      (List.init m_rows (fun i ->
           if int 4 = 0 then []
           else List.filter_map (fun j -> if int 2 = 0 then Some (i, j) else None)
               (List.init m_cols Fun.id)))
  in
  let width = 1 + int 9 in
  {
    sddmm = Random.State.bool st;
    m_rows;
    m_cols;
    entries;
    m_vals = Array.init 2000 (fun _ -> Random.State.float st 2. -. 1.);
    m_scale = [| ""; ""; "0.3 * "; "1.7 * " |].(int 4);
    width;
    m_col_range = (if Random.State.bool st then None else Some (int width, int width));
    m_nnz_split = Random.State.bool st;
    m_shards = gen_shards st (List.length entries);
  }

let print_csr_case c =
  Format.asprintf "%s %s%dx%d, width %d, col_range %s, nnz_split %b@.entries %s@.shards %s"
    (if c.sddmm then "SDDMM" else "SpMM")
    c.m_scale c.m_rows c.m_cols c.width
    (match c.m_col_range with None -> "none" | Some (lo, hi) -> Printf.sprintf "%d..%d" lo hi)
    c.m_nnz_split
    (String.concat " " (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) c.entries))
    (String.concat " " (List.map (Format.asprintf "%a" Iset.pp) c.m_shards))

(* Fresh bindings for one backend, every value drawn from the case and the
   output seeded non-zero, as in [fiber_bindings]; the driver is stored by
   [store] (CSR by default). *)
let csr_bindings ?(store = Tensor.csr ~name:"B") c =
  let v = c.m_vals in
  let b =
    store
      (Coo.make [| c.m_rows; c.m_cols |]
         (List.mapi (fun x (i, j) -> ([| i; j |], v.(x mod 2000))) c.entries))
  in
  let off = Tensor.nnz b in
  let mat name rows cols base =
    let m = Dense.mat_create name rows cols in
    Array.iteri (fun x _ -> m.Dense.data.(x) <- v.((base + x) mod 2000)) m.Dense.data;
    Operand.mat m
  in
  if c.sddmm then
    let a = Assemble.copy_pattern ~name:"A" b in
    let av = a.Tensor.vals.Region.F.data in
    for x = 0 to A1.dim av - 1 do
      A1.set av x v.((off + x) mod 2000)
    done;
    [
      ("A", Operand.sparse a);
      ("B", Operand.sparse b);
      ("C", mat "C" c.m_rows c.width (off + 300));
      ("D", mat "D" c.width c.m_cols (off + 600));
    ]
  else
    [
      ("A", mat "A" c.m_rows c.width off);
      ("B", Operand.sparse b);
      ("C", mat "C" c.m_cols c.width (off + 300));
    ]

let csr_leaf c =
  let stmt =
    if c.sddmm then "A(i,j) = " ^ c.m_scale ^ "B(i,j) * C(i,k) * D(k,j)"
    else "A(i,j) = " ^ c.m_scale ^ "B(i,k) * C(k,j)"
  in
  {
    Loop_ir.leaf_stmt = Tin.of_string_exn stmt;
    driver = Loop_ir.Sparse_driver "B";
    nnz_split = c.m_nnz_split;
    parallel = true;
    out_reduce = false;
    leaf_row_part = None;
    use_workspace = false;
    col_split = 1;
  }

(* Runs each shard in turn on both backends, the driver stored by [store];
   returns the compiled leaf's path and whether the outputs and every
   shard's work agree bit for bit. *)
let csr_case_agrees ?store c =
  let leaf = csr_leaf c in
  let bi = csr_bindings ?store c and bc = csr_bindings ?store c in
  let compiled = Compile_leaf.compile ~bindings:bc leaf in
  let works exec = List.map (fun shard -> work_bits (exec shard).Leaf.work) c.m_shards in
  let interp = Leaf.execute ~bindings:bi ~leaf in
  let wi =
    works (fun shard -> interp ~shard_vals:(fun _ -> shard) ~rows:None ~col_range:c.m_col_range ())
  in
  let wc =
    works (fun shard ->
        Compile_leaf.execute compiled ~shard_vals:(fun _ -> shard) ~rows:None
          ~col_range:c.m_col_range ())
  in
  (Compile_leaf.path_name compiled, wi = wc && output_bits bi = output_bits bc)

(* The compiled leaf must take the held (SpMM) or dot (SDDMM) body. *)
let prop_csr_paths_equal_interp =
  Helpers.qtest ~count:500 "SpMM/SDDMM fast paths = interp (outputs, work bits)"
    (QCheck.make ~print:print_csr_case gen_csr_case)
    (fun c -> csr_case_agrees c = ((if c.sddmm then "dot" else "held"), true))

(* The same leaves over the layouts no format-matched loop covered: DCSR,
   COO, CSC-ordered, (Compressed, Dense) and (Dense, Dense).  Each runs one
   of the three bodies, with the leaf cut by the shards as for CSR. *)
let layouts =
  Level.
    [|
      ("DCSR", [| Compressed_k; Compressed_k |], [| 0; 1 |]);
      ("COO", [| Compressed_nonunique_k; Singleton_k |], [| 0; 1 |]);
      ("CSC", [| Dense_k; Compressed_k |], [| 1; 0 |]);
      ("CD", [| Compressed_k; Dense_k |], [| 0; 1 |]);
      ("DD", [| Dense_k; Dense_k |], [| 1; 0 |]);
    |]

let prop_layouts_equal_interp =
  Helpers.qtest ~count:400 "other driver layouts = interp (outputs, work bits)"
    (QCheck.make
       ~print:(fun (c, k) ->
         let name, _, _ = layouts.(k) in
         name ^ " " ^ print_csr_case c)
       (fun st -> (gen_csr_case st, Random.State.int st (Array.length layouts))))
    (fun (c, k) ->
      let _, formats, mode_order = layouts.(k) in
      snd (csr_case_agrees ~store:(Tensor.of_coo ~name:"B" ~formats ~mode_order) c))

let rand_ddc ?seed d0 d1 d2 density =
  Tensor.of_coo ~name:"B"
    ~formats:[| Level.Dense_k; Level.Dense_k; Level.Compressed_k |]
    (Helpers.rand_coo3 ?seed d0 d1 d2 density)

(* --- Allocation ----------------------------------------------------------- *)

(* The compiled leaves of a problem, in program order. *)
let compiled_leaves p =
  let prog = Core.Spdistal.compile p in
  let prepared =
    Interp.prepare ~backend:Compile_leaf.Compiled ~bindings:(Core.Spdistal.bindings p)
      prog
  in
  List.filter_map Fun.id prepared.Interp.pp_leaves

(* The first compiled leaf of a problem. *)
let compiled_leaf p =
  match compiled_leaves p with l :: _ -> l | [] -> Alcotest.fail "no compiled leaf"

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let execute_all cl n =
  let all = Iset.range n in
  fun () ->
    ignore (Compile_leaf.execute cl ~shard_vals:(fun _ -> all) ~rows:None ~col_range:None ())

(* Whether this build keeps local floats unboxed, judged on the CSR SpMV
   leaf.  Bytecode boxes every float, and so may coverage
   instrumentation; there the bound below cannot hold and is skipped. *)
let unboxed_floats =
  lazy
    (let b = Helpers.rand_csr ~seed:33 200 200 0.05 in
     let cl = compiled_leaf (Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 1) b) in
     minor_words (execute_all cl (Tensor.nnz b)) < float_of_int (Tensor.nnz b))

(* One execute over all [n] stored elements must allocate fewer than [n]
   minor words: boxed floats or list cells per element would exceed it. *)
let check_alloc name ~n exec =
  let words = minor_words exec in
  if Lazy.force unboxed_floats then
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f minor words < %d stored elements" name words n)
      true
      (words < float_of_int n)

let test_leaf_alloc () =
  let m = Helpers.cpu_machine 1 in
  let t = Helpers.rand_csf ~seed:31 30 30 30 0.1 in
  let ddc = rand_ddc ~seed:34 6 30 30 0.1 in
  let b = Helpers.rand_csr ~seed:32 200 200 0.05 in
  List.iter
    (fun (name, t, p) ->
      let n = Tensor.nnz t in
      check_alloc name ~n (execute_all (compiled_leaf p) n))
    [
      ("SpMTTKRP CSF", t, Core.Kernels.mttkrp_problem ~machine:m ~cols:8 t);
      ("SpTTV CSF", t, Core.Kernels.spttv_problem ~machine:m t);
      ("SpMTTKRP DDC", ddc, Core.Kernels.mttkrp_problem ~machine:m ~cols:8 ddc);
      ("SpTTV DDC", ddc, Core.Kernels.spttv_problem ~machine:m ddc);
      ("SpMM CSR", b, Core.Kernels.spmm_problem ~machine:m ~cols:9 b);
      ("SDDMM CSR", b, Core.Kernels.sddmm_problem ~machine:m ~cols:9 b);
    ];
  List.iter
    (fun (name, schedule) ->
      let cl = compiled_leaf (Core.Kernels.spadd3_problem ~machine:m ~schedule b) in
      check_alloc name ~n:(Tensor.nnz b) (fun () ->
          ignore
            (Compile_leaf.execute cl
               ~shard_vals:(fun _ -> Iset.empty)
               ~rows:(Some (Iset.range 200)) ~col_range:None ())))
    [
      ("SpAdd3 merge", Core.Kernels.spadd3_row ());
      ("SpAdd3 workspace", Core.Kernels.spadd3_workspace ());
    ]

(* A compiled merge piece allocates its partial's four arrays and a few
   words more: nothing per row or entry.  Each of those arrays has over 256
   words, so it goes straight to the major heap and the piece's minor
   allocation is the rest; one block per row would be at least 2,000 words
   over 1,000 rows, against a bound of 250.  [Gc.minor_words] counts this domain only, unlike
   [Gc.counters], which folds in the stats of pool domains that exited. *)
let test_merge_alloc () =
  let rows = 1000 in
  let b = Helpers.rand_csr ~seed:49 rows rows 0.01 in
  let c = Helpers.rand_csr ~seed:53 ~name:"C" rows rows 0.01 in
  List.iter
    (fun (name, p) ->
      let cl = compiled_leaf p in
      let piece = Compile_leaf.launch cl ~bindings:(Core.Spdistal.bindings p) in
      let all = Some (Iset.range rows) and none _ = Iset.empty in
      let words =
        minor_words (fun () -> ignore (piece ~shard_vals:none ~rows:all ~col_range:None ()))
      in
      if Lazy.force unboxed_floats then
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f minor words < 250 over %d rows" name words rows)
          true (words < 250.))
    [
      ("SpAdd3", Core.Kernels.spadd3_problem ~machine:(Helpers.cpu_machine 1) b);
      ("B + C", add2_problem b c);
    ]

(* A compiled SDDMM leaf keeps its transposed [D] across launches: the first
   launch allocates it, a second allocates less than [D]'s size. *)
let test_sddmm_transpose_reused () =
  let b = Helpers.rand_csr ~seed:39 200 200 0.05 in
  let p = Core.Kernels.sddmm_problem ~machine:(Helpers.cpu_machine 1) ~cols:32 b in
  let bindings = Core.Spdistal.bindings p in
  let cl = compiled_leaf p in
  let d_bytes = 8. *. float_of_int (Array.length (Operand.find_mat bindings "D").Dense.data) in
  let launch_bytes () =
    let before = Gc.allocated_bytes () in
    let (_ : Compile_leaf.piece) = Compile_leaf.launch cl ~bindings in
    Gc.allocated_bytes () -. before
  in
  let first = launch_bytes () in
  let second = launch_bytes () in
  Alcotest.(check bool)
    (Printf.sprintf "first launch allocates D's %.0f bytes (%.0f)" d_bytes first)
    true (first >= d_bytes);
  Alcotest.(check bool)
    (Printf.sprintf "second launch: %.0f bytes < D's %.0f" second d_bytes)
    true (second < d_bytes)

(* The loop each compiled leaf of every line of the frozen fuzz corpus
   runs ([reject:] lines expect the compiler's refusal and have none). *)
let corpus_paths () =
  let module Spec = Spdistal_fuzz.Spec in
  List.concat_map
    (fun file ->
      In_channel.with_open_text ("corpus/" ^ file ^ ".case") In_channel.input_all
      |> String.split_on_char '\n'
      |> List.concat_map (fun line ->
             let line = String.trim line in
             if line = "" || line.[0] = '#' || String.starts_with ~prefix:"reject:" line then []
             else
               List.map Compile_leaf.path_name
                 (compiled_leaves (Spec.build (Spec.of_string_exn line)))))
    [ "kernels"; "regressions"; "auto" ]

(* The frozen fuzz corpus reaches every loop a compiled leaf runs, so its
   backend-equivalence replay covers each. *)
let test_corpus_reaches_every_path () =
  let reached = corpus_paths () in
  List.iter
    (fun want -> Alcotest.(check bool) ("corpus reaches " ^ want) true (List.mem want reached))
    [ "held"; "dot"; "affine"; "csr-merge"; "merge" ]

(* --- Generic-walker shapes ------------------------------------------------ *)

let walker_shapes () =
  let module K = Core.Kernels in
  let mat = Helpers.rand_csr ~seed:41 14 12 0.25 in
  let t3 = Helpers.rand_csf ~seed:42 8 7 6 0.15 in
  let coo = Helpers.rand_coo_matrix ~seed:43 14 12 0.25 in
  [
    ( "k-reduction into a dense vector",
      "a(i) = B(i,j) * C(j,k) * d(k)",
      fun () ->
        [
          ("a", Operand.vec (Dense.vec_create "a" 14), true);
          ("B", Operand.sparse mat, true);
          ("C", Operand.mat (K.dense_mat "C" 12 5), false);
          ("d", Operand.vec (K.dense_vec "d" 5), false);
        ] );
    ( "k-reduction into a dense matrix",
      "A(i,j) = B(i,j) * C(i,k) * D(k,j)",
      fun () ->
        [
          ("A", Operand.mat (Dense.mat_create "A" 14 12), true);
          ("B", Operand.sparse mat, true);
          ("C", Operand.mat (K.dense_mat "C" 14 5), false);
          ("D", Operand.mat (K.dense_mat "D" 5 12), false);
        ] );
    ( "k-reduction into a sparse non-leaf level",
      "A(i,j) = B(i,j,k) * C(k,l) * d(l)",
      fun () ->
        [
          ("A", Operand.sparse (Assemble.copy_pattern ~name:"A" ~levels:2 t3), true);
          ("B", Operand.sparse t3, true);
          ("C", Operand.mat (K.dense_mat "C" 6 4), false);
          ("d", Operand.vec (K.dense_vec "d" 4), false);
        ] );
    ( "literal scale",
      "A(i,j) = 0.5 * B(i,j,k) * c(k)",
      fun () ->
        [
          ("A", Operand.sparse (Assemble.copy_pattern ~name:"A" ~levels:2 t3), true);
          ("B", Operand.sparse t3, true);
          ("c", Operand.vec (K.dense_vec "c" 6), false);
        ] );
    ( "transposed factor",
      "A(i,j) = B(i,k) * C(j,k)",
      fun () ->
        [
          ("A", Operand.mat (Dense.mat_create "A" 14 5), true);
          ("B", Operand.sparse mat, true);
          ("C", Operand.mat (K.dense_mat "C" 5 12), false);
        ] );
    ( "CSC driver",
      "a(i) = B(i,j) * c(j)",
      fun () ->
        [
          ("a", Operand.vec (Dense.vec_create "a" 14), true);
          ("B", Operand.sparse (Tensor.csc ~name:"B" coo), true);
          ("c", Operand.vec (K.dense_vec "c" 12), false);
        ] );
    ( "COO driver",
      "A(i,j) = B(i,k) * C(k,j)",
      fun () ->
        [
          ("A", Operand.mat (Dense.mat_create "A" 14 5), true);
          ("B", Operand.sparse (Tensor.coo_matrix ~name:"B" coo), true);
          ("C", Operand.mat (K.dense_mat "C" 12 5), false);
        ] );
  ]

(* --- Path selection --------------------------------------------------------- *)

(* Each catalog kernel takes a blocked body (held or dot); a permuted mode
   order takes whichever body the plan allows, and a reordered product,
   whose fold the held body cannot keep, falls back to the affine one. *)
let test_path_selection () =
  let module K = Core.Kernels in
  let m = Helpers.cpu_machine 2 and gpu = Helpers.gpu_machine [| 2 |] in
  let mat = Helpers.rand_csr ~seed:35 20 20 0.2 in
  let csf = Helpers.rand_csf ~seed:36 6 7 8 0.2 and ddc = rand_ddc ~seed:37 6 7 8 0.2 in
  let permuted mode_order =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
      ~mode_order (Helpers.rand_coo3 ~seed:38 6 7 8 0.2)
  in
  let reordered =
    shape_problem "A(i,l) = B(i,j,k) * D(k,l) * C(j,l)" (fun () ->
        [
          ("A", Operand.mat (Dense.mat_create "A" 6 4), true);
          ("B", Operand.sparse csf, true);
          ("C", Operand.mat (K.dense_mat "C" 7 4), false);
          ("D", Operand.mat (K.dense_mat "D" 8 4), false);
        ])
  in
  List.iter
    (fun (name, want, p) ->
      Alcotest.(check string) name want (Compile_leaf.path_name (compiled_leaf p)))
    [
      ("SpMV", "held", K.spmv_problem ~machine:m mat);
      ("SpMM", "held", K.spmm_problem ~machine:m ~cols:4 mat);
      ("SDDMM", "dot", K.sddmm_problem ~machine:m ~cols:4 mat);
      ("SpAdd3", "csr-merge", K.spadd3_problem ~machine:m mat);
      ( "SpAdd3 workspace",
        "merge",
        K.spadd3_problem ~machine:m ~schedule:(K.spadd3_workspace ()) mat );
      ("SpTTV CSF", "held", K.spttv_problem ~machine:m csf);
      ("SpTTV DDC", "held", K.spttv_problem ~machine:m ddc);
      ( "SpTTV CSF nnz",
        "held",
        K.spttv_problem ~machine:gpu ~schedule:(K.spttv_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) csf );
      ("SpMTTKRP CSF", "held", K.mttkrp_problem ~machine:m ~cols:4 csf);
      ("SpMTTKRP DDC", "held", K.mttkrp_problem ~machine:m ~cols:4 ddc);
      ( "SpMTTKRP DDC nnz",
        "held",
        K.mttkrp_problem ~machine:gpu ~cols:4
          ~schedule:(K.mttkrp_nnz ~proc:Spdistal_ir.Schedule.Gpu_thread ()) ddc );
      ("SpTTV mode order [1;0;2]", "held", K.spttv_problem ~machine:m (permuted [| 1; 0; 2 |]));
      ( "SpMTTKRP mode order [0;2;1]",
        "affine",
        K.mttkrp_problem ~machine:m ~cols:4 (permuted [| 0; 2; 1 |]) );
      ("SpMTTKRP factors D, C", "affine", reordered ());
    ]

let test_walker_shapes () =
  List.iter
    (fun (name, stmt, operands) ->
      let make = shape_problem stmt operands in
      ignore (Helpers.run_validated (make ()));
      Test_exec.check_backends_agree name make)
    (walker_shapes ())

(* A sparse output cannot hold an inner output variable.  Both backends
   defer that error to the first stored element they visit, so an empty
   piece, or a piece whose column chunk is empty, still succeeds.  [C] has
   [A]'s six columns, the extent its [j] binds. *)
let test_inner_out_sparse_error () =
  let b = Helpers.rand_csr ~seed:44 6 6 0.4 in
  let bindings =
    [
      ("A", Operand.sparse (Assemble.copy_pattern ~name:"A" b));
      ("B", Operand.sparse b);
      ("C", Operand.mat (Core.Kernels.dense_mat "C" 6 6));
    ]
  in
  let leaf =
    {
      Loop_ir.leaf_stmt = Tin.spmm;
      driver = Loop_ir.Sparse_driver "B";
      nnz_split = false;
      parallel = true;
      out_reduce = false;
      leaf_row_part = None;
      use_workspace = false;
      col_split = 1;
    }
  in
  let compiled = Compile_leaf.compile ~bindings leaf in
  let all = Iset.range (Tensor.nnz b) in
  List.iter
    (fun (backend, exec) ->
      let run shard col_range = ignore (exec ~shard_vals:(fun _ -> shard) ~col_range) in
      run Iset.empty None;
      run all (Some (3, 2));
      match run all None with
      | () -> Alcotest.failf "%s: no error on a non-empty piece" backend
      | exception Error.Error e ->
          Alcotest.(check bool)
            (backend ^ ": deferred leaf error")
            true
            (Helpers.contains (Error.to_string e) "inner-out with sparse output"))
    [
      ("interp", fun ~shard_vals ~col_range ->
          Leaf.execute ~bindings ~leaf ~shard_vals ~rows:None ~col_range ());
      ("compiled", fun ~shard_vals ~col_range ->
          Compile_leaf.execute compiled ~shard_vals ~rows:None ~col_range ());
    ]

(* A compiled leaf binds its data at launch; launch bindings whose operands
   no longer have the compiled shapes are refused before any unchecked
   index runs. *)
let test_launch_shape_checked () =
  let b = Helpers.rand_csr ~seed:35 20 20 0.2 in
  let p = Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 1) b in
  let cl = compiled_leaf p in
  let launch c =
    let bindings =
      List.map
        (fun (n, s) -> if n = "c" then (n, Operand.vec c) else (n, s))
        (Core.Spdistal.bindings p)
    in
    Compile_leaf.execute cl ~bindings
      ~shard_vals:(fun _ -> Iset.range (Tensor.nnz b))
      ~rows:None ~col_range:None ()
  in
  ignore (launch (Core.Kernels.dense_vec "c" 20));
  match launch (Core.Kernels.dense_vec "c" 7) with
  | _ -> Alcotest.fail "a shorter factor was accepted"
  | exception Error.Error { Error.phase = Error.Leaf; _ } -> ()

(* --- Compute-only merges into an assembled output ---------------------------- *)

(* The [(pos, crd, vals)] of the output the stitch assembles from one
   piece's partial over [nrows] rows: the rows' entries end to end, every
   other row empty at the end of the last non-empty row above it, and
   [fill] in every value. *)
let assembled_of ~nrows ~fill (p : Leaf.merge_partial) : Leaf.merge_op =
  let total = Array.fold_left ( + ) 0 p.Leaf.mcounts in
  let counts = Array.make nrows 0 in
  Array.iteri (fun i r -> counts.(r) <- p.Leaf.mcounts.(i)) p.Leaf.mrows;
  let next = ref 0 in
  let pos =
    Array.map
      (fun c ->
        let lo = !next in
        next := lo + c;
        (lo, lo + c - 1))
      counts
  in
  let vals = A1.create Bigarray.float64 Bigarray.c_layout total in
  A1.fill vals fill;
  (pos, Array.sub p.Leaf.mcrd 0 total, vals)

let merge_nrows c =
  let pos, _, _ = c.ops.(0) in
  Array.length pos

(* One piece of the case's compiled merge over its row set. *)
let merge_piece ?into c =
  Compile_leaf.execute (merge_leaf c) ?into
    ~shard_vals:(fun _ -> Iset.empty)
    ~rows:(Some c.rows) ~col_range:None ()

let prop_merge_in_place_equals_assembly =
  Helpers.qtest ~count:500 "compute-only merge = assembling cursor"
    (QCheck.make ~print:print_merge_case (gen_merge_case ~arities:[| 2; 3 |]))
    (fun c ->
      let assembled = merge_piece c in
      match assembled.Leaf.partial with
      | None -> false
      | Some p ->
          let ((pos, crd, vals) as into) =
            assembled_of ~nrows:(merge_nrows c) ~fill:Float.nan p
          in
          let pos0 = Array.copy pos and crd0 = Array.copy crd in
          let computed = merge_piece ~into c in
          let total = Array.length crd in
          computed.Leaf.partial = None
          && work_bits computed.Leaf.work = work_bits assembled.Leaf.work
          && pos = pos0 && crd = crd0
          && bits (Array.init total (A1.get vals))
             = bits (Array.sub p.Leaf.mvals 0 total))

(* An installed pattern one entry off the merge's stops the piece. *)
let test_merge_in_place_mismatch () =
  let st = Random.State.make [| 27 |] in
  let checked = ref 0 in
  while !checked < 60 do
    let c = gen_merge_case ~arities:[| 2; 3 |] st in
    match (merge_piece c).Leaf.partial with
    | Some p when c.cols >= 2 && Array.exists (fun n -> n > 0) p.Leaf.mcounts ->
        let pos, crd, _ = assembled_of ~nrows:(merge_nrows c) ~fill:0. p in
        let r = Array.find_index (fun (lo, hi) -> lo <= hi) pos |> Option.get in
        List.iter
          (fun kind ->
            let pos, crd = Helpers.perturb_row kind ~ncols:c.cols (pos, crd) r in
            let vals = A1.create Bigarray.float64 Bigarray.c_layout (Array.length crd) in
            A1.fill vals 0.;
            match merge_piece ~into:(pos, crd, vals) c with
            | _ -> Alcotest.failf "a pattern one entry off was accepted:\n%s" (print_merge_case c)
            | exception Compile_leaf.Reassemble -> incr checked)
          [ `Extra; `Missing; `Changed ]
    | _ -> ()
  done
(* The interpreter expands its driver's coordinates once per launch: a
   pattern written in place through [Region.set] between two runs is what
   the second run reads, at one domain and at several. *)
let test_interp_sees_pattern_write () =
  List.iter
    (fun domains ->
      let p =
        Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 4)
          (Helpers.rand_csr ~seed:93 40 40 0.1)
      in
      let ctx = Core.Spdistal.Context.create p in
      let run () =
        let r =
          Core.Spdistal.Context.run ~domains ~leaf_backend:Compile_leaf.Interp ctx
        in
        Alcotest.(check (option string)) "completes" None r.Core.Spdistal.dnc;
        Helpers.check_float
          (Printf.sprintf "domains %d: matches dense reference" domains)
          0.
          (Validate.max_error (Core.Spdistal.bindings p) p.Core.Spdistal.stmt)
      in
      run ();
      Helpers.write_pattern (Operand.find_sparse (Core.Spdistal.bindings p) "B");
      run ())
    [ 1; 4 ]

let suite =
  [
    prop_merge_core_equals_model;
    Alcotest.test_case "compiled leaves allocate < 1 word per element" `Quick
      test_leaf_alloc;
    prop_merge_cursor_equals_core;
    Alcotest.test_case "merge: compiled = interp end to end" `Quick
      test_merge_backends_agree;
    Alcotest.test_case "merge operands are shape-checked" `Quick
      test_merge_shape_checked;
    Alcotest.test_case "compiled merge allocates only its partial" `Quick
      test_merge_alloc;
    Alcotest.test_case "generic walker shapes: compiled = interp" `Quick
      test_walker_shapes;
    Alcotest.test_case "inner-out sparse output error is deferred" `Quick
      test_inner_out_sparse_error;
    prop_fiber_paths_equal_interp;
    prop_csr_paths_equal_interp;
    prop_layouts_equal_interp;
    Alcotest.test_case "SDDMM reuses its transposed D across launches" `Quick
      test_sddmm_transpose_reused;
    Alcotest.test_case "fast-path selection and fallback" `Quick test_path_selection;
    Alcotest.test_case "fuzz corpus reaches every leaf path" `Quick
      test_corpus_reaches_every_path;
    Alcotest.test_case "launch bindings are shape-checked" `Quick
      test_launch_shape_checked;
    prop_merge_in_place_equals_assembly;
    Alcotest.test_case "compute-only merge refuses a pattern one entry off"
      `Quick test_merge_in_place_mismatch;
    Alcotest.test_case "interp reads a pattern written between runs" `Quick
      test_interp_sees_pattern_write;
  ]
