(* Leaf-level contracts of the compiled backend: the array merge core equals
   the list-based core it replaced, compiled leaves allocate nothing per
   stored element, and the generic walker matches the interpreter on shapes
   the kernel catalog does not reach. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec
module A1 = Bigarray.Array1

(* --- Merge core vs the list-based model ---------------------------------- *)

(* The merge core the array version replaced: per-row lists, a cursor list
   of refs per row, [List.sort] over the touched columns, [@] appends and a
   float tally per entry.  It is the reference model for the property
   below, which both backends cannot provide because both call the core. *)
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

let gen_merge_case st =
  let int = Random.State.int st in
  let nrows = 1 + int 10 and cols = 1 + int 12 and nops = 1 + int 4 in
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
    let vals =
      A1.of_array Bigarray.float64 Bigarray.c_layout
        (Array.map (fun _ -> Random.State.float st 2. -. 1.) crd)
    in
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

(* --- Allocation ----------------------------------------------------------- *)

(* The first compiled leaf of a problem prepared on one piece. *)
let compiled_leaf p =
  let prog = Core.Spdistal.compile p in
  let prepared =
    Interp.prepare ~backend:Compile_leaf.Compiled ~bindings:(Core.Spdistal.bindings p)
      prog
  in
  match List.find_map Fun.id prepared.Interp.pp_leaves with
  | Some l -> l
  | None -> Alcotest.fail "no compiled leaf"

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let execute_all cl n =
  let all = Iset.range n in
  fun () ->
    ignore (Compile_leaf.execute cl ~shard_vals:(fun _ -> all) ~rows:None ~col_range:None ())

(* Whether this build keeps local floats unboxed, judged on the CSR SpMV
   fast path.  Bytecode boxes every float, and so may coverage
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
  let n = Tensor.nnz t in
  List.iter
    (fun (name, p) -> check_alloc name ~n (execute_all (compiled_leaf p) n))
    [
      ("SpMTTKRP", Core.Kernels.mttkrp_problem ~machine:m ~cols:8 t);
      ("SpTTV", Core.Kernels.spttv_problem ~machine:m t);
    ];
  let b = Helpers.rand_csr ~seed:32 200 200 0.05 in
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

(* --- Generic-walker shapes ------------------------------------------------ *)

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

let test_walker_shapes () =
  List.iter
    (fun (name, stmt, operands) ->
      let make = shape_problem stmt operands in
      ignore (Helpers.run_validated (make ()));
      Test_exec.check_backends_agree name make)
    (walker_shapes ())

(* A sparse output cannot hold an inner output variable.  Both backends
   defer that error to the first stored element they visit, so an empty
   piece, or a piece whose column chunk is empty, still succeeds. *)
let test_inner_out_sparse_error () =
  let b = Helpers.rand_csr ~seed:44 6 6 0.4 in
  let bindings =
    [
      ("A", Operand.sparse (Assemble.copy_pattern ~name:"A" b));
      ("B", Operand.sparse b);
      ("C", Operand.mat (Core.Kernels.dense_mat "C" 6 4));
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

let suite =
  [
    prop_merge_core_equals_model;
    Alcotest.test_case "compiled leaves allocate < 1 word per element" `Quick
      test_leaf_alloc;
    Alcotest.test_case "generic walker shapes: compiled = interp" `Quick
      test_walker_shapes;
    Alcotest.test_case "inner-out sparse output error is deferred" `Quick
      test_inner_out_sparse_error;
  ]
