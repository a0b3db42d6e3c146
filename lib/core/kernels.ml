open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec

(* ------------------------------------------------------------------ *)
(* Schedules                                                            *)
(* ------------------------------------------------------------------ *)

let row_sched ?(proc = Schedule.Cpu_thread) ~tensors () =
  Schedule.row ~par:proc ~tensors "i"

let spmv_row ?proc () = row_sched ?proc ~tensors:[ "a"; "B"; "c" ] ()
let spmm_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C" ] ()
let spadd3_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C"; "D" ] ()
let spadd3_workspace ?proc () =
  spadd3_row ?proc () @ Schedule.workspace ~out:"A" "j"

let spttv_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "c" ] ()
let mttkrp_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C"; "D" ] ()

let nnz_sched ?(proc = Schedule.Cpu_thread) ~vars ~tensor ~tensors () =
  if List.length vars < 2 then
    Error.fail Error.Config
      "Kernels.nnz_sched: fusion needs at least two variables (got %d)"
      (List.length vars);
  Schedule.nnz ~par:proc ~tensor ~tensors vars

let spmv_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "j" ] ~tensor:"B" ~tensors:[ "a"; "B"; "c" ] ()

let sddmm_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "j" ] ~tensor:"B"
    ~tensors:[ "A"; "B"; "C"; "D" ] ()

let spttv_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "j"; "k" ] ~tensor:"B" ~tensors:[ "A"; "B"; "c" ] ()

let mttkrp_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "j"; "k" ] ~tensor:"B"
    ~tensors:[ "A"; "B"; "C"; "D" ] ()

let spmm_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "k" ] ~tensor:"B" ~tensors:[ "A"; "B"; "C" ] ()

let spmm_batched ?(proc = Schedule.Cpu_thread) () =
  Schedule.batched ~par:proc ~tensors:[ "A"; "B"; "C" ] "i" "j"

(* ------------------------------------------------------------------ *)
(* Operand builders                                                     *)
(* ------------------------------------------------------------------ *)

let dval i =
  let h = i * 2654435761 land 0x3fffffff in
  0.5 +. (float_of_int (h land 0xff) /. 256.)

let dense_vec name n = Dense.vec_init name n dval
let dense_mat name rows cols = Dense.mat_init name rows cols (fun i j -> dval ((i * cols) + j))

(* A cyclic shift of the last coordinate permutes each parent's sorted run
   of the last level: the coordinates that wrap ([c + by >= dim]) move, in
   order, in front of the rest.  So each run splits at one binary-searched
   point and its two halves swap; values move with their coordinates.
   Every region is fresh and named, and every value stored ([0. +. v]), as
   [Tensor.of_coo] would from the shifted COO list. *)
let shift_last_dim ~name ~by (t : Tensor.t) =
  let ord = Tensor.order t in
  let refuse what =
    Error.fail ~kernel:t.Tensor.name Error.Config
      "Kernels.shift_last_dim: %s (needs a compressed last level in identity \
       mode order)"
      what
  in
  if ord = 0 then refuse "no last dimension";
  Array.iteri
    (fun k m -> if m <> k then refuse "non-identity mode order")
    t.Tensor.mode_order;
  let last = ord - 1 in
  let pos, crd =
    match t.Tensor.levels.(last) with
    | Level.Compressed { pos; crd } -> (pos.Region.data, crd.Region.data)
    | Level.Dense _ -> refuse "dense last level"
    | Level.Singleton _ -> refuse "singleton last level"
  in
  let dim = t.Tensor.dims.(last) in
  let by = if dim = 0 then 0 else ((by mod dim) + dim) mod dim in
  let vals = t.Tensor.vals.Region.F.data in
  let n = Array.length crd in
  let crd' = Array.make n 0 and vals' = Array.make n 0. in
  Array.iter
    (fun (lo, hi) ->
      (* First position of [lo..hi] whose coordinate wraps. *)
      let rec wrap l h =
        if l > h then l
        else
          let m = (l + h) / 2 in
          if crd.(m) + by >= dim then wrap l (m - 1) else wrap (m + 1) h
      in
      let w = wrap lo hi in
      let move ~src ~dst c =
        crd'.(dst) <- c;
        vals'.(dst) <- 0. +. vals.{src}
      in
      for q = w to hi do
        move ~src:q ~dst:(lo + q - w) (crd.(q) + by - dim)
      done;
      for q = lo to w - 1 do
        move ~src:q ~dst:(hi - w + 1 + q) (crd.(q) + by)
      done)
    pos;
  let copy suffix (r : _ Region.t) =
    Region.of_array (name ^ suffix) (Array.copy r.Region.data)
  in
  let levels =
    Array.mapi
      (fun k level ->
        match level with
        | Level.Dense _ -> level
        | Level.Compressed c when k = last ->
            Level.Compressed
              { pos = copy ".pos" c.pos; crd = Region.of_array (name ^ ".crd") crd' }
        | Level.Compressed { pos; crd } ->
            Level.Compressed { pos = copy ".pos" pos; crd = copy ".crd" crd }
        | Level.Singleton { crd } -> Level.Singleton { crd = copy ".crd" crd })
      t.Tensor.levels
  in
  {
    Tensor.name;
    dims = Array.copy t.Tensor.dims;
    mode_order = Array.init ord Fun.id;
    levels;
    vals = Region.F.of_array (name ^ ".vals") vals';
  }

let default_proc machine =
  if machine.Machine.kind = Machine.Gpu then Schedule.Gpu_thread
  else Schedule.Cpu_thread

let matched ~machine ~operands ~stmt ~schedule =
  let tdns = Lower.matched ~env:(Operand.env_of_bindings operands) stmt schedule in
  Spdistal.problem ~machine
    ~operands:(List.map2 (fun (n, slot) (_, tdn) -> (n, slot, tdn)) operands tdns)
    ~stmt ~schedule

(* ------------------------------------------------------------------ *)
(* Kernels and their inputs                                             *)
(* ------------------------------------------------------------------ *)

type kernel = Spmv | Spmm | Spadd3 | Sddmm | Spttv | Mttkrp

let kernel_name = function
  | Spmv -> "SpMV"
  | Spmm -> "SpMM"
  | Spadd3 -> "SpAdd3"
  | Sddmm -> "SDDMM"
  | Spttv -> "SpTTV"
  | Mttkrp -> "SpMTTKRP"

let order = function Spttv | Mttkrp -> 3 | Spmv | Spmm | Spadd3 | Sddmm -> 2

type inputs = {
  kernel : kernel;
  cols : int;
  b : Tensor.t;
  operands : (string * Operand.data) list;
}

(* The read-only operands after [B], in the statement's order: dense
   factors, or SpAdd3's two shifted copies of [B] (Henry & Hsu [30]). *)
let inputs kernel ?(cols = 32) b =
  let name = kernel_name kernel in
  if Tensor.order b <> order kernel then
    Error.fail ~kernel:name Error.Config "needs an order-%d tensor, %s has order %d"
      (order kernel) b.Tensor.name (Tensor.order b);
  if cols < 0 then
    Error.fail ~kernel:name Error.Config "dense width must be >= 0, got %d" cols;
  let d = b.Tensor.dims in
  let vec n len = (n, Operand.Vec (dense_vec n len)) in
  let mat n rows cols = (n, Operand.Mat (dense_mat n rows cols)) in
  let shift n by = (n, Operand.Sparse (shift_last_dim ~name:n ~by b)) in
  let operands =
    match kernel with
    | Spmv -> [ vec "c" d.(1) ]
    | Spmm -> [ mat "C" d.(1) cols ]
    | Spadd3 -> [ shift "C" 1; shift "D" 2 ]
    (* D is (k, j): rows = the factor width, cols = B's columns. *)
    | Sddmm -> [ mat "C" d.(0) cols; mat "D" cols d.(1) ]
    | Spttv -> [ vec "c" d.(2) ]
    | Mttkrp -> [ mat "C" d.(1) cols; mat "D" d.(2) cols ]
  in
  { kernel; cols; b; operands }

let output i =
  let d = i.b.Tensor.dims in
  match i.kernel with
  | Spmv -> ("a", Operand.Vec (Dense.vec_create "a" d.(0)))
  | Spmm | Mttkrp -> ("A", Operand.Mat (Dense.mat_create "A" d.(0) i.cols))
  | Spadd3 -> ("A", Operand.Sparse (Tensor.csr ~name:"A" (Coo.make [| d.(0); d.(1) |] [])))
  | Sddmm -> ("A", Operand.Sparse (Assemble.copy_pattern ~name:"A" i.b))
  | Spttv -> ("A", Operand.Sparse (Assemble.copy_pattern ~name:"A" ~levels:2 i.b))

let bindings i =
  let slot (n, data) = (n, { Operand.data }) in
  List.map slot (output i :: ("B", Operand.Sparse i.b) :: i.operands)

let problem ~machine ?schedule i =
  let proc = default_proc machine in
  let stmt, default =
    match i.kernel with
    | Spmv -> (Tin.spmv, spmv_row)
    | Spmm -> (Tin.spmm, spmm_row)
    | Spadd3 -> (Tin.spadd3, spadd3_row)
    | Sddmm -> (Tin.sddmm, sddmm_nnz)
    | Spttv -> (Tin.spttv, spttv_row)
    | Mttkrp -> (Tin.spmttkrp, mttkrp_row)
  in
  let schedule = match schedule with Some s -> s | None -> default ~proc () in
  matched ~machine ~operands:(bindings i) ~stmt ~schedule

let spmv_problem ~machine ?schedule b = problem ~machine ?schedule (inputs Spmv b)
let spmm_problem ~machine ?schedule ?cols b = problem ~machine ?schedule (inputs Spmm ?cols b)
let spadd3_problem ~machine ?schedule b = problem ~machine ?schedule (inputs Spadd3 b)
let sddmm_problem ~machine ?schedule ?cols b = problem ~machine ?schedule (inputs Sddmm ?cols b)
let spttv_problem ~machine ?schedule b = problem ~machine ?schedule (inputs Spttv b)
let mttkrp_problem ~machine ?schedule ?cols b = problem ~machine ?schedule (inputs Mttkrp ?cols b)
