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

let shift_last_dim ~name ~by (t : Tensor.t) =
  let coo = Tensor.to_coo t in
  let last = Coo.order coo - 1 in
  let d = coo.Coo.dims.(last) in
  let coords =
    Array.mapi
      (fun dim a -> if dim = last then Array.map (fun c -> (c + by) mod d) a else a)
      coo.Coo.coords
  in
  Tensor.of_coo ~name
    ~formats:(Array.map Level.kind t.Tensor.levels)
    { coo with Coo.coords }

let default_proc machine =
  if machine.Machine.kind = Machine.Gpu then Schedule.Gpu_thread
  else Schedule.Cpu_thread

let matched ~machine ~operands ~stmt ~schedule =
  let tdns = Lower.matched ~env:(Operand.env_of_bindings operands) stmt schedule in
  Spdistal.problem ~machine
    ~operands:(List.map2 (fun (n, slot) (_, tdn) -> (n, slot, tdn)) operands tdns)
    ~stmt ~schedule

let spmv_problem ~machine ?schedule b =
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Dense.vec_create "a" n and c = dense_vec "c" m in
  matched ~machine
    ~operands:[ ("a", Operand.vec a); ("B", Operand.sparse b); ("c", Operand.vec c) ]
    ~schedule:
      (Option.value schedule ~default:(spmv_row ~proc:(default_proc machine) ()))
    ~stmt:Tin.spmv

let spmm_problem ~machine ?schedule ?(cols = 32) b =
  let n = b.Tensor.dims.(0) and k = b.Tensor.dims.(1) in
  let a = Dense.mat_create "A" n cols and c = dense_mat "C" k cols in
  matched ~machine
    ~operands:[ ("A", Operand.mat a); ("B", Operand.sparse b); ("C", Operand.mat c) ]
    ~schedule:
      (Option.value schedule ~default:(spmm_row ~proc:(default_proc machine) ()))
    ~stmt:Tin.spmm

let empty_csr name rows cols =
  Tensor.csr ~name (Coo.make [| rows; cols |] [])

let spadd3_problem ~machine ?schedule ?c ?d b =
  let rows = b.Tensor.dims.(0) and cols = b.Tensor.dims.(1) in
  let c = match c with Some t -> t | None -> shift_last_dim ~name:"C" ~by:1 b in
  let d = match d with Some t -> t | None -> shift_last_dim ~name:"D" ~by:2 b in
  let a = empty_csr "A" rows cols in
  matched ~machine
    ~operands:
      [
        ("A", Operand.sparse a);
        ("B", Operand.sparse b);
        ("C", Operand.sparse c);
        ("D", Operand.sparse d);
      ]
    ~schedule:
      (Option.value schedule ~default:(spadd3_row ~proc:(default_proc machine) ()))
    ~stmt:Tin.spadd3

let sddmm_problem ~machine ?schedule ?(cols = 32) b =
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Assemble.copy_pattern ~name:"A" b in
  let c = dense_mat "C" n cols and d0 = dense_mat "Dm" cols m in
  (* D is (k, j): rows = cols of the factor width, cols = m. *)
  let d = { d0 with Dense.name = "D" } in
  matched ~machine
    ~operands:
      [
        ("A", Operand.sparse a);
        ("B", Operand.sparse b);
        ("C", Operand.mat c);
        ("D", Operand.mat d);
      ]
    ~schedule:
      (Option.value schedule ~default:(sddmm_nnz ~proc:(default_proc machine) ()))
    ~stmt:Tin.sddmm

let spttv_problem ~machine ?schedule b =
  let k = b.Tensor.dims.(2) in
  let a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
  let c = dense_vec "c" k in
  matched ~machine
    ~operands:[ ("A", Operand.sparse a); ("B", Operand.sparse b); ("c", Operand.vec c) ]
    ~schedule:
      (Option.value schedule ~default:(spttv_row ~proc:(default_proc machine) ()))
    ~stmt:Tin.spttv

let mttkrp_problem ~machine ?schedule ?(cols = 32) b =
  let ni = b.Tensor.dims.(0) and nj = b.Tensor.dims.(1) and nk = b.Tensor.dims.(2) in
  let a = Dense.mat_create "A" ni cols in
  let c = dense_mat "C" nj cols and d = dense_mat "D" nk cols in
  matched ~machine
    ~operands:
      [
        ("A", Operand.mat a);
        ("B", Operand.sparse b);
        ("C", Operand.mat c);
        ("D", Operand.mat d);
      ]
    ~schedule:
      (Option.value schedule ~default:(mttkrp_row ~proc:(default_proc machine) ()))
    ~stmt:Tin.spmttkrp
