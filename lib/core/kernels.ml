open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec

(* ------------------------------------------------------------------ *)
(* Schedules                                                            *)
(* ------------------------------------------------------------------ *)

let row_sched ?(proc = Schedule.Cpu_thread) ~tensors () =
  [
    Schedule.Divide { v = "i"; outer = "io"; inner = "ii" };
    Schedule.Distribute [ "io" ];
    Schedule.Communicate { tensors; at = "io" };
    Schedule.Parallelize { v = "ii"; proc };
  ]

let spmv_row ?proc () = row_sched ?proc ~tensors:[ "a"; "B"; "c" ] ()
let spmm_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C" ] ()
let spadd3_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C"; "D" ] ()
let spadd3_workspace ?proc () =
  row_sched ?proc ~tensors:[ "A"; "B"; "C"; "D" ] ()
  @ [ Schedule.Precompute { v = "j"; tensors = [ "A" ] } ]

let spttv_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "c" ] ()
let mttkrp_row ?proc () = row_sched ?proc ~tensors:[ "A"; "B"; "C"; "D" ] ()

(* Fuse the given variables left to right, then strip-mine the fused
   position space of [tensor] and distribute. *)
let nnz_sched ?(proc = Schedule.Cpu_thread) ~vars ~tensor ~tensors () =
  let fuses, fused =
    match vars with
    | [] | [ _ ] ->
        Error.fail Error.Config
          "Kernels.nnz_sched: fusion needs at least two variables (got %d)"
          (List.length vars)
    | v0 :: rest ->
        List.fold_left
          (fun (cmds, prev) v ->
            let f = prev ^ v in
            (cmds @ [ Schedule.Fuse { f; a = prev; b = v } ], f))
          ([], v0) rest
  in
  fuses
  @ [
      Schedule.Pos { v = fused; pv = "fp"; tensor };
      Schedule.Divide { v = "fp"; outer = "fpo"; inner = "fpi" };
      Schedule.Distribute [ "fpo" ];
      Schedule.Communicate { tensors; at = "fpo" };
      Schedule.Parallelize { v = "fpi"; proc };
    ]

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

(* Load-balanced GPU SpMM (§VI-A2): non-zero split of [B], replicating the
   dense [C] (the OOM-prone variant). *)
let spmm_nnz ?proc () =
  nnz_sched ?proc ~vars:[ "i"; "k" ] ~tensor:"B" ~tensors:[ "A"; "B"; "C" ] ()

let spmm_batched ?(proc = Schedule.Cpu_thread) () =
  [
    Schedule.Divide { v = "i"; outer = "io"; inner = "ii" };
    Schedule.Divide { v = "j"; outer = "jo"; inner = "ji" };
    Schedule.Distribute [ "io"; "jo" ];
    Schedule.Communicate { tensors = [ "A"; "B"; "C" ]; at = "jo" };
    Schedule.Parallelize { v = "ii"; proc };
  ]

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

let blocked = Tdn.Blocked { tensor_dim = 0; machine_dim = 0 }
let fused_nnz order = Tdn.Fused_non_zero { dims = List.init order Fun.id; machine_dim = 0 }

let gpu_of m = m.Machine.kind = Machine.Gpu

let default_proc machine =
  if gpu_of machine then Schedule.Gpu_thread else Schedule.Cpu_thread

let spmv_problem ~machine ?schedule ?(nonzero_dist = false) b =
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        if nonzero_dist then spmv_nnz ~proc:(default_proc machine) ()
        else spmv_row ~proc:(default_proc machine) ()
  in
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Dense.vec_create "a" n and c = dense_vec "c" m in
  Spdistal.problem ~machine
    ~operands:
      [
        ("a", Operand.vec a, blocked);
        ("B", Operand.sparse b, if nonzero_dist then fused_nnz 2 else blocked);
        ("c", Operand.vec c, Tdn.Replicated);
      ]
    ~stmt:Tin.spmv ~schedule

let spmm_problem ~machine ?schedule ?(cols = 32) ?(batched = false)
    ?(nonzero_dist = false) b =
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        if batched then spmm_batched ~proc:(default_proc machine) ()
        else if nonzero_dist then spmm_nnz ~proc:(default_proc machine) ()
        else spmm_row ~proc:(default_proc machine) ()
  in
  let n = b.Tensor.dims.(0) and k = b.Tensor.dims.(1) in
  let a = Dense.mat_create "A" n cols and c = dense_mat "C" k cols in
  let c_dist =
    if batched then Tdn.Tiled { mappings = [ (1, 1) ] } else Tdn.Replicated
  in
  let b_dist = if nonzero_dist then fused_nnz 2 else blocked in
  Spdistal.problem ~machine
    ~operands:
      [
        ("A", Operand.mat a, blocked);
        ("B", Operand.sparse b, b_dist);
        ("C", Operand.mat c, c_dist);
      ]
    ~stmt:Tin.spmm ~schedule

let empty_csr name rows cols =
  Tensor.csr ~name (Coo.make [| rows; cols |] [])

let spadd3_problem ~machine ?schedule ?c ?d b =
  let schedule =
    match schedule with
    | Some s -> s
    | None -> spadd3_row ~proc:(default_proc machine) ()
  in
  let rows = b.Tensor.dims.(0) and cols = b.Tensor.dims.(1) in
  let c = match c with Some t -> t | None -> shift_last_dim ~name:"C" ~by:1 b in
  let d = match d with Some t -> t | None -> shift_last_dim ~name:"D" ~by:2 b in
  let a = empty_csr "A" rows cols in
  Spdistal.problem ~machine
    ~operands:
      [
        ("A", Operand.sparse a, blocked);
        ("B", Operand.sparse b, blocked);
        ("C", Operand.sparse c, blocked);
        ("D", Operand.sparse d, blocked);
      ]
    ~stmt:Tin.spadd3 ~schedule

let sddmm_problem ~machine ?schedule ?(cols = 32) b =
  let schedule =
    match schedule with
    | Some s -> s
    | None -> sddmm_nnz ~proc:(default_proc machine) ()
  in
  let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
  let a = Assemble.copy_pattern ~name:"A" b in
  let c = dense_mat "C" n cols and d0 = dense_mat "Dm" cols m in
  (* D is (k, j): rows = cols of the factor width, cols = m. *)
  let d = { d0 with Dense.name = "D" } in
  let dist_b = fused_nnz 2 in
  Spdistal.problem ~machine
    ~operands:
      [
        ("A", Operand.sparse a, dist_b);
        ("B", Operand.sparse b, dist_b);
        ("C", Operand.mat c, Tdn.Replicated);
        ("D", Operand.mat d, Tdn.Replicated);
      ]
    ~stmt:Tin.sddmm ~schedule

let spttv_problem ~machine ?schedule ?(nonzero_dist = false) b =
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        if nonzero_dist then spttv_nnz ~proc:(default_proc machine) ()
        else spttv_row ~proc:(default_proc machine) ()
  in
  let k = b.Tensor.dims.(2) in
  let a = Assemble.copy_pattern ~name:"A" ~levels:2 b in
  let c = dense_vec "c" k in
  let dist_b = if nonzero_dist then fused_nnz 3 else blocked in
  let dist_a = if nonzero_dist then fused_nnz 2 else blocked in
  Spdistal.problem ~machine
    ~operands:
      [
        ("A", Operand.sparse a, dist_a);
        ("B", Operand.sparse b, dist_b);
        ("c", Operand.vec c, Tdn.Replicated);
      ]
    ~stmt:Tin.spttv ~schedule

let mttkrp_problem ~machine ?schedule ?(cols = 32) ?(nonzero_dist = false) b =
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        if nonzero_dist then mttkrp_nnz ~proc:(default_proc machine) ()
        else mttkrp_row ~proc:(default_proc machine) ()
  in
  let ni = b.Tensor.dims.(0) and nj = b.Tensor.dims.(1) and nk = b.Tensor.dims.(2) in
  let a = Dense.mat_create "A" ni cols in
  let c = dense_mat "C" nj cols and d = dense_mat "D" nk cols in
  let dist_b = if nonzero_dist then fused_nnz 3 else blocked in
  Spdistal.problem ~machine
    ~operands:
      [
        ("A", Operand.mat a, blocked);
        ("B", Operand.sparse b, dist_b);
        ("C", Operand.mat c, Tdn.Replicated);
        ("D", Operand.mat d, Tdn.Replicated);
      ]
    ~stmt:Tin.spmttkrp ~schedule
