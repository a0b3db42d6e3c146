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
