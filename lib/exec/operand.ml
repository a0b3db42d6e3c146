open Spdistal_formats
module Error = Spdistal_runtime.Error

type data = Sparse of Tensor.t | Vec of Dense.vec | Mat of Dense.mat
type slot = { mutable data : data }
type bindings = (string * slot) list

let sparse t = { data = Sparse t }
let vec v = { data = Vec v }
let mat m = { data = Mat m }

let find bindings name =
  match List.assoc_opt name bindings with
  | Some s -> s
  | None -> Error.fail Error.Config "unbound operand %s" name

let find_sparse bindings name =
  match (find bindings name).data with
  | Sparse t -> t
  | Vec _ | Mat _ -> Error.fail ~kernel:name Error.Config "operand is not sparse"

let find_vec bindings name =
  match (find bindings name).data with
  | Vec v -> v
  | Sparse _ | Mat _ -> Error.fail ~kernel:name Error.Config "operand is not a vector"

let find_mat bindings name =
  match (find bindings name).data with
  | Mat m -> m
  | Sparse _ | Vec _ -> Error.fail ~kernel:name Error.Config "operand is not a matrix"

let shares_storage a b =
  let floats = function
    | Vec v -> Some v.Dense.data
    | Mat m -> Some m.Dense.data
    | Sparse _ -> None
  in
  match (a, b) with
  | Sparse x, Sparse y ->
      x.Tensor.vals.Spdistal_runtime.Region.F.data
      == y.Tensor.vals.Spdistal_runtime.Region.F.data
  | _ -> (
      (* Every empty float array is the same atom, and shares nothing. *)
      match (floats a, floats b) with
      | Some x, Some y -> Array.length x > 0 && x == y
      | _ -> false)

let dim data d =
  match data with
  | Sparse t -> t.Tensor.dims.(d)
  | Vec v ->
      if d <> 0 then Error.fail Error.Config "Operand.dim: vector has one dimension";
      v.Dense.n
  | Mat m -> (
      match d with
      | 0 -> m.Dense.rows
      | 1 -> m.Dense.cols
      | _ -> Error.fail Error.Config "Operand.dim: bad dimension %d" d)

let order = function
  | Sparse t -> Tensor.order t
  | Vec _ -> 1
  | Mat _ -> 2

let slice_bytes data d =
  match data with
  | Sparse t ->
      (* Bytes per leaf position: value + one crd entry per compressed
         level (pos arrays amortize over rows). *)
      let compressed =
        Array.fold_left
          (fun n l ->
            match l with
            | Level.Compressed _ | Level.Singleton _ -> n + 1
            | Level.Dense _ -> n)
          0 t.Tensor.levels
      in
      8. +. (8. *. float_of_int compressed)
  | Vec _ -> 8.
  | Mat m -> (
      match d with
      | 0 -> 8. *. float_of_int m.Dense.cols
      | 1 -> 8. *. float_of_int m.Dense.rows
      | _ -> Error.fail Error.Config "Operand.slice_bytes: bad dimension %d" d)

(* Deep copy of an operand's payload: fresh backing arrays, identical values
   and structure.  The execution context snapshots the output operand with
   this so each warm-start iteration can restart from the pristine state and
   recompute exactly what a single application computes. *)
let copy_region r =
  Spdistal_runtime.Region.of_array r.Spdistal_runtime.Region.name
    (Array.copy r.Spdistal_runtime.Region.data)

let copy_data = function
  | Vec v -> Vec { v with Dense.data = Array.copy v.Dense.data }
  | Mat m -> Mat { m with Dense.data = Array.copy m.Dense.data }
  | Sparse t ->
      Sparse
        {
          t with
          Tensor.dims = Array.copy t.Tensor.dims;
          mode_order = Array.copy t.Tensor.mode_order;
          levels =
            Array.map
              (function
                | Level.Dense _ as l -> l
                | Level.Compressed { pos; crd } ->
                    Level.Compressed
                      { pos = copy_region pos; crd = copy_region crd }
                | Level.Singleton { crd } ->
                    Level.Singleton { crd = copy_region crd })
              t.Tensor.levels;
          vals = Spdistal_runtime.Region.F.copy t.Tensor.vals;
        }

let meta = function
  | Sparse t ->
      Spdistal_ir.Lower.Sparse_op
        {
          formats = Array.map Level.kind t.Tensor.levels;
          mode_order = t.Tensor.mode_order;
        }
  | Vec _ -> Spdistal_ir.Lower.Vec_op
  | Mat _ -> Spdistal_ir.Lower.Mat_op

let env_of_bindings bindings =
  List.map (fun (name, slot) -> (name, meta slot.data)) bindings
