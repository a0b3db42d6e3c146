open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir

type coloring_state = {
  mutable entries : (int * int) list;  (* reversed *)
  c_axis : Partition.axis;
}

module Trace = Spdistal_obs.Trace

(* A partition's derivation: its operator, the region it partitions, the
   evaluated coloring bounds and axis, and the derivation of its input
   partition.  Two partitions with equal derivations over the same operand
   slots are equal. *)
type key =
  | K_bounds of Loop_ir.rref * (int * int) array * Partition.axis
  | K_bounds_strided of Loop_ir.rref * int * (int * int) array * Partition.axis
  | K_value_ranges of Loop_ir.rref * (int * int) array * Partition.axis
  | K_image_range of Loop_ir.rref * key * Loop_ir.rref
  | K_preimage_range of Loop_ir.rref * key
  | K_image_values of Loop_ir.rref * key * Loop_ir.rref
  | K_scale of key * int
  | K_unscale of key * int

(* Keys nest, and their bounds arrays differ only deep inside; hash more
   of them than [Hashtbl.hash] does. *)
module Shared = Hashtbl.Make (struct
  type t = key

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 256
end)

type shared = Partition.t Shared.t

let shared () = Shared.create 16

type env = {
  bindings : Operand.bindings;
  colorings : (string, coloring_state) Hashtbl.t;
  partitions : (string, Partition.t) Hashtbl.t;
  keys : (string, key) Hashtbl.t;
  table : shared;
  mutable dep_ops : int;
  mutable dep_elems : int;
  mutable parts : int;
  trace : Trace.t;
}

type stats = {
  mutable s_parts : int;
  mutable s_dep_ops : int;
  mutable s_dep_elems : int;
}

let stats () = { s_parts = 0; s_dep_ops = 0; s_dep_elems = 0 }

let accum_stats s env =
  s.s_parts <- s.s_parts + env.parts;
  s.s_dep_ops <- s.s_dep_ops + env.dep_ops;
  s.s_dep_elems <- s.s_dep_elems + env.dep_elems

let create ?(trace = Trace.null) ?(shared = shared ()) bindings =
  {
    bindings;
    colorings = Hashtbl.create 16;
    partitions = Hashtbl.create 16;
    keys = Hashtbl.create 16;
    table = shared;
    dep_ops = 0;
    dep_elems = 0;
    parts = 0;
    trace;
  }

(* A dependent-partitioning operation (the paper's image/preimage/value-range
   queries): counted always — [elems] is the number of region entries the op
   scans, the basis of its simulated price — and timed on the host clock when
   tracing. *)
let dep_op env name ~elems f =
  env.dep_ops <- env.dep_ops + 1;
  env.dep_elems <- env.dep_elems + elems;
  Trace.with_wall_span env.trace
    ~track:(Trace.Host (Domain.self () :> int))
    ~cat:"dep" ~name f

let data env name = (Operand.find env.bindings name).Operand.data

let sparse env name =
  match data env name with
  | Operand.Sparse t -> t
  | Operand.Vec _ | Operand.Mat _ ->
      Error.fail ~kernel:name Error.Partition_eval "operand is not sparse"

let eval_dim env = function
  | Loop_ir.Dim_of_level (t, k) -> (
      match data env t with
      | Operand.Sparse tn -> tn.Tensor.dims.(tn.Tensor.mode_order.(k))
      | Operand.Vec v ->
          if k <> 0 then Error.fail Error.Partition_eval "vector level %d" k;
          v.Dense.n
      | Operand.Mat m -> if k = 0 then m.Dense.rows else m.Dense.cols)
  | Loop_ir.Extent_of_level (t, k) -> Tensor.level_extent (sparse env t) k
  | Loop_ir.Nnz_of t -> Tensor.nnz (sparse env t)
  | Loop_ir.Int_dim n -> n

let rec eval_aexpr env ~color e =
  let cvar, cval = color in
  match e with
  | Loop_ir.Int n -> n
  | Loop_ir.Color_var v ->
      if v = cvar then cval
      else Error.fail Error.Partition_eval "unbound color var %s" v
  | Loop_ir.Dim d -> eval_dim env d
  | Loop_ir.Add (a, b) -> eval_aexpr env ~color a + eval_aexpr env ~color b
  | Loop_ir.Sub (a, b) -> eval_aexpr env ~color a - eval_aexpr env ~color b
  | Loop_ir.Mul (a, b) -> eval_aexpr env ~color a * eval_aexpr env ~color b
  | Loop_ir.Div (a, b) -> eval_aexpr env ~color a / eval_aexpr env ~color b

let rref_ispace env = function
  | Loop_ir.Pos_r (t, k) -> (Tensor.pos_of (sparse env t) k).Region.ispace
  | Loop_ir.Crd_r (t, k) -> (Tensor.crd_of (sparse env t) k).Region.ispace
  | Loop_ir.Vals_r t -> (sparse env t).Tensor.vals.Region.F.ispace
  | Loop_ir.Dom_r (t, k) -> (
      match data env t with
      | Operand.Sparse tn -> Iset.range (Tensor.level_extent tn k)
      | Operand.Vec v ->
          if k <> 0 then Error.fail Error.Partition_eval "vector dom %d" k;
          Iset.range v.Dense.n
      | Operand.Mat m -> Iset.range (if k = 0 then m.Dense.rows else m.Dense.cols))

let find_partition env name =
  match Hashtbl.find_opt env.partitions name with
  | Some p -> p
  | None -> Error.fail Error.Partition_eval "undefined partition %s" name

let find_key env name =
  match Hashtbl.find_opt env.keys name with
  | Some k -> k
  | None -> Error.fail Error.Partition_eval "undefined partition %s" name

(* The partition derived as [key]: the shared table's, or [derive ()]'s,
   which the table then keeps. *)
let lookup env key derive =
  match Shared.find_opt env.table key with
  | Some p -> p
  | None ->
      let p = derive () in
      Shared.add env.table key p;
      p

let coloring_state env name =
  match Hashtbl.find_opt env.colorings name with
  | Some st -> st
  | None -> Error.fail Error.Partition_eval "undefined coloring %s" name

let coloring_bounds env name =
  let st = coloring_state env name in
  (Array.of_list (List.rev st.entries), st.c_axis)

let scale_subsets ~f part =
  let subsets =
    Array.map
      (fun s ->
        Iset.of_intervals
          (Iset.fold_intervals (fun lo hi acc -> f lo hi :: acc) s []))
      part.Partition.subsets
  in
  subsets

(* A partition expression's derivation key, the dependent-partitioning
   operation it runs (its name and the region entries it scans), if any,
   and how to evaluate it. *)
let eval_pexpr env = function
  | Loop_ir.By_bounds { target; coloring } ->
      let bounds, axis = coloring_bounds env coloring in
      ( K_bounds (target, bounds, axis),
        None,
        fun () -> Partition.by_bounds ~axis (rref_ispace env target) bounds )
  | Loop_ir.By_bounds_strided { target; coloring; dim } ->
      let d = eval_dim env dim in
      let bounds, axis = coloring_bounds env coloring in
      ( K_bounds_strided (target, d, bounds, axis),
        None,
        fun () ->
          Partition.by_bounds_strided ~axis (rref_ispace env target) ~dim:d
            bounds )
  | Loop_ir.By_value_ranges { target; coloring } ->
      let crd =
        match target with
        | Loop_ir.Crd_r (t, k) -> Tensor.crd_of (sparse env t) k
        | _ -> Error.fail Error.Partition_eval "value ranges need a crd region"
      in
      let bounds, axis = coloring_bounds env coloring in
      let tgt = rref_ispace env target in
      ( K_value_ranges (target, bounds, axis),
        Some ("by_value_ranges", Iset.cardinal tgt),
        fun () -> Partition.by_value_ranges ~axis ~values:crd tgt bounds )
  | Loop_ir.Image_range { pos; part; target } ->
      let posr =
        match pos with
        | Loop_ir.Pos_r (t, k) -> Tensor.pos_of (sparse env t) k
        | _ -> Error.fail Error.Partition_eval "image needs a pos region"
      in
      ( K_image_range (pos, find_key env part, target),
        Some ("image_range", Iset.cardinal posr.Region.ispace),
        fun () ->
          Dependent.image_ranges posr (find_partition env part)
            (rref_ispace env target) )
  | Loop_ir.Preimage_range { pos; part } ->
      let posr =
        match pos with
        | Loop_ir.Pos_r (t, k) -> Tensor.pos_of (sparse env t) k
        | _ -> Error.fail Error.Partition_eval "preimage needs a pos region"
      in
      ( K_preimage_range (pos, find_key env part),
        Some ("preimage_range", Iset.cardinal posr.Region.ispace),
        fun () -> Dependent.preimage_ranges posr (find_partition env part) )
  | Loop_ir.Image_values { crd; part; target } ->
      let crdr =
        match crd with
        | Loop_ir.Crd_r (t, k) -> Tensor.crd_of (sparse env t) k
        | _ -> Error.fail Error.Partition_eval "imageValues needs a crd region"
      in
      ( K_image_values (crd, find_key env part, target),
        Some ("image_values", Iset.cardinal crdr.Region.ispace),
        fun () ->
          Dependent.image_values crdr (find_partition env part)
            (rref_ispace env target) )
  | Loop_ir.Copy_part p -> (find_key env p, None, fun () -> find_partition env p)
  | Loop_ir.Scale_dense { part; dim } ->
      let d = eval_dim env dim in
      ( K_scale (find_key env part, d),
        None,
        fun () ->
          let p = find_partition env part in
          let subsets =
            scale_subsets ~f:(fun lo hi -> (lo * d, ((hi + 1) * d) - 1)) p
          in
          let parent =
            if Iset.is_empty p.Partition.parent then Iset.empty
            else
              Iset.interval
                (Iset.min_elt p.Partition.parent * d)
                (((Iset.max_elt p.Partition.parent + 1) * d) - 1)
          in
          Partition.make ~axis:p.Partition.axis parent subsets )
  | Loop_ir.Unscale_dense { part; dim } ->
      let d = eval_dim env dim in
      ( K_unscale (find_key env part, d),
        None,
        fun () ->
          let p = find_partition env part in
          let subsets = scale_subsets ~f:(fun lo hi -> (lo / d, hi / d)) p in
          let parent =
            if Iset.is_empty p.Partition.parent then Iset.empty
            else
              Iset.interval
                (Iset.min_elt p.Partition.parent / d)
                (Iset.max_elt p.Partition.parent / d)
          in
          Partition.make ~axis:p.Partition.axis parent subsets )

let rec eval_stmt env = function
  | Loop_ir.Comment _ -> ()
  | Loop_ir.Init_coloring { coloring; axis } ->
      Hashtbl.replace env.colorings coloring { entries = []; c_axis = axis }
  | Loop_ir.For_colors { cvar; count; body } ->
      for c = 0 to count - 1 do
        List.iter
          (function
            | Loop_ir.Coloring_entry { coloring; lo; hi } ->
                let l = eval_aexpr env ~color:(cvar, c) lo
                and h = eval_aexpr env ~color:(cvar, c) hi in
                let st =
                  match Hashtbl.find_opt env.colorings coloring with
                  | Some st -> st
                  | None -> Error.fail Error.Partition_eval "entry before init"
                in
                st.entries <- (l, h) :: st.entries
            | s -> eval_stmt env s)
          body
      done
  | Loop_ir.Coloring_entry _ ->
      Error.fail Error.Partition_eval "coloring entry outside a color loop"
  | Loop_ir.Def_partition { pname; expr } ->
      (* Counted (and spanned) before the lookup, so a partition recalled
         from the shared table bills exactly what evaluating it would. *)
      env.parts <- env.parts + 1;
      let key, op, derive = eval_pexpr env expr in
      let find () = lookup env key derive in
      let p =
        match op with
        | Some (name, elems) -> dep_op env name ~elems find
        | None -> find ()
      in
      Hashtbl.replace env.keys pname key;
      Hashtbl.replace env.partitions pname p
  | Loop_ir.Distributed_for _ ->
      Error.fail Error.Partition_eval "distributed loop reached partition evaluator"

let eval_partitions env prog =
  let parts, loops =
    List.partition
      (function Loop_ir.Distributed_for _ -> false | _ -> true)
      prog.Loop_ir.stmts
  in
  List.iter (eval_stmt env) parts;
  loops
