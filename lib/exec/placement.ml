open Spdistal_runtime
open Spdistal_ir

type residency =
  | Replicated_everywhere
  | Vals_partitioned of Partition.t
  | Dim_partitioned of { dim : int; part : Partition.t }
  | Not_resident

type t = (string * residency) list

let find t name =
  match List.assoc_opt name t with Some r -> r | None -> Not_resident

let of_tdn ?stats ?shared ~machine ~bindings name tdn =
  match ((Operand.find bindings name).Operand.data, tdn) with
  | _, Tdn.Replicated -> Replicated_everywhere
  | Operand.Vec _, Tdn.Blocked _ ->
      let v = Operand.find_vec bindings name in
      Dim_partitioned
        {
          dim = 0;
          part = Partition.equal_blocks (Iset.range v.Spdistal_formats.Dense.n) (Machine.pieces machine);
        }
  | Operand.Mat _, Tdn.Blocked { tensor_dim; _ } ->
      let m = Operand.find_mat bindings name in
      let n =
        if tensor_dim = 0 then m.Spdistal_formats.Dense.rows
        else m.Spdistal_formats.Dense.cols
      in
      Dim_partitioned
        {
          dim = tensor_dim;
          part = Partition.equal_blocks (Iset.range n) (Machine.pieces machine);
        }
  | Operand.Mat _, Tdn.Tiled { mappings = (tensor_dim, machine_dim) :: _ } ->
      let m = Operand.find_mat bindings name in
      let n =
        if tensor_dim = 0 then m.Spdistal_formats.Dense.rows
        else m.Spdistal_formats.Dense.cols
      in
      (* Blocked by the named machine grid dimension; the partition carries
         that axis so the interpreter can map a piece id to its color even
         when grid dimensions have equal sizes. *)
      let count, axis =
        if Array.length machine.Machine.grid > machine_dim then
          (machine.Machine.grid.(machine_dim), Partition.Grid_dim machine_dim)
        else (Machine.pieces machine, Partition.Flat)
      in
      Dim_partitioned
        { dim = tensor_dim; part = Partition.equal_blocks ~axis (Iset.range n) count }
  | Operand.Sparse tensor, _ ->
      (* Lower the TDN's partitioning program (§V-C) and execute it; the
         tensor's vals partition is its residency. *)
      let env_l = Operand.env_of_bindings bindings in
      let prog =
        Lower.placement_of_tdn ~env:env_l ~grid:machine.Machine.grid ~tensor:name
          ~order:(Spdistal_formats.Tensor.order tensor)
          tdn
      in
      let penv = Part_eval.create ?shared bindings in
      ignore (Part_eval.eval_partitions penv prog);
      Option.iter (fun s -> Part_eval.accum_stats s penv) stats;
      Vals_partitioned (Part_eval.find_partition penv (name ^ "ValsPart"))
  | (Operand.Vec _ | Operand.Mat _), _ ->
      Error.fail ~kernel:name Error.Placement "unsupported dense distribution"

(* Remap a piece whose node crashed onto a surviving grid slot:
   deterministic round-robin over the pieces of surviving nodes, mirroring a
   Legion mapper re-mapping a task whose target processor died.  Slots are
   homogeneous and the replacement re-fetches its inputs over the network
   either way, so the target's identity matters for liveness (no survivors
   means the cluster is gone), not for the cost model. *)
let remap_piece ~machine ~crashed piece =
  if crashed = [] then piece
  else
    let survivors =
      List.filter
        (fun p -> not (List.mem (Machine.node_of_piece machine p) crashed))
        (List.init (Machine.pieces machine) Fun.id)
    in
    match survivors with
    | [] ->
        Error.fail ~piece Error.Recovery
          "all %d nodes crashed; no surviving slot to remap onto"
          (Machine.nodes machine)
    | _ -> List.nth survivors (piece mod List.length survivors)

let resident_set t ~tensor ~comm_dim ~piece_subset =
  match find t tensor with
  | Replicated_everywhere -> `All
  | Not_resident -> `Nothing
  | Vals_partitioned part ->
      if comm_dim = -1 then `Set (piece_subset part) else `Nothing
  | Dim_partitioned { dim; part } ->
      if dim = comm_dim then `Set (piece_subset part) else `Nothing
