module Error = Spdistal_runtime.Error

type t =
  | Blocked of { tensor_dim : int; machine_dim : int }
  | Tiled of { mappings : (int * int) list }
  | Non_zero of { tensor_dim : int; machine_dim : int }
  | Fused_non_zero of { dims : int list; machine_dim : int }
  | Replicated

let dim_vars = [| "x"; "y"; "z"; "w" |]
let var d = if d < Array.length dim_vars then dim_vars.(d) else Printf.sprintf "d%d" d

let identity_stmt ~tensor ~order =
  let vars = List.init order var in
  Tin.assign tensor vars (Tin.access tensor vars)

(* The variables a fused non-zero split collapses, left to right. *)
let fuse_chain dims =
  match dims with
  | [] | [ _ ] ->
      Error.fail Error.Compile "Tdn: fusion needs at least two dimensions"
  | _ -> List.map var dims

let to_schedule ~tensor ~order tdn =
  let stmt = identity_stmt ~tensor ~order in
  let tensors = [ tensor ] in
  (* A non-zero split names its position variable after the (fused)
     variable it iterates: [x] -> [xp], [xy] -> [xyp]. *)
  let nnz vars =
    Schedule.nnz ~pv:(String.concat "" vars ^ "p") ~tensor ~tensors vars
  in
  let sched =
    match tdn with
    | Replicated ->
        Error.fail Error.Compile "Tdn.to_schedule: Replicated has no partition"
    | Blocked { tensor_dim; _ } | Tiled { mappings = [ (tensor_dim, _) ] } ->
        Schedule.row ~tensors (var tensor_dim)
    | Tiled _ ->
        Error.fail Error.Compile
          "Tdn.to_schedule: multi-dim tilings are mapping-only here"
    | Non_zero { tensor_dim; _ } -> nnz [ var tensor_dim ]
    | Fused_non_zero { dims; _ } -> nnz (fuse_chain dims)
  in
  (stmt, sched)

let pp ~tensor fmt tdn =
  let subs dims = String.concat "" (List.map var dims) in
  match tdn with
  | Blocked { tensor_dim; machine_dim } ->
      Format.fprintf fmt "%s |->_%s M.%d" tensor (var tensor_dim) machine_dim
  | Tiled { mappings } ->
      Format.fprintf fmt "%s_{%s} |-> M" tensor
        (subs (List.map fst mappings))
  | Non_zero { tensor_dim; machine_dim } ->
      Format.fprintf fmt "%s |->_~%s M.%d" tensor (var tensor_dim) machine_dim
  | Fused_non_zero { dims; machine_dim } ->
      Format.fprintf fmt "%s |->^{%s->f}_~f M.%d" tensor (subs dims) machine_dim
  | Replicated -> Format.fprintf fmt "%s replicated on M" tensor
