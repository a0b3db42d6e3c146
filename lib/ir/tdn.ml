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

(* Fuse dims 0..k into a single variable, left to right. *)
let fuse_chain dims =
  match dims with
  | [] | [ _ ] ->
      Error.fail Error.Compile "Tdn: fusion needs at least two dimensions"
  | d0 :: rest ->
      let cmds, last =
        List.fold_left
          (fun (cmds, prev) d ->
            let f = prev ^ var d in
            (Schedule.Fuse { f; a = prev; b = var d } :: cmds, f))
          ([], var d0) rest
      in
      (List.rev cmds, last)

let to_schedule ~tensor ~order tdn =
  let stmt = identity_stmt ~tensor ~order in
  let sched =
    match tdn with
    | Replicated ->
        Error.fail Error.Compile "Tdn.to_schedule: Replicated has no partition"
    | Blocked { tensor_dim; _ } | Tiled { mappings = [ (tensor_dim, _) ] } ->
        let v = var tensor_dim in
        [
          Schedule.Divide { v; outer = v ^ "o"; inner = v ^ "i" };
          Schedule.Distribute [ v ^ "o" ];
          Schedule.Communicate { tensors = [ tensor ]; at = v ^ "o" };
        ]
    | Tiled _ ->
        Error.fail Error.Compile
          "Tdn.to_schedule: multi-dim tilings are mapping-only here"
    | Non_zero { tensor_dim; _ } ->
        (* Non-zero split of one dimension's stored coordinates: iterate that
           dimension in position space, then divide/distribute. *)
        let v = var tensor_dim in
        let pv = v ^ "p" in
        [
          Schedule.Pos { v; pv; tensor };
          Schedule.Divide { v = pv; outer = pv ^ "o"; inner = pv ^ "i" };
          Schedule.Distribute [ pv ^ "o" ];
          Schedule.Communicate { tensors = [ tensor ]; at = pv ^ "o" };
        ]
    | Fused_non_zero { dims; _ } ->
        let fuses, f = fuse_chain dims in
        let pv = f ^ "p" in
        fuses
        @ [
            Schedule.Pos { v = f; pv; tensor };
            Schedule.Divide { v = pv; outer = pv ^ "o"; inner = pv ^ "i" };
            Schedule.Distribute [ pv ^ "o" ];
            Schedule.Communicate { tensors = [ tensor ]; at = pv ^ "o" };
          ]
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
