module Error = Spdistal_runtime.Error

type proc = Cpu_thread | Gpu_thread

type cmd =
  | Divide of { v : string; outer : string; inner : string }
  | Split of { v : string; outer : string; inner : string; factor : int }
  | Fuse of { f : string; a : string; b : string }
  | Pos of { v : string; pv : string; tensor : string }
  | Reorder of string list
  | Distribute of string list
  | Communicate of { tensors : string list; at : string }
  | Parallelize of { v : string; proc : proc }
  | Precompute of { v : string; tensors : string list }

type t = cmd list

type strategy =
  | Universe_dist of { var : string }
  | Non_zero_dist of { tensor : string; fused : string list }

type plan = {
  strategy : strategy;
  dist_vars : string list;
  secondary_var : string option;
  communicated : (string list * string) list;
  parallel_leaf : proc option;
  workspace : bool;
}

(* Provenance of a derived variable back to the statement's original
   variables. *)
type root =
  | Orig of string
  | Fused_root of string list
  | Pos_root of { tensor : string; fused : string list }

let analyze stmt sched =
  let originals = Tin.index_vars stmt in
  let roots : (string, root) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace roots v (Orig v)) originals;
  let root_of v =
    match Hashtbl.find_opt roots v with
    | Some r -> r
    | None -> Error.fail Error.Compile "Schedule.analyze: unknown variable %s" v
  in
  let vars_of_root = function
    | Orig v -> [ v ]
    | Fused_root vs -> vs
    | Pos_root { fused; _ } -> fused
  in
  let communicated = ref [] and parallel_leaf = ref None in
  let distributed = ref [] and workspace = ref false in
  List.iter
    (fun cmd ->
      match cmd with
      | Divide { v; outer; inner } | Split { v; outer; inner; _ } ->
          let r = root_of v in
          Hashtbl.replace roots outer r;
          Hashtbl.replace roots inner r
      | Fuse { f; a; b } ->
          let va = vars_of_root (root_of a) and vb = vars_of_root (root_of b) in
          Hashtbl.replace roots f (Fused_root (va @ vb))
      | Pos { v; pv; tensor } ->
          let fused = vars_of_root (root_of v) in
          Hashtbl.replace roots pv (Pos_root { tensor; fused })
      | Reorder _ -> ()
      | Distribute vs ->
          List.iter (fun v -> ignore (root_of v)) vs;
          distributed := !distributed @ vs
      | Communicate { tensors; at } ->
          ignore (root_of at);
          communicated := (tensors, at) :: !communicated
      | Parallelize { proc; _ } -> parallel_leaf := Some proc
      | Precompute _ -> workspace := true)
    sched;
  let dist_vars = !distributed in
  (match dist_vars with
  | [] -> Error.fail Error.Compile "Schedule.analyze: no distribute command"
  | _ :: _ :: _ :: _ ->
      Error.fail Error.Compile
        "Schedule.analyze: at most two distributed variables"
  | _ -> ());
  let primary = List.hd dist_vars in
  let secondary_var = match dist_vars with [ _; s ] -> Some s | _ -> None in
  let strategy =
    match root_of primary with
    | Orig v -> Universe_dist { var = v }
    | Fused_root _ ->
        Error.fail Error.Compile
          "Schedule.analyze: distributing a fused coordinate loop requires a \
           pos transformation first"
    | Pos_root { tensor; fused } -> Non_zero_dist { tensor; fused }
  in
  (match (strategy, secondary_var) with
  | Non_zero_dist _, Some _ ->
      Error.fail Error.Compile
        "Schedule.analyze: 2-D distribution is only supported for \
         coordinate-value loops"
  | _ -> ());
  {
    strategy;
    dist_vars;
    secondary_var;
    communicated = List.rev !communicated;
    parallel_leaf = !parallel_leaf;
    workspace = !workspace;
  }

let pp_proc fmt = function
  | Cpu_thread -> Format.fprintf fmt "CPUThread"
  | Gpu_thread -> Format.fprintf fmt "GPUThread"

let pp_cmd fmt = function
  | Divide { v; outer; inner } ->
      Format.fprintf fmt "divide(%s, %s, %s, M)" v outer inner
  | Split { v; outer; inner; factor } ->
      Format.fprintf fmt "split(%s, %s, %s, %d)" v outer inner factor
  | Fuse { f; a; b } -> Format.fprintf fmt "fuse(%s, %s, %s)" f a b
  | Pos { v; pv; tensor } -> Format.fprintf fmt "pos(%s, %s, %s)" v pv tensor
  | Reorder vs -> Format.fprintf fmt "reorder(%s)" (String.concat ", " vs)
  | Distribute vs -> Format.fprintf fmt "distribute(%s)" (String.concat ", " vs)
  | Communicate { tensors; at } ->
      Format.fprintf fmt "communicate({%s}, %s)" (String.concat ", " tensors) at
  | Parallelize { v; proc } ->
      Format.fprintf fmt "parallelize(%s, %a)" v pp_proc proc
  | Precompute { v; tensors } ->
      Format.fprintf fmt "precompute(%s, {%s})" v (String.concat ", " tensors)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt ".%a" pp_cmd c)
    t;
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t

(* Parser for the rendered command chain (the inverse of [pp]); [divide]'s
   trailing machine-size placeholder "M" is accepted and discarded. *)
let of_string str =
  let n = String.length str in
  let pos = ref 0 in
  let exception Fail of string in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip () =
    while
      !pos < n
      &&
      let c = str.[!pos] in
      c = ' ' || c = '\t' || c = '\n' || c = '\r'
    do
      incr pos
    done
  in
  let peek () =
    skip ();
    if !pos < n then Some str.[!pos] else None
  in
  let eat c =
    match peek () with
    | Some d when d = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let ident () =
    skip ();
    let start = !pos in
    while !pos < n && is_ident str.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected identifier";
    String.sub str start (!pos - start)
  in
  (* Comma-separated identifiers terminated by [close]. *)
  let idents close =
    let rec go acc =
      let v = ident () in
      match peek () with
      | Some ',' ->
          eat ',';
          go (v :: acc)
      | _ ->
          eat close;
          List.rev (v :: acc)
    in
    go []
  in
  let braced () =
    eat '{';
    idents '}'
  in
  let cmd () =
    (match peek () with Some '.' -> eat '.' | _ -> ());
    let name = ident () in
    eat '(';
    match name with
    | "divide" -> (
        match idents ')' with
        | [ v; outer; inner; _machine ] -> Divide { v; outer; inner }
        | _ -> fail "divide expects (v, outer, inner, M)")
    | "split" -> (
        match idents ')' with
        | [ v; outer; inner; f ] -> (
            match int_of_string_opt f with
            | Some factor -> Split { v; outer; inner; factor }
            | None -> fail "split factor must be an integer")
        | _ -> fail "split expects (v, outer, inner, factor)")
    | "fuse" -> (
        match idents ')' with
        | [ f; a; b ] -> Fuse { f; a; b }
        | _ -> fail "fuse expects (f, a, b)")
    | "pos" -> (
        match idents ')' with
        | [ v; pv; tensor ] -> Pos { v; pv; tensor }
        | _ -> fail "pos expects (v, pv, tensor)")
    | "reorder" -> Reorder (idents ')')
    | "distribute" -> Distribute (idents ')')
    | "communicate" ->
        let tensors = braced () in
        eat ',';
        let at = ident () in
        eat ')';
        Communicate { tensors; at }
    | "parallelize" -> (
        match idents ')' with
        | [ v; "CPUThread" ] -> Parallelize { v; proc = Cpu_thread }
        | [ v; "GPUThread" ] -> Parallelize { v; proc = Gpu_thread }
        | _ -> fail "parallelize expects (v, CPUThread|GPUThread)")
    | "precompute" ->
        let v = ident () in
        eat ',';
        let tensors = braced () in
        eat ')';
        Precompute { v; tensors }
    | other -> fail (Printf.sprintf "unknown command %s" other)
  in
  try
    let cmds = ref [] in
    while peek () <> None do
      cmds := cmd () :: !cmds
    done;
    Ok (List.rev !cmds)
  with Fail msg -> Error ("Schedule.of_string: " ^ msg)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m
