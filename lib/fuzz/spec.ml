(* A fuzz case is a pure, serializable description drawing from all four
   sub-languages: the statement shape (TIN), the driver's level formats, the
   per-operand data distributions (TDN), and the schedule — plus the machine
   shape, the host simulation degree and an optional fault schedule.  [build]
   materializes it into a runnable problem deterministically; [to_string] /
   [of_string] round-trip it as the one-line seed spec reproducers quote. *)

open Spdistal_runtime
open Spdistal_formats
open Spdistal_ir
open Spdistal_exec
open Core

type dense_kind = Dvec | Dmat

type factor = { f_name : string; f_kind : dense_kind; f_vars : string list }

type out_spec =
  | Out_dense of { o_name : string; o_kind : dense_kind; o_vars : string list }
  | Out_sparse_prefix of { o_name : string; depth : int }
      (** pattern-preserving output sharing the driver's first [depth]
          levels (§V-B); requires an identity driver mode order *)
  | Out_sparse_merge of { o_name : string }
      (** unknown-pattern output of an additive merge, assembled two-phase *)

type sched_spec =
  | S_universe of { var : string; par : bool }
  | S_nnz of { fuse : int; par : bool }
      (** fuse the first [fuse] driver vars, then position-split the driver *)
  | S_batched of { par : bool }
      (** 2-D distribution: rows of the driver x the dense inner variable *)

type tdn_spec = T_rep | T_block of int | T_fused | T_pos of int | T_tiled

type t = {
  vars : (string * int) list;  (** index variable -> dimension size *)
  driver : string;
  driver_vars : string list;
  driver_kinds : Level.kind array;
  driver_mode : int array;
  density : float;
  dseed : int;  (** seed of the driver's (and merge inputs') coordinates *)
  merge_extra : int;  (** 0 = product statement; n>0 = merge of 1+n inputs *)
  factors : factor list;  (** dense factors of a product *)
  lit : float option;  (** literal coefficient multiplied into the product *)
  out : out_spec;
  sched : sched_spec;
  tdns : (string * tdn_spec) list;  (** per-operand data distribution *)
  gpu : bool;
  grid : int array;
  domains : int;  (** host simulation degree checked against domains=1 *)
  faults : (int * float) option;  (** fault schedule (seed, rate) to inject *)
  workspace : bool;  (** Precompute: merge via dense workspace *)
  auto : bool;  (** also auto-schedule the case and check agreement *)
}

let dim spec v =
  match List.assoc_opt v spec.vars with
  | Some d -> d
  | None -> Error.fail Error.Config "Spec: unbound variable %s" v

let is_merge spec = spec.merge_extra > 0

let merge_names spec =
  List.init spec.merge_extra (fun i -> String.make 1 (Char.chr (Char.code 'C' + i)))

let out_name spec =
  match spec.out with
  | Out_dense { o_name; _ }
  | Out_sparse_prefix { o_name; _ }
  | Out_sparse_merge { o_name } ->
      o_name

let operand_names spec =
  (out_name spec :: spec.driver :: [])
  @ (if is_merge spec then merge_names spec
     else List.map (fun f -> f.f_name) spec.factors)

let operand_count spec = List.length (operand_names spec)

(* ------------------------------------------------------------------ *)
(* Statement and schedule                                              *)
(* ------------------------------------------------------------------ *)

let out_vars spec =
  match spec.out with
  | Out_dense { o_vars; _ } -> o_vars
  | Out_sparse_prefix { depth; _ } ->
      List.filteri (fun i _ -> i < depth) spec.driver_vars
  | Out_sparse_merge _ -> spec.driver_vars

let stmt spec =
  let rhs =
    if is_merge spec then
      List.fold_left
        (fun e name -> Tin.(e + access name spec.driver_vars))
        (Tin.access spec.driver spec.driver_vars)
        (merge_names spec)
    else
      let base = Tin.access spec.driver spec.driver_vars in
      let with_factors =
        List.fold_left
          (fun e f -> Tin.(e * access f.f_name f.f_vars))
          base spec.factors
      in
      match spec.lit with
      | None -> with_factors
      | Some l -> Tin.(with_factors * Lit l)
  in
  Tin.assign (out_name spec) (out_vars spec) rhs

let schedule spec =
  let tensors = operand_names spec in
  let par p =
    if not p then None
    else if spec.gpu then Some Schedule.Gpu_thread
    else Some Schedule.Cpu_thread
  in
  let base =
    match spec.sched with
    | S_universe { var; par = p } -> Schedule.row ?par:(par p) ~tensors var
    | S_nnz { fuse; par = p } ->
        Schedule.nnz ?par:(par p) ~tensor:spec.driver ~tensors
          (List.filteri (fun i _ -> i < fuse) spec.driver_vars)
    | S_batched { par = p } -> (
        match spec.out with
        | Out_dense { o_vars; _ } ->
            Schedule.batched ?par:(par p) ~tensors (List.hd spec.driver_vars)
              (List.nth o_vars (List.length o_vars - 1))
        | _ ->
            Error.fail Error.Compile "Spec.schedule: batched needs a dense output")
  in
  base
  @
  if spec.workspace && is_merge spec then
    Schedule.workspace ~out:(out_name spec) (List.nth spec.driver_vars 1)
  else []

(* ------------------------------------------------------------------ *)
(* Operand materialization                                             *)
(* ------------------------------------------------------------------ *)

let gen_coo ~dims ~density ~seed =
  let r = Srng.create seed in
  let entries = ref [] in
  let rec cells prefix = function
    | [] ->
        if Srng.float r < density then begin
          let v = float_of_int (1 + Srng.int r 8) in
          let v = if Srng.int r 4 = 0 then -.v else v in
          entries := (Array.of_list (List.rev prefix), v) :: !entries
        end
    | d :: rest ->
        for x = 0 to d - 1 do
          cells (x :: prefix) rest
        done
  in
  cells [] dims;
  Coo.make (Array.of_list dims) (List.rev !entries)

let driver_dims spec = List.map (dim spec) spec.driver_vars

let driver_tensor spec ~name ~seed =
  let coo = gen_coo ~dims:(driver_dims spec) ~density:spec.density ~seed in
  Tensor.of_coo ~name ~formats:spec.driver_kinds ~mode_order:spec.driver_mode
    coo

let dense_val salt i = Kernels.dval ((salt * 7919) + i)

let tdn_of ~order = function
  | T_rep -> Tdn.Replicated
  | T_block d -> Tdn.Blocked { tensor_dim = d; machine_dim = 0 }
  | T_fused -> Tdn.Fused_non_zero { dims = List.init order Fun.id; machine_dim = 0 }
  | T_pos d -> Tdn.Non_zero { tensor_dim = d; machine_dim = 0 }
  | T_tiled -> Tdn.Tiled { mappings = [ (1, 1) ] }

let tdn_spec_of spec name =
  Option.value ~default:T_rep (List.assoc_opt name spec.tdns)

let build spec : Spdistal.problem =
  let machine =
    Spdistal.machine
      ~kind:(if spec.gpu then Machine.Gpu else Machine.Cpu)
      spec.grid
  in
  let driver_t = driver_tensor spec ~name:spec.driver ~seed:spec.dseed in
  let driver_order = List.length spec.driver_vars in
  let out_order = List.length (out_vars spec) in
  let out_slot =
    match spec.out with
    | Out_dense { o_name; o_kind = Dvec; o_vars } ->
        Operand.vec (Dense.vec_create o_name (dim spec (List.hd o_vars)))
    | Out_dense { o_name; o_kind = Dmat; o_vars } -> (
        match o_vars with
        | [ r; c ] ->
            Operand.mat (Dense.mat_create o_name (dim spec r) (dim spec c))
        | _ ->
            Error.fail Error.Config "Spec.build: dense matrix output needs two vars")
    | Out_sparse_prefix { o_name; depth } ->
        Operand.sparse (Assemble.copy_pattern ~name:o_name ~levels:depth driver_t)
    | Out_sparse_merge { o_name } ->
        let rows = dim spec (List.nth spec.driver_vars 0)
        and cols = dim spec (List.nth spec.driver_vars 1) in
        Operand.sparse (Tensor.csr ~name:o_name (Coo.make [| rows; cols |] []))
  in
  let with_tdn name order slot = (name, slot, tdn_of ~order (tdn_spec_of spec name)) in
  let rest =
    if is_merge spec then
      List.mapi
        (fun i name ->
          let t = driver_tensor { spec with driver_kinds = spec.driver_kinds }
              ~name ~seed:(spec.dseed + i + 1)
          in
          with_tdn name driver_order (Operand.sparse t))
        (merge_names spec)
    else
      List.mapi
        (fun i (f : factor) ->
          let salt = i + 1 in
          let slot =
            match (f.f_kind, f.f_vars) with
            | Dvec, [ v ] ->
                Operand.vec (Dense.vec_init f.f_name (dim spec v) (dense_val salt))
            | Dmat, [ r; c ] ->
                let cols = dim spec c in
                Operand.mat
                  (Dense.mat_init f.f_name (dim spec r) cols (fun x y ->
                       dense_val salt ((x * cols) + y)))
            | _ -> Error.fail Error.Config "Spec.build: factor arity"
          in
          let order = match f.f_kind with Dvec -> 1 | Dmat -> 2 in
          with_tdn f.f_name order slot)
        spec.factors
  in
  let operands =
    with_tdn (out_name spec) out_order out_slot
    :: with_tdn spec.driver driver_order (Operand.sparse driver_t)
    :: rest
  in
  Spdistal.problem ~machine ~operands ~stmt:(stmt spec) ~schedule:(schedule spec)

(* ------------------------------------------------------------------ *)
(* Serialization: the one-line seed spec                               *)
(* ------------------------------------------------------------------ *)

let kind_char = function
  | Level.Dense_k -> 'd'
  | Level.Compressed_k -> 'c'
  | Level.Compressed_nonunique_k -> 'n'
  | Level.Singleton_k -> 's'

let kind_of_char = function
  | 'd' -> Ok Level.Dense_k
  | 'c' -> Ok Level.Compressed_k
  | 'n' -> Ok Level.Compressed_nonunique_k
  | 's' -> Ok Level.Singleton_k
  | c -> Error (Printf.sprintf "bad level kind '%c'" c)

let dense_kind_str = function Dvec -> "v" | Dmat -> "m"

let tdn_str = function
  | T_rep -> "r"
  | T_block d -> Printf.sprintf "b%d" d
  | T_fused -> "f"
  | T_pos d -> Printf.sprintf "p%d" d
  | T_tiled -> "t"

(* Shortest decimal form that parses back to exactly the same float. *)
let fstr f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string spec =
  let b = Buffer.create 160 in
  let field k v = Buffer.add_string b (Printf.sprintf "%s=%s;" k v) in
  field "vars"
    (String.concat ","
       (List.map (fun (v, d) -> Printf.sprintf "%s:%d" v d) spec.vars));
  field "driver"
    (Printf.sprintf "%s:%s:%s:%s:%d" spec.driver
       (String.concat "." spec.driver_vars)
       ((Array.to_list spec.driver_kinds
        |> List.map (fun k -> String.make 1 (kind_char k))
        |> String.concat "")
       ^ ":"
       ^ (Array.to_list spec.driver_mode
         |> List.map string_of_int
         |> String.concat ""))
       (fstr spec.density) spec.dseed);
  if spec.merge_extra > 0 then field "merge" (string_of_int spec.merge_extra);
  if spec.factors <> [] then
    field "facts"
      (String.concat ","
         (List.map
            (fun f ->
              Printf.sprintf "%s:%s:%s" f.f_name (dense_kind_str f.f_kind)
                (String.concat "." f.f_vars))
            spec.factors));
  (match spec.lit with Some l -> field "lit" (fstr l) | None -> ());
  field "out"
    (match spec.out with
    | Out_dense { o_name; o_kind; o_vars } ->
        Printf.sprintf "%s:%s:%s" o_name (dense_kind_str o_kind)
          (String.concat "." o_vars)
    | Out_sparse_prefix { o_name; depth } -> Printf.sprintf "%s:p:%d" o_name depth
    | Out_sparse_merge { o_name } -> Printf.sprintf "%s:g" o_name);
  field "sched"
    (match spec.sched with
    | S_universe { var; par } -> Printf.sprintf "u:%s:%d" var (Bool.to_int par)
    | S_nnz { fuse; par } -> Printf.sprintf "n:%d:%d" fuse (Bool.to_int par)
    | S_batched { par } -> Printf.sprintf "b:%d" (Bool.to_int par));
  field "tdn"
    (String.concat ","
       (List.map (fun (n, t) -> Printf.sprintf "%s:%s" n (tdn_str t)) spec.tdns));
  if spec.gpu then field "gpu" "1";
  field "grid"
    (String.concat "x" (List.map string_of_int (Array.to_list spec.grid)));
  if spec.domains > 1 then field "dom" (string_of_int spec.domains);
  (match spec.faults with
  | Some (s, r) -> field "flt" (Printf.sprintf "%d:%s" s (fstr r))
  | None -> ());
  if spec.workspace then field "ws" "1";
  if spec.auto then field "at" "1";
  let s = Buffer.contents b in
  String.sub s 0 (String.length s - 1)

let split_on c s = String.split_on_char c s

(* Every key [to_string] emits. *)
let keys =
  [ "vars"; "driver"; "merge"; "facts"; "lit"; "out"; "sched"; "tdn"; "gpu";
    "grid"; "dom"; "flt"; "ws"; "at" ]

let of_string line =
  let ( let* ) = Result.bind in
  let parse_int what s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let parse_float what s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad %s %S" what s)
  in
  let rec each f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = each f rest in
        Ok (y :: ys)
  in
  let fields = split_on ';' (String.trim line) in
  let kvs = ref [] in
  let* () =
    List.fold_left
      (fun acc field ->
        let* () = acc in
        match String.index_opt field '=' with
        | Some i ->
            let k = String.sub field 0 i in
            if not (List.mem k keys) then
              Error (Printf.sprintf "unknown field %S" k)
            else if List.mem_assoc k !kvs then
              Error (Printf.sprintf "duplicate field %s" k)
            else begin
              kvs :=
                (k, String.sub field (i + 1) (String.length field - i - 1))
                :: !kvs;
              Ok ()
            end
        | None -> Error (Printf.sprintf "malformed field %S" field))
      (Ok ()) fields
  in
  let find k = List.assoc_opt k !kvs in
  (* [to_string] prints a flag only when set, as [k=1]. *)
  let flag k =
    match find k with
    | None -> Ok false
    | Some "1" -> Ok true
    | Some v -> Error (Printf.sprintf "bad %s flag %S (only 1)" k v)
  in
  let require k =
    match find k with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %s" k)
  in
  let* vars_s = require "vars" in
  let* vars =
    each
      (fun vd ->
        match split_on ':' vd with
        | [ v; d ] ->
            let* d = parse_int "dimension" d in
            Ok (v, d)
        | _ -> Error (Printf.sprintf "bad vars entry %S" vd))
      (split_on ',' vars_s)
  in
  let* driver_s = require "driver" in
  let* driver, driver_vars, driver_kinds, driver_mode, density, dseed =
    match split_on ':' driver_s with
    | [ name; dvars; kinds; mode; dens; seed ] ->
        let* kinds =
          each kind_of_char (List.init (String.length kinds) (String.get kinds))
        in
        let* mode =
          each
            (fun c -> parse_int "mode digit" (String.make 1 c))
            (List.init (String.length mode) (String.get mode))
        in
        let* dens = parse_float "density" dens in
        let* seed = parse_int "dseed" seed in
        Ok
          ( name,
            split_on '.' dvars,
            Array.of_list kinds,
            Array.of_list mode,
            dens,
            seed )
    | _ -> Error (Printf.sprintf "bad driver field %S" driver_s)
  in
  let* merge_extra =
    match find "merge" with None -> Ok 0 | Some m -> parse_int "merge" m
  in
  let* factors =
    match find "facts" with
    | None -> Ok []
    | Some fs ->
        each
          (fun f ->
            match split_on ':' f with
            | [ f_name; "v"; vars ] ->
                Ok { f_name; f_kind = Dvec; f_vars = split_on '.' vars }
            | [ f_name; "m"; vars ] ->
                Ok { f_name; f_kind = Dmat; f_vars = split_on '.' vars }
            | _ -> Error (Printf.sprintf "bad factor %S" f))
          (split_on ',' fs)
  in
  let* lit =
    match find "lit" with
    | None -> Ok None
    | Some l ->
        let* l = parse_float "lit" l in
        Ok (Some l)
  in
  let* out_s = require "out" in
  let* out =
    match split_on ':' out_s with
    | [ o_name; "v"; vars ] ->
        Ok (Out_dense { o_name; o_kind = Dvec; o_vars = split_on '.' vars })
    | [ o_name; "m"; vars ] ->
        Ok (Out_dense { o_name; o_kind = Dmat; o_vars = split_on '.' vars })
    | [ o_name; "p"; depth ] ->
        let* depth = parse_int "depth" depth in
        Ok (Out_sparse_prefix { o_name; depth })
    | [ o_name; "g" ] -> Ok (Out_sparse_merge { o_name })
    | _ -> Error (Printf.sprintf "bad out field %S" out_s)
  in
  let* sched_s = require "sched" in
  let* sched =
    match split_on ':' sched_s with
    | [ "u"; var; p ] ->
        let* p = parse_int "par" p in
        Ok (S_universe { var; par = p <> 0 })
    | [ "n"; fuse; p ] ->
        let* fuse = parse_int "fuse" fuse in
        let* p = parse_int "par" p in
        Ok (S_nnz { fuse; par = p <> 0 })
    | [ "b"; p ] ->
        let* p = parse_int "par" p in
        Ok (S_batched { par = p <> 0 })
    | _ -> Error (Printf.sprintf "bad sched field %S" sched_s)
  in
  let* tdns =
    match find "tdn" with
    | None -> Ok []
    | Some ts ->
        each
          (fun entry ->
            match split_on ':' entry with
            | [ name; code ] -> (
                match code with
                | "r" -> Ok (name, T_rep)
                | "f" -> Ok (name, T_fused)
                | "t" -> Ok (name, T_tiled)
                | _ when String.length code = 2 && code.[0] = 'b' ->
                    let* d = parse_int "tdn dim" (String.make 1 code.[1]) in
                    Ok (name, T_block d)
                | _ when String.length code = 2 && code.[0] = 'p' ->
                    let* d = parse_int "tdn dim" (String.make 1 code.[1]) in
                    Ok (name, T_pos d)
                | _ -> Error (Printf.sprintf "bad tdn code %S" code))
            | _ -> Error (Printf.sprintf "bad tdn entry %S" entry))
          (split_on ',' ts)
  in
  let* gpu = flag "gpu" in
  let* grid_s = require "grid" in
  let* grid = each (parse_int "grid") (split_on 'x' grid_s) in
  let* domains =
    match find "dom" with None -> Ok 1 | Some d -> parse_int "dom" d
  in
  let* faults =
    match find "flt" with
    | None -> Ok None
    | Some f -> (
        match split_on ':' f with
        | [ s; r ] ->
            let* s = parse_int "fault seed" s in
            let* r = parse_float "fault rate" r in
            Ok (Some (s, r))
        | _ -> Error (Printf.sprintf "bad flt field %S" f))
  in
  let* workspace = flag "ws" in
  let* auto = flag "at" in
  Ok
    {
      vars;
      driver;
      driver_vars;
      driver_kinds;
      driver_mode;
      density;
      dseed;
      merge_extra;
      factors;
      lit;
      out;
      sched;
      tdns;
      gpu;
      grid = Array.of_list grid;
      domains;
      faults;
      workspace;
      auto;
    }

let of_string_exn s =
  match of_string s with
  | Ok t -> t
  | Error m -> Error.fail Error.Config "Spec.of_string: %s" m

let equal (a : t) (b : t) = a = b
