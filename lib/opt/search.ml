(* Candidate enumeration: the schedule/TDN points the auto-scheduler prices.

   Four families, mirroring the shapes the paper's hand schedules use:

   - universe: divide one output variable across the machine, block every
     operand that carries it, replicate the rest (fig10's row-split CPU
     schedules);
   - nnz: fuse a prefix of the sparse driver's variables, switch to its
     position space and divide that (fig11's GPU non-zero splits), with the
     driver fused-non-zero distributed and other operands matched;
   - batched: 2-D machine grids divide an output row variable and a dense
     column variable (the memory-conserving SpMM of fig11);
   - workspace: for pure additions, each universe candidate again with a
     precompute workspace (SpAdd3's two assembly strategies).

   Every family reproduces the corresponding hand schedule exactly when
   applied to the catalog kernels, so the search space always contains the
   hand point; infeasible combinations are generated anyway and filtered by
   [Price] returning [Error]. *)

open Spdistal_runtime
open Spdistal_ir
open Spdistal_exec
module Spdistal = Core.Spdistal

type candidate = {
  c_label : string;
  c_schedule : Schedule.t;
  c_tdns : (string * Tdn.t) list;
}

let operand_names p =
  List.map (fun (n, _, _) -> n) p.Spdistal.operands

(* The access of [name] in the statement (lhs first, then rhs).  Operands
   accessed more than once keep their first access — the TDN choice only
   needs one coordinate view of the tensor. *)
let access_of (stmt : Tin.stmt) name =
  if stmt.Tin.lhs.Tin.tensor = name then Some stmt.Tin.lhs
  else
    List.find_opt
      (fun (a : Tin.access) -> a.Tin.tensor = name)
      (Tin.rhs_accesses stmt)

let var_pos (a : Tin.access) v =
  let rec go i = function
    | [] -> None
    | x :: _ when x = v -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 a.Tin.indices

let proc_of machine =
  if machine.Machine.kind = Machine.Gpu then Schedule.Gpu_thread
  else Schedule.Cpu_thread

let is_sparse p name =
  match (Operand.find (Spdistal.bindings p) name).Operand.data with
  | Operand.Sparse _ -> true
  | _ -> false

let operand_order p name =
  Operand.order (Operand.find (Spdistal.bindings p) name).Operand.data

(* ------------------------------------------------------------------ *)
(* Families                                                            *)
(* ------------------------------------------------------------------ *)

let universe p v =
  let proc = proc_of p.Spdistal.machine in
  let vo = v ^ "o" and vi = v ^ "i" in
  let schedule =
    [
      Schedule.Divide { v; outer = vo; inner = vi };
      Schedule.Distribute [ vo ];
      Schedule.Communicate { tensors = operand_names p; at = vo };
      Schedule.Parallelize { v = vi; proc };
    ]
  in
  let tdns =
    List.map
      (fun (n, _, _) ->
        match Option.bind (access_of p.Spdistal.stmt n) (fun a -> var_pos a v) with
        | Some k -> (n, Tdn.Blocked { tensor_dim = k; machine_dim = 0 })
        | None -> (n, Tdn.Replicated))
      p.Spdistal.operands
  in
  { c_label = "row:" ^ v; c_schedule = schedule; c_tdns = tdns }

(* Fuse the first [f] variables of the driver's access, move to position
   space and divide — the shape of [Kernels.nnz_sched]. *)
let nnz_candidate p ~driver ~vars f =
  let proc = proc_of p.Spdistal.machine in
  let fuse_vars = List.filteri (fun i _ -> i < f) vars in
  let fuses, fused =
    match fuse_vars with
    | [] | [ _ ] ->
        Error.fail ~kernel:driver Error.Compile
          "nnz candidate fuses %d variables; at least 2 are needed" f
    | v0 :: rest ->
        List.fold_left
          (fun (cmds, prev) v ->
            let fv = prev ^ v in
            (cmds @ [ Schedule.Fuse { f = fv; a = prev; b = v } ], fv))
          ([], v0) rest
  in
  let schedule =
    fuses
    @ [
        Schedule.Pos { v = fused; pv = "fp"; tensor = driver };
        Schedule.Divide { v = "fp"; outer = "fpo"; inner = "fpi" };
        Schedule.Distribute [ "fpo" ];
        Schedule.Communicate { tensors = operand_names p; at = "fpo" };
        Schedule.Parallelize { v = "fpi"; proc };
      ]
  in
  let out = p.Spdistal.stmt.Tin.lhs.Tin.tensor in
  let tdns =
    List.map
      (fun (n, _, _) ->
        if n = driver then
          (n, Tdn.Fused_non_zero { dims = List.init f Fun.id; machine_dim = 0 })
        else if is_sparse p n then begin
          let d = operand_order p n in
          if d >= 2 then
            (n, Tdn.Fused_non_zero { dims = List.init d Fun.id; machine_dim = 0 })
          else (n, Tdn.Non_zero { tensor_dim = 0; machine_dim = 0 })
        end
        else if n = out then (n, Tdn.Blocked { tensor_dim = 0; machine_dim = 0 })
        else (n, Tdn.Replicated))
      p.Spdistal.operands
  in
  {
    c_label = Printf.sprintf "nnz:%s/%d" driver f;
    c_schedule = schedule;
    c_tdns = tdns;
  }

(* 2-D grids: divide the dense output's row variable over the first machine
   dimension and its column variable over the second ([Kernels.spmm_batched]
   generalized). *)
let batched p ~r ~e =
  let proc = proc_of p.Spdistal.machine in
  let schedule =
    [
      Schedule.Divide { v = r; outer = r ^ "o"; inner = r ^ "i" };
      Schedule.Divide { v = e; outer = e ^ "o"; inner = e ^ "i" };
      Schedule.Distribute [ r ^ "o"; e ^ "o" ];
      Schedule.Communicate { tensors = operand_names p; at = e ^ "o" };
      Schedule.Parallelize { v = r ^ "i"; proc };
    ]
  in
  let tdns =
    List.map
      (fun (n, _, _) ->
        match access_of p.Spdistal.stmt n with
        | None -> (n, Tdn.Replicated)
        | Some a -> (
            match var_pos a r with
            | Some k -> (n, Tdn.Blocked { tensor_dim = k; machine_dim = 0 })
            | None -> (
                match var_pos a e with
                | Some k -> (n, Tdn.Tiled { mappings = [ (k, 1) ] })
                | None -> (n, Tdn.Replicated))))
      p.Spdistal.operands
  in
  { c_label = Printf.sprintf "batch:%s,%s" r e; c_schedule = schedule; c_tdns = tdns }

let with_workspace c ~out ~v =
  {
    c with
    c_label = c.c_label ^ ":ws";
    c_schedule = c.c_schedule @ [ Schedule.Precompute { v; tensors = [ out ] } ];
  }

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)
(* ------------------------------------------------------------------ *)

(* The sparse driver of a multiplicative statement: the unique sparse rhs
   operand (the leaf iterates its stored values).  [None] for additions or
   when no / several sparse rhs operands exist. *)
let driver_of p =
  let stmt = p.Spdistal.stmt in
  if Tin.is_pure_addition stmt then None
  else
    match
      List.sort_uniq compare
        (List.filter_map
           (fun (a : Tin.access) ->
             if is_sparse p a.Tin.tensor then Some a.Tin.tensor else None)
           (Tin.rhs_accesses stmt))
    with
    | [ d ] -> Some d
    | _ -> None

let candidates p =
  let stmt = p.Spdistal.stmt in
  let grid = p.Spdistal.machine.Machine.grid in
  let out = stmt.Tin.lhs.Tin.tensor in
  if Array.length grid >= 2 then
    (* 2-D machines: the batched family over (row, column) pairs of the
       output's variables. *)
    match stmt.Tin.lhs.Tin.indices with
    | r :: rest -> List.map (fun e -> batched p ~r ~e) rest
    | [] -> []
  else begin
    let universe_cands = List.map (universe p) stmt.Tin.lhs.Tin.indices in
    let ws_cands =
      if Tin.is_pure_addition stmt then
        List.concat_map
          (fun c ->
            match stmt.Tin.lhs.Tin.indices with
            | _ :: v :: _ -> [ with_workspace c ~out ~v ]
            | _ -> [])
          universe_cands
      else []
    in
    let nnz_cands =
      match driver_of p with
      | None -> []
      | Some d -> (
          match access_of stmt d with
          | None -> []
          | Some a ->
              let vars = a.Tin.indices in
              let order = List.length vars in
              if order < 2 then []
              else
                List.map
                  (fun f -> nnz_candidate p ~driver:d ~vars f)
                  (List.init (order - 1) (fun i -> i + 2)))
    in
    universe_cands @ nnz_cands @ ws_cands
  end

(* The strawman every auto choice must beat: distribute the first output
   variable without leaf parallelism, and mis-block every operand on its
   last dimension.  Feasible for the catalog kernels, and bad everywhere —
   CPU leaves forfeit the cores, GPU pieces fetch what a matched
   distribution would have resident.  Order-3+ sparse operands are blocked
   on dimension 0 instead.  A last-dimension block of a compressed tensor is
   a scattered position set; pricing the strawman blocked that way takes
   0.02-0.09 s per quick SpTTV/SpMTTKRP cell on 4 pieces (2-core Xeon
   host), so host time no longer forces dimension 0.  It stays because
   withholding leaf parallelism already prices those cells clearly worse,
   and moving it would change the naive column of results/auto.csv. *)
let naive p =
  let stmt = p.Spdistal.stmt in
  let grid = p.Spdistal.machine.Machine.grid in
  let tdns =
    List.map
      (fun (n, _, _) ->
        let order = operand_order p n in
        let d = if is_sparse p n && order >= 3 then 0 else order - 1 in
        (n, Tdn.Blocked { tensor_dim = d; machine_dim = 0 }))
      p.Spdistal.operands
  in
  let schedule =
    match (Array.length grid >= 2, stmt.Tin.lhs.Tin.indices) with
    | true, r :: e :: _ ->
        [
          Schedule.Divide { v = r; outer = r ^ "o"; inner = r ^ "i" };
          Schedule.Divide { v = e; outer = e ^ "o"; inner = e ^ "i" };
          Schedule.Distribute [ r ^ "o"; e ^ "o" ];
          Schedule.Communicate { tensors = operand_names p; at = e ^ "o" };
        ]
    | _, v :: _ ->
        [
          Schedule.Divide { v; outer = v ^ "o"; inner = v ^ "i" };
          Schedule.Distribute [ v ^ "o" ];
          Schedule.Communicate { tensors = operand_names p; at = v ^ "o" };
        ]
    | _, [] ->
        Error.fail ~kernel:stmt.Tin.lhs.Tin.tensor Error.Compile
          "naive schedule: statement without output variables"
  in
  { c_label = "naive"; c_schedule = schedule; c_tdns = tdns }

let apply p (c : candidate) =
  Spdistal.with_schedule p ~schedule:c.c_schedule ~tdns:c.c_tdns
