(* Candidate enumeration: the schedule/TDN points the auto-scheduler prices.

   Four families of schedules, mirroring the shapes the paper's hand
   schedules use:

   - universe: divide one output variable across the machine (fig10's
     row-split CPU schedules);
   - nnz: fuse a prefix of the sparse driver's variables, switch to its
     position space and divide that (fig11's GPU non-zero splits);
   - batched: 2-D machine grids divide an output row variable and a dense
     column variable (the memory-conserving SpMM of fig11);
   - workspace: for pure additions, each universe point again with a
     precompute workspace (SpAdd3's two assembly strategies).

   A family is a list of (label, schedule) points built by the [Schedule]
   shapes the hand schedules of [Kernels] use ([Schedule.row], [nnz],
   [batched], [workspace]).  [candidates] drops a point [Lower.check]
   refuses (a merge distributed over a column, a variable that does not
   index the sparse driver, a 2-D split over a sparse variable) before
   anything is placed, and gives each kept point the data distribution
   [Lower.matched] derives from its schedule — the rule the hand problems
   of [Kernels] take theirs from.  So on the catalog kernels each hand
   point is exactly one candidate (test_opt checks that for every
   tournament cell and serve query), and what [Price] still refuses is
   capacity or a typed run-time refusal. *)

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
(* Families: (label, schedule) points                                  *)
(* ------------------------------------------------------------------ *)

let universe p v =
  ( "row:" ^ v,
    Schedule.row ~par:(proc_of p.Spdistal.machine) ~tensors:(operand_names p) v
  )

(* Fuse the first [f] variables of the driver's access, move to position
   space and divide. *)
let nnz_point p ~driver ~vars f =
  ( Printf.sprintf "nnz:%s/%d" driver f,
    Schedule.nnz ~par:(proc_of p.Spdistal.machine) ~tensor:driver
      ~tensors:(operand_names p)
      (List.filteri (fun i _ -> i < f) vars) )

(* 2-D grids: divide the dense output's row variable over the first machine
   dimension and its column variable over the second. *)
let batched p ~r ~e =
  ( Printf.sprintf "batch:%s,%s" r e,
    Schedule.batched ~par:(proc_of p.Spdistal.machine)
      ~tensors:(operand_names p) r e )

let with_workspace (label, schedule) ~out ~v =
  (label ^ ":ws", schedule @ Schedule.workspace ~out v)

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

(* Every point of the four families, legal or not. *)
let family_points p =
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
    let universe_points = List.map (universe p) stmt.Tin.lhs.Tin.indices in
    let ws_points =
      if Tin.is_pure_addition stmt then
        List.concat_map
          (fun c ->
            match stmt.Tin.lhs.Tin.indices with
            | _ :: v :: _ -> [ with_workspace c ~out ~v ]
            | _ -> [])
          universe_points
      else []
    in
    let nnz_points =
      match driver_of p with
      | None -> []
      | Some d -> (
          match
            List.find_opt
              (fun (a : Tin.access) -> a.Tin.tensor = d)
              (stmt.Tin.lhs :: Tin.rhs_accesses stmt)
          with
          | None -> []
          | Some a ->
              let vars = a.Tin.indices in
              let order = List.length vars in
              if order < 2 then []
              else
                List.map
                  (fun f -> nnz_point p ~driver:d ~vars f)
                  (List.init (order - 1) (fun i -> i + 2)))
    in
    universe_points @ nnz_points @ ws_points
  end

(* The points [Lower] accepts — the one legality predicate [Lower] itself
   applies, decided from the statement, the formats and the schedule before
   any partition is placed or derived — each with the data distribution its
   schedule moves no data for. *)
let candidates p =
  let env = Operand.env_of_bindings (Spdistal.bindings p) in
  let stmt = p.Spdistal.stmt in
  List.filter_map
    (fun (label, schedule) ->
      if Result.is_ok (Lower.check ~env stmt schedule) then
        Some
          {
            c_label = label;
            c_schedule = schedule;
            c_tdns = Lower.matched ~env stmt schedule;
          }
      else None)
    (family_points p)

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
  let tensors = operand_names p in
  let schedule =
    match (Array.length grid >= 2, stmt.Tin.lhs.Tin.indices) with
    | true, r :: e :: _ -> Schedule.batched ~tensors r e
    | _, v :: _ -> Schedule.row ~tensors v
    | _, [] ->
        Error.fail ~kernel:stmt.Tin.lhs.Tin.tensor Error.Compile
          "naive schedule: statement without output variables"
  in
  { c_label = "naive"; c_schedule = schedule; c_tdns = tdns }

let apply p (c : candidate) =
  Spdistal.with_schedule p ~schedule:c.c_schedule ~tdns:c.c_tdns
