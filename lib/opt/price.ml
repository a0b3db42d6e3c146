(* Dry-run pricing of a fully-specified problem: charge exactly what a cold
   execution would charge for dependent partitioning and communication, and
   an estimate (from {!Stats}) of what the leaves would cost — without
   running a single leaf.

   Pricing is the run's own pipeline with the leaves swapped out.  It calls
   the same [Spdistal.plan] cold build every run calls and charges the
   partitioning bill it returns, then dry-runs the interpreter's launch loop
   with [Interp.estimate].  Partitioning, transfers, critical-path split and
   reduction bill are thus the run's by construction (a regression test
   enforces it), and so are the run's capacity checks: a candidate whose
   run would OOM is infeasible.  Only leaf work is an estimate: the shared
   [Leaf.mul_work]/merge byte model over statistical shard shapes, so
   candidates are ranked on the same scale the clock uses.  Faults are
   ignored: candidates are priced for the fault-free steady state the
   tournament compares.

   The candidates of one auto-scheduler call are priced in one [session]
   that shares statistics and partitions between them.  Partitions are
   shared by derivation over the storage they read, so a pattern two
   operands hold (an output [Assemble.copy_pattern] built from its input)
   is partitioned once under the first operand's name.  A shared result is
   the one a standalone [price] would build, so every verdict stays
   bit-equal to it.

   Every candidate [Search] emits passes [Lower.check], so pricing never
   places or lowers a schedule [Lower] refuses.  An [Error] verdict is
   capacity (the run would OOM) or a typed refusal of the run itself: a
   placement, or a merge leaf's operand shapes.  Every refusal on the
   pricing path is an [Error.Error]; any other exception, an
   [Invalid_argument] or a [Failure], is a bug and escapes. *)

open Spdistal_runtime
open Spdistal_ir
open Spdistal_exec
module Spdistal = Core.Spdistal

type priced = {
  pr_total : float;
  pr_cost : Cost.t;
  pr_part_seconds : float;
  pr_part_ops : int;
  pr_launches : int;
}

let total p = p.pr_total

(* A pricing session: the candidates of one auto-scheduler call, all
   variants of one problem (same machine, same operand slots), share what
   does not depend on the candidate.  The driver statistics are computed on
   first use; [s_memo] shares partitions, by derivation, between plans.
   Sessions live as long as the caller keeps them, never beyond. *)
type session = {
  s_problem : Spdistal.problem;
  s_memo : Spdistal.memo;
  mutable s_stats : (string * Stats.t) list;
}

let session p =
  { s_problem = p; s_memo = Spdistal.memo (); s_stats = [] }

let driver_stats s bindings name =
  match List.assoc_opt name s.s_stats with
  | Some st -> st
  | None ->
      let st = Stats.of_tensor (Operand.find_sparse bindings name) in
      s.s_stats <- (name, st) :: s.s_stats;
      st

(* Estimated work of a multiplicative leaf, staged per launch: the leaf's
   plan and its k-bounds are computed once; each piece then applies the
   shared [Leaf.mul_work] model to its exact shard cardinality and a
   statistical rows-touched estimate. *)
let mul_estimate ~bindings ~stats ~(leaf : Loop_ir.leaf) driver_name =
  let plan = Leaf.plan_mul ~bindings ~leaf ~driver_name in
  let klo, khi = Leaf.k_bounds plan in
  fun ~shard_vals ~rows:_ ~col_range ->
    let nnz_shard = Iset.cardinal (shard_vals driver_name) in
    let jlo, jhi = Leaf.j_bounds plan ~col_range in
    let rows = Stats.rows_estimate stats ~nnz_shard in
    Leaf.mul_work plan ~nnz:nnz_shard ~rows_touched:rows ~js:(jhi - jlo + 1)
      ~ks:(khi - klo + 1)

(* Estimated work of one piece of an additive merge: the exact entry count
   over the piece's row block ([Leaf.row_entries], the count a run's merge
   makes), the shared merge byte model, and a collision estimate for the
   emitted output pattern.  The operands come through [Leaf.merge_ops] and
   their rows through the count's check, so pricing refuses exactly the
   operand shapes a run refuses, with the same typed error. *)
let merge_estimate ~bindings ~tensors =
  let ops, cols = Leaf.merge_ops ~bindings ~tensors in
  fun rows ->
    let rows =
      match rows with
      | Some rows -> rows
      | None -> Error.fail Error.Leaf "merge leaf without a row part"
    in
    let rows_n = Iset.cardinal rows in
    let entries = Leaf.row_entries ops rows in
    let n = float_of_int entries in
    (* Expected emitted non-zeros: per-row Bernoulli collision model over the
       shared column extent. *)
    let out_nnz =
      if rows_n = 0 || entries = 0 then 0.
      else begin
        let k = n /. float_of_int rows_n in
        let c = float_of_int (max cols 1) in
        float_of_int rows_n *. c *. (1. -. ((1. -. (1. /. c)) ** k))
      end
    in
    Leaf.merge_work ~entries:n ~emitted:(min out_nnz n)

let price_problem s (p : Spdistal.problem) : (priced, string) result =
  try
    let b = Spdistal.bindings p in
    (* The cold build a run performs; leaves stay cold ([Interp] backend
       prepares no closures). *)
    let plan =
      Spdistal.plan ~memo:s.s_memo ~trace:Spdistal_obs.Trace.null
        ~backend:Compile_leaf.Interp p
    in
    let cost = Cost.create () in
    Cost.add_partitioning cost ~ops:plan.Cache.e_part_ops
      plan.Cache.e_part_seconds;
    let work (leaf : Loop_ir.leaf) =
      match leaf.Loop_ir.driver with
      | Loop_ir.Sparse_driver driver_name ->
          mul_estimate ~bindings:b ~stats:(driver_stats s b driver_name) ~leaf
            driver_name
      | Loop_ir.Merge_driver tensors ->
          let estimate = merge_estimate ~bindings:b ~tensors in
          fun ~shard_vals:_ ~rows ~col_range:_ -> estimate rows
    in
    Interp.estimate ~machine:p.Spdistal.machine ~bindings:b
      ~placement:plan.Cache.e_placement ~cost
      ~prepared:plan.Cache.e_prepared ~work plan.Cache.e_prog;
    Ok
      {
        pr_total = Cost.total cost;
        pr_cost = cost;
        pr_part_seconds = plan.Cache.e_part_seconds;
        pr_part_ops = plan.Cache.e_part_ops;
        pr_launches = plan.Cache.e_launches;
      }
  with
  | Error.Error e -> Error (Error.to_string e)
  | Memstate.Oom m -> Error ("OOM: " ^ m)

let price_in s ~schedule ~tdns =
  price_problem s (Spdistal.with_schedule s.s_problem ~schedule ~tdns)

let price p = price_problem (session p) p
