(* The auto-scheduler's differential suite.

   The load-bearing property is bit-identity: whatever schedule the search
   picks, executing it must produce outputs bitwise equal to executing the
   hand schedule — over the whole kernel catalog, under both leaf backends,
   and with faults injected.  The pricing side is pinned by construction:
   the winner never prices above the hand schedule (it competes against it)
   and must strictly beat the naive strawman; and a priced candidate's
   partitioning bill is bit-equal to what a cold run of that same schedule
   charges. *)

open Spdistal_runtime
open Spdistal_opt
module Spdistal = Core.Spdistal
module Snapshot = Spdistal_fuzz.Snapshot
module CL = Spdistal_exec.Compile_leaf

let all_kernels () = Helpers.kernel_problems () @ Helpers.nnz_kernel_problems ()

let run_ok ?faults ?leaf_backend p =
  let r = Spdistal.run ?faults ?leaf_backend p in
  (match r.Spdistal.dnc with Some reason -> Alcotest.fail reason | None -> ());
  r

(* ------------------------------------------------------------------ *)
(* Differential bit-identity: auto output == hand output               *)
(* ------------------------------------------------------------------ *)

(* Each catalog entry is a thunk building a fresh problem (fresh output
   slots), so the hand run and the auto run cannot alias. *)
let check_identical ?faults ~leaf_backend (name, make) =
  let hand = make () in
  ignore (run_ok ?faults ~leaf_backend hand);
  let hand_snap = Snapshot.outputs hand in
  let auto = make () in
  match Auto.choose auto with
  | None -> Alcotest.failf "%s: no feasible auto candidate" name
  | Some ch ->
      ignore (run_ok ?faults ~leaf_backend ch.Auto.ch_problem);
      Alcotest.(check bool)
        (Printf.sprintf "%s: auto (%s) bit-identical to hand" name
           ch.Auto.ch_label)
        true
        (Snapshot.equal hand_snap (Snapshot.outputs ch.Auto.ch_problem))

let test_identical_interp () =
  List.iter (check_identical ~leaf_backend:CL.Interp) (all_kernels ())

let test_identical_compiled () =
  List.iter (check_identical ~leaf_backend:CL.Compiled) (all_kernels ())

let test_identical_faulty () =
  let faults = Fault.make ~seed:7 ~rate:0.05 () in
  List.iter
    (check_identical ~faults ~leaf_backend:CL.Compiled)
    (all_kernels ())

(* Faults also must not change *what* auto computes: the faulted auto run
   matches the fault-free hand run bit-for-bit. *)
let test_faulty_matches_fault_free () =
  let faults = Fault.make ~seed:11 ~rate:0.1 () in
  List.iter
    (fun (name, make) ->
      let hand = make () in
      ignore (run_ok ~faults:Fault.disabled ~leaf_backend:CL.Compiled hand);
      let auto = Auto.schedule (make ()) in
      ignore (run_ok ~faults ~leaf_backend:CL.Compiled auto);
      Alcotest.(check bool)
        (name ^ ": faulted auto == fault-free hand") true
        (Snapshot.equal (Snapshot.outputs hand) (Snapshot.outputs auto)))
    (all_kernels ())

(* ------------------------------------------------------------------ *)
(* Pricing invariants                                                  *)
(* ------------------------------------------------------------------ *)

(* The hand schedule competes in the tournament, so the winner can never
   price above it; and it must strictly beat the naive strawman. *)
let test_never_worse_than_hand () =
  List.iter
    (fun (name, make) ->
      let p = make () in
      let rp = Auto.report p in
      let winner =
        match rp.Auto.rp_winner with
        | Some (_, pr) -> Price.total pr
        | None -> Alcotest.failf "%s: no winner" name
      in
      let hand =
        match
          List.find_opt (fun v -> v.Auto.v_label = "hand") rp.Auto.rp_verdicts
        with
        | Some { Auto.v_priced = Ok pr; _ } -> Price.total pr
        | _ -> Alcotest.failf "%s: hand schedule did not price" name
      in
      Alcotest.(check bool)
        (name ^ ": winner <= hand") true (winner <= hand);
      match rp.Auto.rp_naive with
      | Ok pr ->
          Alcotest.(check bool)
            (name ^ ": winner < naive") true
            (winner < Price.total pr)
      | Error e -> Alcotest.failf "%s: naive did not price: %s" name e)
    (all_kernels ())

(* A priced candidate's partitioning and communication bills are bit-equal
   to what a cold run of the same schedule records — pricing builds the plan
   with the same [Spdistal.plan] and bills every piece's transfers with the
   interpreter's own functions.  Checked on every feasible candidate of the
   search space, not only the hand schedule; each side gets a fresh problem
   so the run's outputs cannot leak into the priced one. *)
let test_partitioning_matches_cold_run () =
  List.iter
    (fun (name, make) ->
      List.iter
        (fun c ->
          match Price.price (Search.apply (make ()) c) with
          | Error _ -> ()  (* infeasible point: nothing to compare *)
          | Ok priced ->
              let label = Printf.sprintf "%s/%s" name c.Search.c_label in
              (* [~iterations:1] = the warm-start protocol on a fresh
                 context — the only path that bills dependent
                 partitioning. *)
              let r =
                Spdistal.run ~leaf_backend:CL.Interp ~iterations:1
                  ~faults:Fault.disabled
                  (Search.apply (make ()) c)
              in
              (match r.Spdistal.dnc with
              | Some reason -> Alcotest.failf "%s: %s" label reason
              | None -> ());
              let cold = r.Spdistal.cost and pc = priced.Price.pr_cost in
              let bits field what =
                Alcotest.(check int64)
                  (Printf.sprintf "%s: priced %s bit-equals cold run" label
                     what)
                  (Int64.bits_of_float (field cold))
                  (Int64.bits_of_float (field pc))
              in
              let count field what =
                Alcotest.(check int)
                  (Printf.sprintf "%s: priced %s equals cold run" label what)
                  (field cold) (field pc)
              in
              bits (fun c -> c.Cost.partitioning) "partitioning";
              bits (fun c -> c.Cost.bytes_moved) "bytes_moved";
              count (fun c -> c.Cost.messages) "messages";
              count (fun c -> c.Cost.launches) "launches";
              count (fun c -> c.Cost.part_ops) "part_ops")
        (Search.candidates (make ())))
    (all_kernels ())

(* qcheck: over random sparse matrices, the chosen schedule never prices
   above the naive default (the hand point is SpMV's row split). *)
let prop_price_le_naive =
  Helpers.qtest ~count:40 "auto prices <= naive on random SpMV"
    Helpers.arb_coo_matrix (fun coo ->
      let b = Spdistal_formats.Tensor.csr ~name:"B" coo in
      let machine = Helpers.cpu_machine 4 in
      let p = Core.Kernels.spmv_problem ~machine b in
      let rp = Auto.report p in
      match (rp.Auto.rp_winner, rp.Auto.rp_naive) with
      | Some (_, w), Ok n -> Price.total w <= Price.total n
      | Some _, Error _ -> true  (* naive infeasible: nothing to beat *)
      | None, _ -> false)

(* ------------------------------------------------------------------ *)
(* Winner cache                                                        *)
(* ------------------------------------------------------------------ *)

(* Same (machine, TIN, pattern): first choose prices, second replays the
   remembered winner without pricing — and the replayed problem still
   executes bit-identically. *)
let test_winner_cache_replays () =
  let cache = Spdistal_exec.Cache.create ~cap:8 () in
  let make = List.assoc "spmv" (Helpers.kernel_problems ()) in
  let c1 =
    match Auto.choose ~cache (make ()) with
    | Some c -> c
    | None -> Alcotest.fail "no choice"
  in
  Alcotest.(check bool) "first choice priced" false c1.Auto.ch_cached;
  let c2 =
    match Auto.choose ~cache (make ()) with
    | Some c -> c
    | None -> Alcotest.fail "no cached choice"
  in
  Alcotest.(check bool) "second choice replayed" true c2.Auto.ch_cached;
  Alcotest.(check string) "same winner" c1.Auto.ch_label c2.Auto.ch_label;
  ignore (run_ok c1.Auto.ch_problem);
  ignore (run_ok c2.Auto.ch_problem);
  Alcotest.(check bool) "replayed run bit-identical" true
    (Snapshot.equal
       (Snapshot.outputs c1.Auto.ch_problem)
       (Snapshot.outputs c2.Auto.ch_problem))

(* A different sparsity pattern must not hit the remembered winner. *)
let test_winner_cache_keyed_by_pattern () =
  let cache = Spdistal_exec.Cache.create ~cap:8 () in
  let p1 = Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 4)
      (Helpers.rand_csr ~seed:1 40 40 0.1) in
  let p2 = Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 4)
      (Helpers.rand_csr ~seed:2 40 40 0.1) in
  (match Auto.choose ~cache p1 with
  | Some c -> Alcotest.(check bool) "cold" false c.Auto.ch_cached
  | None -> Alcotest.fail "no choice");
  match Auto.choose ~cache p2 with
  | Some c ->
      Alcotest.(check bool) "different pattern misses" false c.Auto.ch_cached
  | None -> Alcotest.fail "no choice"

let suite =
  [
    Alcotest.test_case "auto == hand, interp leaves" `Quick
      test_identical_interp;
    Alcotest.test_case "auto == hand, compiled leaves" `Quick
      test_identical_compiled;
    Alcotest.test_case "auto == hand under faults" `Quick
      test_identical_faulty;
    Alcotest.test_case "faulted auto == fault-free hand" `Quick
      test_faulty_matches_fault_free;
    Alcotest.test_case "winner <= hand, < naive" `Quick
      test_never_worse_than_hand;
    Alcotest.test_case "priced partitioning == cold run" `Quick
      test_partitioning_matches_cold_run;
    prop_price_le_naive;
    Alcotest.test_case "winner cache replays" `Quick test_winner_cache_replays;
    Alcotest.test_case "winner cache keyed by pattern" `Quick
      test_winner_cache_keyed_by_pattern;
  ]
