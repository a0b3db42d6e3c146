(* Deterministic fault injection and Legion-style recovery.

   The load-bearing invariant: under ANY fault schedule the computed tensors
   are bit-identical to the fault-free run — leaves commit exactly once on
   the reducing domain, recovery is priced purely as cost — and the
   schedule itself is a pure function of (seed, event coordinates), hence
   independent of the host's --domains degree. *)

open Spdistal_runtime
open Core

(* ------------------------------------------------------------------ *)
(* Config parsing                                                      *)
(* ------------------------------------------------------------------ *)

let test_of_string () =
  (match Fault.of_string "0.1" with
  | Ok c ->
      Alcotest.(check (float 0.)) "bare rate: crash" 0.1 c.Fault.crash_rate;
      Alcotest.(check (float 0.)) "bare rate: loss" 0.1 c.Fault.loss_rate;
      Alcotest.(check (float 0.)) "bare rate: straggle" 0.1 c.Fault.straggle_rate
  | Error m -> Alcotest.fail m);
  (match Fault.of_string "seed=7,rate=0.1,loss=0.25,retries=3,factor=16" with
  | Ok c ->
      Alcotest.(check int) "seed" 7 c.Fault.seed;
      Alcotest.(check (float 0.)) "crash from rate" 0.1 c.Fault.crash_rate;
      Alcotest.(check (float 0.)) "loss overridden" 0.25 c.Fault.loss_rate;
      Alcotest.(check int) "retries" 3 c.Fault.max_retries;
      Alcotest.(check (float 0.)) "factor" 16. c.Fault.straggle_factor
  | Error m -> Alcotest.fail m);
  (match Fault.of_string "rate=zebra" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error _ -> ());
  Alcotest.(check bool) "disabled is disabled" false (Fault.enabled Fault.disabled);
  Alcotest.(check bool)
    "rate 0 is disabled" false
    (Fault.enabled (Fault.make ~rate:0. ()))

(* ------------------------------------------------------------------ *)
(* Draws: pure, seed-separated, domain-degree independent              *)
(* ------------------------------------------------------------------ *)

let test_draws_pure () =
  let cfg = Fault.make ~seed:11 ~rate:0.3 () in
  let draw () =
    List.init 64 (fun i ->
        ( Fault.node_crashed cfg ~launch:(i mod 4) ~node:(i / 4) ~attempt:0,
          Fault.msg_lost cfg ~launch:(i mod 4) ~piece:(i / 4) ~msg:0 ~attempt:1,
          Fault.straggler cfg ~launch:(i mod 4) ~piece:(i / 4) ))
  in
  (* Re-evaluating the same coordinates, in any order, gives the same
     schedule: there is no hidden mutable stream to advance. *)
  let a = draw () in
  let b = List.rev (List.rev_map (fun x -> x) (draw ())) in
  Alcotest.(check bool) "pure draws" true (a = b);
  (* A different seed gives a different schedule somewhere. *)
  let cfg2 = Fault.make ~seed:12 ~rate:0.3 () in
  let c =
    List.init 64 (fun i ->
        ( Fault.node_crashed cfg2 ~launch:(i mod 4) ~node:(i / 4) ~attempt:0,
          Fault.msg_lost cfg2 ~launch:(i mod 4) ~piece:(i / 4) ~msg:0 ~attempt:1,
          Fault.straggler cfg2 ~launch:(i mod 4) ~piece:(i / 4) ))
  in
  Alcotest.(check bool) "seeds separate schedules" true (a <> c)

let test_backoff () =
  let cfg = Fault.make ~rate:0.1 ~backoff:1e-4 () in
  Alcotest.(check (float 1e-12)) "attempt 0" 1e-4 (Fault.backoff_time cfg 0);
  Alcotest.(check (float 1e-12)) "attempt 3" 8e-4 (Fault.backoff_time cfg 3)

let test_make_rejects_non_finite () =
  (* NaN passes naive range guards ([r < 0. || r >= 1.] is false for NaN),
     so every numeric parameter must be validated with positively-phrased
     finite checks.  A NaN rate silently disabling (or corrupting) fault
     injection would be invisible until a serve run misbehaves. *)
  let rejects what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Error.Error { Error.phase = Error.Config; _ } -> true)
  in
  rejects "NaN rate" (fun () -> Fault.make ~rate:Float.nan ());
  rejects "NaN crash" (fun () -> Fault.make ~crash:Float.nan ());
  rejects "NaN loss" (fun () -> Fault.make ~loss:Float.nan ());
  rejects "NaN straggle" (fun () -> Fault.make ~straggle:Float.nan ());
  rejects "infinite rate" (fun () -> Fault.make ~rate:Float.infinity ());
  rejects "negative rate" (fun () -> Fault.make ~rate:(-0.1) ());
  rejects "NaN factor" (fun () -> Fault.make ~factor:Float.nan ());
  rejects "infinite factor" (fun () -> Fault.make ~factor:Float.infinity ());
  rejects "sub-1 factor" (fun () -> Fault.make ~factor:0.5 ());
  rejects "NaN backoff" (fun () -> Fault.make ~backoff:Float.nan ());
  rejects "infinite backoff" (fun () -> Fault.make ~backoff:Float.infinity ());
  rejects "negative backoff" (fun () -> Fault.make ~backoff:(-1e-6) ());
  rejects "NaN deadline" (fun () -> Fault.make ~deadline:Float.nan ());
  rejects "infinite deadline" (fun () ->
      Fault.make ~deadline:Float.infinity ());
  rejects "sub-1 deadline" (fun () -> Fault.make ~deadline:0.9 ());
  (* The of_string path flows through the same checks. *)
  Alcotest.(check bool) "of_string rejects NaN rate" true
    (match Fault.of_string "rate=nan" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "of_string rejects infinite backoff" true
    (match Fault.of_string "rate=0.1,backoff=inf" with
    | Error _ -> true
    | Ok _ -> false)

let test_crashed_nodes_single_node () =
  (* A single-node machine has no fault domain to fail over to. *)
  let m = Machine.make ~kind:Machine.Cpu [| 1 |] in
  let cfg = Fault.make ~seed:1 ~crash:0.99 () in
  Alcotest.(check bool)
    "rates live in [0, 1)" true
    (try
       ignore (Fault.make ~crash:1.0 ());
       false
     with Error.Error { Error.phase = Error.Config; _ } -> true);
  Alcotest.(check (list int))
    "no crash injection on one node" []
    (Fault.crashed_nodes cfg ~machine:m ~launch:0)

(* ------------------------------------------------------------------ *)
(* Recovery pricing                                                    *)
(* ------------------------------------------------------------------ *)

let cpu8 = Machine.make ~kind:Machine.Cpu [| 8 |]

let test_recover_prices_faults () =
  (* With loss at 0.99 and a budget of 2 retries, the budget exhausts on
     nearly every piece; the schedule is deterministic, so SOME piece in
     0..15 exhausts, and exhaustion surfaces as the Recovery phase. *)
  let cfg = Fault.make ~seed:5 ~loss:0.99 ~retries:2 () in
  let exhausted =
    List.exists
      (fun piece ->
        try
          ignore
            (Fault.recover_piece cfg ~machine:cpu8 ~launch:0 ~piece
               ~msg_bytes:[ 1e6 ] ~footprint:1e6 ~comm_time:1e-3 ~leaf_time:1e-3);
          false
        with Error.Error e -> e.Error.phase = Error.Recovery)
      (List.init 16 Fun.id)
  in
  Alcotest.(check bool) "retry budget exhausts as Recovery" true exhausted;
  (* A surviving recovery at a moderate rate prices the re-sends. *)
  let mild = Fault.make ~seed:5 ~loss:0.3 ~retries:50 () in
  let r =
    List.fold_left
      (fun acc piece ->
        let r =
          Fault.recover_piece mild ~machine:cpu8 ~launch:0 ~piece
            ~msg_bytes:[ 1e6; 1e6 ] ~footprint:2e6 ~comm_time:1e-3
            ~leaf_time:1e-3
        in
        ( (fun (a, b, c) (x, y, z) -> (a + x, b +. y, c +. z))
            acc
            (r.Fault.losses, r.Fault.resent_bytes, r.Fault.extra_comm) ))
      (0, 0., 0.)
      (List.init 16 Fun.id)
  in
  let losses, bytes, dt = r in
  Alcotest.(check bool) "losses injected" true (losses > 0);
  Alcotest.(check bool) "re-sent bytes priced" true (bytes > 0.);
  Alcotest.(check bool) "recovery time priced" true (dt > 0.)

let test_straggler_pricing () =
  (* Find a (deterministically) straggling piece, then check the pricing:
     with a generous deadline the extra leaf time is (factor - 1) * leaf. *)
  let cfg = Fault.make ~seed:3 ~straggle:0.99 ~factor:4. ~deadline:100. () in
  let piece =
    match
      List.find_opt
        (fun p -> Fault.straggler cfg ~launch:0 ~piece:p <> None)
        (List.init 64 Fun.id)
    with
    | Some p -> p
    | None -> Alcotest.fail "no straggler in 64 pieces at rate 0.99"
  in
  let r =
    Fault.recover_piece cfg ~machine:cpu8 ~launch:0 ~piece ~msg_bytes:[]
      ~footprint:1e6 ~comm_time:0. ~leaf_time:2e-3
  in
  Alcotest.(check int) "one straggler event" 1 r.Fault.stragglers;
  Alcotest.(check (float 1e-9)) "inflation" (3. *. 2e-3) r.Fault.extra_leaf;
  (* With a tight deadline, speculative re-execution caps the damage below
     full inflation. *)
  let spec =
    Fault.recover_piece
      (Fault.make ~seed:3 ~straggle:0.99 ~factor:100. ~deadline:1.5 ())
      ~machine:cpu8 ~launch:0 ~piece ~msg_bytes:[] ~footprint:1e6
      ~comm_time:0. ~leaf_time:2e-3
  in
  Alcotest.(check bool)
    "speculation beats waiting out the straggler" true
    (spec.Fault.extra_leaf < 99. *. 2e-3)

let test_remap_piece () =
  let open Spdistal_exec in
  Alcotest.(check int)
    "identity when nothing crashed" 3
    (Placement.remap_piece ~machine:cpu8 ~crashed:[] 3);
  let p = Placement.remap_piece ~machine:cpu8 ~crashed:[ 3 ] 3 in
  Alcotest.(check bool)
    "remapped off the crashed node" true
    (Machine.node_of_piece cpu8 p <> 3);
  (try
     ignore
       (Placement.remap_piece ~machine:cpu8 ~crashed:(List.init 8 Fun.id) 0);
     Alcotest.fail "expected Recovery error"
   with Error.Error e ->
     Alcotest.(check bool) "Recovery" true (e.Error.phase = Error.Recovery))

(* ------------------------------------------------------------------ *)
(* End-to-end: every kernel recovers; outputs bit-identical            *)
(* ------------------------------------------------------------------ *)

(* The fig10 kernels + batched SpMM, and the baseline/faulty run pair, are
   Helpers (shared with the parallel and cache suites). *)
let problems () = Helpers.kernel_problems ()
let run_pair = Helpers.run_pair

let acceptance_cfg = Fault.make ~seed:7 ~rate:0.1 ()

let test_acceptance () =
  (* ISSUE acceptance: crash+loss+straggler all at >= 10%, every fig10
     kernel (and batched SpMM) completes via recovery, outputs bit-identical
     to the fault-free run, recovery overhead strictly positive. *)
  List.iter
    (fun (name, make) ->
      let (base, base_out), (faulty, fault_out) =
        run_pair ~faults:acceptance_cfg make
      in
      Alcotest.(check (option string)) (name ^ ": baseline completes") None
        base.Spdistal.dnc;
      Alcotest.(check (option string)) (name ^ ": recovers to completion") None
        faulty.Spdistal.dnc;
      Alcotest.(check bool)
        (name ^ ": outputs bit-identical under faults")
        true (base_out = fault_out);
      let c = faulty.Spdistal.cost in
      Alcotest.(check bool) (name ^ ": fault events injected") true (c.Cost.faults > 0);
      Alcotest.(check bool) (name ^ ": recovery time positive") true
        (c.Cost.recovery > 0.);
      Alcotest.(check bool)
        (name ^ ": clock no faster than fault-free")
        true
        (Cost.total c >= Cost.total base.Spdistal.cost))
    (problems ())

let test_single_shot_exhaustion_names_node () =
  (* With one retry, a node that crashes on attempts 0 and 1 of launch 0
     exhausts recovery on the first of its pieces.  Pick a seed where that
     happens and some node survives attempt 0 (so the crashed pieces can be
     remapped before recovery is priced). *)
  let make = List.assoc "spmv" (problems ()) in
  let machine = (make ()).Spdistal.machine in
  let exhausting cfg =
    List.find_opt
      (fun node ->
        Fault.node_crashed cfg ~launch:0 ~node ~attempt:0
        && Fault.node_crashed cfg ~launch:0 ~node ~attempt:1)
      (List.init (Machine.pieces machine) (Machine.node_of_piece machine))
  in
  let rec pick seed =
    let cfg = Fault.make ~seed ~crash:0.5 ~retries:1 () in
    match exhausting cfg with
    | Some node
      when List.length (Fault.crashed_nodes cfg ~machine ~launch:0)
           < Machine.nodes machine ->
        (cfg, node)
    | _ -> pick (seed + 1)
  in
  let faults, node = pick 1 in
  let r = Spdistal.run ~faults (make ()) in
  Alcotest.(check bool) "single-shot run is a DNC" true (r.Spdistal.dnc <> None);
  Alcotest.(check (list int)) "crashed names the exhausting node" [ node ]
    r.Spdistal.crashed

let test_rate_zero_invariance () =
  (* --fault-rate 0 must leave every pre-existing Cost field (and the
     recovery counters) exactly as the seed produced them. *)
  List.iter
    (fun (name, make) ->
      let p0 = make () in
      let r0 = Spdistal.run p0 in
      let p1 = make () in
      let r1 = Spdistal.run ~faults:(Fault.make ~seed:42 ~rate:0. ()) p1 in
      Alcotest.(check bool)
        (name ^ ": cost fields unchanged at rate 0")
        true
        (Helpers.cost_sig r0.Spdistal.cost
        = Helpers.cost_sig r1.Spdistal.cost);
      Alcotest.(check (float 0.)) (name ^ ": no recovery") 0.
        r1.Spdistal.cost.Cost.recovery;
      Alcotest.(check int) (name ^ ": no faults") 0 r1.Spdistal.cost.Cost.faults;
      Alcotest.(check bool)
        (name ^ ": outputs unchanged")
        true
        (Helpers.snapshot p0 = Helpers.snapshot p1))
    (problems ())

let fault_sig = Helpers.fault_sig

let prop_fault_schedules_bit_identical =
  Helpers.qtest ~count:8 "random fault schedules: outputs bit-identical"
    QCheck.(pair (int_range 0 1000) (int_range 1 30))
    (fun (seed, rate_pct) ->
      let faults = Fault.make ~seed ~rate:(float_of_int rate_pct /. 100.) () in
      List.for_all
        (fun (_, make) ->
          let (base, base_out), (f1, out1) = run_pair ~domains:1 ~faults make in
          let _, (f4, out4) = run_pair ~domains:4 ~faults make in
          match (f1.Spdistal.dnc, f4.Spdistal.dnc) with
          | Some _, Some _ -> true (* recovery exhausted: same verdict *)
          | None, None ->
              (* Outputs bitwise equal to fault-free; injection and pricing
                 identical across host domain degrees. *)
              base.Spdistal.dnc <> None
              || (base_out = out1 && out1 = out4
                 && fault_sig f1.Spdistal.cost = fault_sig f4.Spdistal.cost)
          | _ -> false)
        (problems ()))

(* ------------------------------------------------------------------ *)
(* Chaos hook: when SPDISTAL_FAULTS is set (CI matrix), also run the   *)
(* acceptance invariant under that exact schedule.                     *)
(* ------------------------------------------------------------------ *)

let test_chaos_env () =
  match Fault.of_env () with
  | None -> ()
  | Some cfg when not (Fault.enabled cfg) -> ()
  | Some cfg ->
      List.iter
        (fun (name, make) ->
          let (base, base_out), (faulty, fault_out) =
            run_pair ~faults:cfg make
          in
          match (base.Spdistal.dnc, faulty.Spdistal.dnc) with
          | None, None ->
              Alcotest.(check bool)
                (name ^ ": chaos outputs bit-identical")
                true (base_out = fault_out)
          | None, Some _ ->
              (* Recovery exhaustion is a legal verdict under extreme
                 schedules; outputs are unspecified then. *)
              ()
          | Some d, _ -> Alcotest.fail (name ^ ": baseline DNC: " ^ d))
        (problems ())

let suite =
  [
    Alcotest.test_case "config parsing" `Quick test_of_string;
    Alcotest.test_case "draws are pure" `Quick test_draws_pure;
    Alcotest.test_case "backoff" `Quick test_backoff;
    Alcotest.test_case "single node: no crashes" `Quick
      test_crashed_nodes_single_node;
    Alcotest.test_case "make rejects NaN/inf parameters" `Quick
      test_make_rejects_non_finite;
    Alcotest.test_case "recovery exhaustion" `Quick test_recover_prices_faults;
    Alcotest.test_case "straggler pricing" `Quick test_straggler_pricing;
    Alcotest.test_case "remap piece" `Quick test_remap_piece;
    Alcotest.test_case "acceptance: recover + bit-identical" `Quick
      test_acceptance;
    Alcotest.test_case "rate 0 invariance" `Quick test_rate_zero_invariance;
    Alcotest.test_case "single-shot exhaustion names the node" `Quick
      test_single_shot_exhaustion_names_node;
    prop_fault_schedules_bit_identical;
    Alcotest.test_case "chaos from SPDISTAL_FAULTS" `Quick test_chaos_env;
  ]
