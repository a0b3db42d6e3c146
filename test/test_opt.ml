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
module Interp = Spdistal_exec.Interp
module Leaf = Spdistal_exec.Leaf
module Cache = Spdistal_exec.Cache
module Trace = Spdistal_obs.Trace
module Metrics = Spdistal_obs.Metrics

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

(* Every [Cost] field, floats as their bits: two clocks are equal only when
   they are bit-for-bit the same. *)
let cost_sig (c : Cost.t) =
  let b = Int64.bits_of_float in
  ( [
      b c.Cost.total; b c.Cost.compute; b c.Cost.comm; b c.Cost.overhead;
      b c.Cost.bytes_moved; b c.Cost.flops; b c.Cost.recovery;
      b c.Cost.resent_bytes; b c.Cost.partitioning;
    ],
    [ c.Cost.messages; c.Cost.launches; c.Cost.retries; c.Cost.faults;
      c.Cost.part_ops ] )

(* Given the executed leaves' own work, the dry run pricing uses
   ([Interp.estimate]) charges exactly what [Interp.run] charges: both are
   one launch loop.  Fault-free, a fresh memstate, a null trace, and a
   fresh problem on each side. *)
let check_dry_run_equals_run label make =
  let bill launch =
    let p = make () in
    let plan = Spdistal.plan ~trace:Trace.null ~backend:CL.Interp p in
    let cost = Cost.create () in
    launch ~machine:p.Spdistal.machine ~bindings:(Spdistal.bindings p)
      ~placement:plan.Cache.e_placement ~cost ~prepared:plan.Cache.e_prepared
      plan.Cache.e_prog;
    cost
  in
  let ran =
    bill (fun ~machine ~bindings ~placement ~cost ~prepared prog ->
        Interp.run ~machine ~bindings ~placement
          ~memstate:(Memstate.create machine ~uvm:false)
          ~cost ~faults:Fault.disabled ~trace:Trace.null ~prepared prog)
  in
  let dry =
    bill (fun ~machine ~bindings ~placement ~cost ~prepared prog ->
        Interp.estimate ~machine ~bindings ~placement ~cost ~prepared
          ~work:(fun leaf ~shard_vals ~rows ~col_range ->
            (Leaf.execute ~bindings ~leaf ~shard_vals ~rows ~col_range ())
              .Leaf.work)
          prog)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: exact-work dry run bit-equals run (%h vs %h)" label
       (Cost.total dry) (Cost.total ran))
    true
    (cost_sig dry = cost_sig ran)

(* A priced candidate's partitioning and communication bills are bit-equal
   to what a cold run of the same schedule records — pricing builds the plan
   with the same [Spdistal.plan] and dry-runs the interpreter's own launch
   loop.  Checked on every feasible candidate of the search space, not only
   the hand schedule; each side gets a fresh problem so the run's outputs
   cannot leak into the priced one. *)
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
              bits (fun c -> c.Cost.flops) "flops";
              count (fun c -> c.Cost.messages) "messages";
              count (fun c -> c.Cost.launches) "launches";
              count (fun c -> c.Cost.part_ops) "part_ops";
              check_dry_run_equals_run label (fun () ->
                  Search.apply (make ()) c))
        (Search.candidates (make ())))
    (all_kernels ())

(* Every field of a verdict, floats as their bits: two verdicts are equal
   only when they are bit-for-bit the same price. *)
let priced_sig (pr : Price.priced) =
  ( ( Int64.bits_of_float pr.Price.pr_total,
      Int64.bits_of_float pr.Price.pr_part_seconds,
      pr.Price.pr_part_ops,
      pr.Price.pr_launches ),
    cost_sig pr.Price.pr_cost )

let check_same_verdict label ~session ~standalone =
  match (session, standalone) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: session verdict bit-equals standalone (%h vs %h)"
           label (Price.total a) (Price.total b))
        true
        (priced_sig a = priced_sig b)
  | Error a, Error b ->
      Alcotest.(check string) (label ^ ": same infeasibility") b a
  | Ok _, Error e -> Alcotest.failf "%s: standalone infeasible (%s)" label e
  | Error e, Ok _ -> Alcotest.failf "%s: session infeasible (%s)" label e

(* One [Auto.report] prices all candidates (and the naive strawman) in one
   session that shares statistics, placements and partitions.  Each verdict
   must equal [Price.price] of the same candidate on a fresh problem, with
   nothing shared. *)
let test_session_equals_standalone () =
  List.iter
    (fun (name, make) ->
      let rp = Auto.report (make ()) in
      let standalone c = Price.price (Search.apply (make ()) c) in
      List.iter
        (fun v ->
          check_same_verdict
            (Printf.sprintf "%s/%s" name v.Auto.v_label)
            ~session:v.Auto.v_priced
            ~standalone:(standalone v.Auto.v_candidate))
        rp.Auto.rp_verdicts;
      check_same_verdict (name ^ "/naive") ~session:rp.Auto.rp_naive
        ~standalone:(standalone (Search.naive (make ()))))
    (all_kernels ())

(* Pricing is a dry run: live ambient sinks and an ambient fault schedule
   must neither see it nor change its verdicts.  In particular it must not
   map pieces through the domain pool, which counts its jobs. *)
let test_pricing_leaves_sinks_alone () =
  let kernels =
    List.filter
      (fun (name, _) -> List.mem name [ "spmv"; "spadd3"; "mttkrp" ])
      (Helpers.kernel_problems ())
  in
  let verdicts () =
    List.map (fun (name, make) -> (name, Price.price (make ()))) kernels
  in
  let quiet = verdicts () in
  let trace = Trace.create () and reg = Metrics.create () in
  let prev = (Trace.default (), Metrics.default (), Fault.default ()) in
  Trace.set_default trace;
  Metrics.set_default reg;
  Fault.set_default (Fault.make ~seed:3 ~rate:0.25 ());
  let live =
    Fun.protect
      ~finally:(fun () ->
        let t, m, f = prev in
        Trace.set_default t;
        Metrics.set_default m;
        Fault.set_default f)
      verdicts
  in
  Alcotest.(check int) "no trace spans" 0 (List.length (Trace.spans trace));
  Alcotest.(check int) "no trace counters" 0
    (List.length (Trace.counters trace));
  Alcotest.(check (list string))
    "no metric samples" []
    (List.map Metrics.sample_id (Metrics.snapshot ~wall:true reg));
  List.iter2
    (fun (name, live) (_, quiet) ->
      check_same_verdict (name ^ ": live defaults") ~session:live
        ~standalone:quiet)
    live quiet

(* SpMV with its sparse operand bound under [driver]. *)
let spmv_named ~machine ~driver b =
  let open Spdistal_ir in
  let open Spdistal_formats in
  let module Operand = Spdistal_exec.Operand in
  let vec name n = Operand.vec (Dense.vec_create name n) in
  let blocked = Tdn.Blocked { tensor_dim = 0; machine_dim = 0 } in
  Spdistal.problem ~machine
    ~operands:
      [
        ("a", vec "a" b.Tensor.dims.(0), blocked);
        (driver, Operand.sparse b, blocked);
        ("c", vec "c" b.Tensor.dims.(1), Tdn.Replicated);
      ]
    ~stmt:
      Tin.(assign "a" [ "i" ] (access driver [ "i"; "j" ] * access "c" [ "j" ]))
    ~schedule:
      [
        Schedule.Divide { v = "i"; outer = "io"; inner = "ii" };
        Schedule.Distribute [ "io" ];
        Schedule.Communicate { tensors = [ "a"; driver; "c" ]; at = "io" };
        Schedule.Parallelize { v = "ii"; proc = Schedule.Cpu_thread };
      ]

(* A session lives for one call.  Two patterns are chosen back to back
   under one operand name, and each choice must price exactly what the same
   pattern prices under a name no other call has used (so no state keyed by
   operand name can reach the reference), and what a standalone
   [Price.price] of the winner prices. *)
let test_no_cross_call_state () =
  let machine = Helpers.cpu_machine 4 in
  let choose p =
    match Auto.choose p with Some ch -> ch | None -> Alcotest.fail "no choice"
  in
  let patterns =
    [ Helpers.rand_csr ~seed:1 60 60 0.05; Helpers.rand_csr ~seed:2 60 60 0.2 ]
  in
  let refs =
    List.mapi
      (fun i b ->
        (choose (spmv_named ~machine ~driver:(Printf.sprintf "Cross%d" i) b))
          .Auto.ch_total)
      patterns
  in
  let bits = Int64.bits_of_float in
  List.iteri
    (fun round (b, reference) ->
      let ch = choose (spmv_named ~machine ~driver:"B" b) in
      Alcotest.(check int64)
        (Printf.sprintf "call %d: total equals the fresh-name reference" round)
        (bits reference) (bits ch.Auto.ch_total);
      match Price.price ch.Auto.ch_problem with
      | Ok pr ->
          Alcotest.(check int64)
            (Printf.sprintf "call %d: total equals its own price" round)
            (bits (Price.total pr)) (bits ch.Auto.ch_total)
      | Error e -> Alcotest.failf "winner does not price: %s" e)
    (List.combine (patterns @ patterns) (refs @ refs))

(* [Search.naive] of a statement without output variables fails typed. *)
let test_naive_scalar_output_typed () =
  let open Spdistal_ir in
  let p =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
      (Helpers.rand_csr 8 8 0.3)
  in
  let stmt = p.Spdistal.stmt in
  let lhs = { stmt.Tin.lhs with Tin.indices = [] } in
  let p = { p with Spdistal.stmt = { stmt with Tin.lhs } } in
  match Search.naive p with
  | _ -> Alcotest.fail "naive accepted a scalar output"
  | exception Error.Error e ->
      Alcotest.(check string) "phase" "compile" (Error.phase_name e.Error.phase)

(* ------------------------------------------------------------------ *)
(* Values-free statistics                                              *)
(* ------------------------------------------------------------------ *)

(* The reference: distinct coordinates per dimension over every stored
   value [Tensor.iter_nnz] visits. *)
let ref_distinct t dim =
  let seen = Hashtbl.create 16 in
  Spdistal_formats.Tensor.iter_nnz t (fun c _ _ ->
      Hashtbl.replace seen c.(dim) ());
  Hashtbl.length seen

let perms3 =
  [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |];
    [| 2; 1; 0 |] ]

(* A CSF tensor built level by level, so that it can hold what assembly
   from coordinates never produces: explicitly stored empty fibers (a
   level-1 coordinate whose level-2 range is empty) beside empty slices. *)
let raw_csf ~perm e0 e1 e2 slices =
  let open Spdistal_formats in
  let pos1 = ref [] and crd1 = ref [] and pos2 = ref [] and crd2 = ref [] in
  let n1 = ref 0 and n2 = ref 0 in
  List.iter
    (fun fibers ->
      let lo1 = !n1 in
      List.iteri
        (fun j (stored, ks) ->
          if stored then begin
            crd1 := j :: !crd1;
            incr n1;
            let lo2 = !n2 in
            List.iteri
              (fun k b ->
                if b then begin
                  crd2 := k :: !crd2;
                  incr n2
                end)
              ks;
            pos2 := (lo2, !n2 - 1) :: !pos2
          end)
        fibers;
      pos1 := (lo1, !n1 - 1) :: !pos1)
    slices;
  let arr l = Array.of_list (List.rev l) in
  let extents = [| e0; e1; e2 |] in
  let dims = Array.make 3 0 in
  Array.iteri (fun k d -> dims.(d) <- extents.(k)) perm;
  {
    Tensor.name = "R";
    dims;
    mode_order = perm;
    levels =
      [|
        Level.Dense { dim = e0 };
        Level.Compressed
          { pos = Region.of_array "R1_pos" (arr !pos1);
            crd = Region.of_array "R1_crd" (arr !crd1) };
        Level.Compressed
          { pos = Region.of_array "R2_pos" (arr !pos2);
            crd = Region.of_array "R2_crd" (arr !crd2) };
      |];
    vals = Region.F.of_array "R_vals" (Array.make !n2 1.);
  }

let arb_stats_tensor =
  let open QCheck in
  let open Spdistal_formats in
  let coords n d =
    Gen.(
      list_repeat n (array_repeat d (int_range 0 4))
      >|= List.sort_uniq compare)
  in
  let coo dims cs = Coo.make dims (List.map (fun c -> (c, 1.)) cs) in
  let matrix =
    Gen.(
      let* n = int_range 0 14 in
      let* cs = coords n 2 in
      let* rows = int_range 5 7 and* cols = int_range 5 7 in
      let m = coo [| rows; cols |] cs in
      oneofl
        [
          ("csr", Tensor.csr ~name:"M" m);
          ("csc", Tensor.csc ~name:"M" m);
          ("coo", Tensor.coo_matrix ~name:"M" m);
        ])
  in
  let tensor3 =
    Gen.(
      let* n = int_range 0 20 in
      let* cs = coords n 3 in
      let* perm = oneofl perms3 in
      let t = coo [| 5; 6; 5 |] cs in
      let fmt name formats =
        (name, Tensor.of_coo ~name:"T" ~formats ~mode_order:perm t)
      in
      oneofl
        [
          fmt "csf" Level.[| Dense_k; Compressed_k; Compressed_k |];
          fmt "ddc" Level.[| Dense_k; Dense_k; Compressed_k |];
          fmt "coo3"
            Level.[| Compressed_nonunique_k; Singleton_k; Singleton_k |];
        ])
  in
  let raw =
    Gen.(
      let* e0 = int_range 1 4 and* e1 = int_range 1 4 and* e2 = int_range 1 4 in
      let* perm = oneofl perms3 in
      (* Slices and fibers are sparse enough that many come out empty. *)
      let sparse_bool = map (fun x -> x < 3) (int_range 0 9) in
      let* slices =
        list_repeat e0 (list_repeat e1 (pair bool (list_repeat e2 sparse_bool)))
      in
      return ("raw-csf", raw_csf ~perm e0 e1 e2 slices))
  in
  make
    ~print:(fun (kind, t) -> Format.asprintf "%s %a" kind Tensor.pp t)
    Gen.(oneof [ matrix; tensor3; raw ])

let prop_stats_values_free =
  Helpers.qtest ~count:400 "values-free distinct counts == iter_nnz"
    arb_stats_tensor (fun (_, t) ->
      let open Spdistal_formats in
      let st = Stats.of_tensor t in
      st.Stats.ts_nnz = Tensor.nnz t
      && st.Stats.ts_rows = ref_distinct t 0
      && List.for_all
           (fun d -> Stats.distinct t ~dim:d = ref_distinct t d)
           (List.init (Tensor.order t) Fun.id))

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

(* SpAdd3 operands whose shape differs from B's: pricing refuses every
   candidate with the error its run would raise first, so the
   auto-scheduler never picks a schedule the run then rejects.  The
   column-blocked ([row:j]) candidates are refused by [Lower], every other
   one by the run's own typed shape error. *)
let test_merge_shapes_priced_as_run () =
  let machine = Helpers.cpu_machine 4 in
  let b = Helpers.rand_csr ~seed:5 200 200 0.02 in
  let error_of f =
    match f () with
    | exception Error.Error e -> Some (Error.to_string e)
    | _ -> None
  in
  List.iter
    (fun (what, c, d) ->
      let p = Core.Kernels.spadd3_problem ~machine ?c ?d b in
      let run_error =
        match error_of (fun () -> ignore (Spdistal.run p)) with
        | Some m -> m
        | None -> Alcotest.failf "%s: the run accepted mismatched operands" what
      in
      let rp = Auto.report p in
      Alcotest.(check bool) (what ^ ": no winner") true
        (Option.is_none rp.Auto.rp_winner);
      List.iter
        (fun v ->
          let expected, by =
            if List.mem v.Auto.v_label [ "row:j"; "row:j:ws" ] then
              ( (match
                   error_of (fun () ->
                       ignore
                         (Spdistal.compile (Search.apply p v.Auto.v_candidate)))
                 with
                | Some m -> m
                | None -> Alcotest.failf "%s: Lower accepted row:j" what),
                "Lower" )
            else (run_error, "the run")
          in
          match v.Auto.v_priced with
          | Ok _ -> Alcotest.failf "%s: %s priced" what v.Auto.v_label
          | Error m ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s refused as %s refuses it" what
                   v.Auto.v_label by)
                expected m)
        rp.Auto.rp_verdicts)
    [
      ("D 200x260", None, Some (Helpers.rand_csr ~seed:6 ~name:"D" 200 260 0.02));
      ("C 150x200", Some (Helpers.rand_csr ~seed:7 ~name:"C" 150 200 0.02), None);
    ]

(* ------------------------------------------------------------------ *)
(* Plan-wide partition sharing                                         *)
(* ------------------------------------------------------------------ *)

module R = Spdistal_experiments.Runner
module Placement = Spdistal_exec.Placement
module Part_eval = Spdistal_exec.Part_eval

(* The auto-price cells (six kernels on 4 CPU nodes, SpMM on 4 GPUs) over
   small power-law inputs. *)
let share_cells () =
  let matrix =
    Spdistal_workloads.Synth.power_law ~name:"B" ~rows:200 ~cols:200
      ~nnz:2_000 ~alpha:1.0 ~seed:3001
  and tensor =
    Spdistal_workloads.Synth.tensor3_skewed ~name:"B" ~dims:[| 40; 40; 20 |]
      ~nnz:2_000 ~alpha:1.2 ~seed:4001
  in
  List.map
    (fun (kernel, machine, tag) ->
      let t = if List.mem kernel R.kernels_for_tensor3 then tensor else matrix in
      ( String.lowercase_ascii (R.kernel_name kernel) ^ "-" ^ tag,
        R.problem_for ~kernel ~machine ~cols:4 t ))
    (List.map (fun k -> (k, R.cpu_machine ~nodes:4, "cpu")) R.all_kernels
    @ [ (R.Spmm, R.gpu_machine ~gpus:4, "gpu") ])

(* The cold build with nothing shared: every placement and the program on
   fresh partition environments. *)
let unshared_plan (p : Spdistal.problem) =
  let b = Spdistal.bindings p and machine = p.Spdistal.machine in
  let stats = Part_eval.stats () in
  let placement =
    List.map
      (fun (name, _, tdn) ->
        (name, Placement.of_tdn ~stats ~machine ~bindings:b name tdn))
      p.Spdistal.operands
  in
  let prepared =
    Interp.prepare ~backend:CL.Interp ~bindings:b
      (Spdistal.compile ~trace:Trace.null p)
  in
  Part_eval.accum_stats stats prepared.Interp.pp_penv;
  ( placement,
    prepared.Interp.pp_penv,
    stats.Part_eval.s_parts + stats.Part_eval.s_dep_ops,
    Cache.partition_seconds machine stats,
    stats.Part_eval.s_dep_elems )

let same_partition (a : Partition.t) (b : Partition.t) =
  Iset.equal a.Partition.parent b.Partition.parent
  && a.Partition.disjoint = b.Partition.disjoint
  && a.Partition.axis = b.Partition.axis
  && Array.length a.Partition.subsets = Array.length b.Partition.subsets
  && Array.for_all2 Iset.equal a.Partition.subsets b.Partition.subsets

let residency_partition = function
  | Placement.Vals_partitioned p | Placement.Dim_partitioned { part = p; _ } ->
      Some p
  | Placement.Replicated_everywhere | Placement.Not_resident -> None

(* Sharing cannot be seen: for every candidate of every cell (and the hand
   schedule), a plan under one session-wide memo has the bill and the
   partitions of a build that shares nothing. *)
let test_sharing_invisible () =
  List.iter
    (fun (cell, p) ->
      let memo = Spdistal.memo () in
      let hand =
        { Search.c_label = "hand"; c_schedule = p.Spdistal.schedule; c_tdns = [] }
      in
      List.iter
        (fun (c : Search.candidate) ->
          let q = Search.apply p c in
          let what = cell ^ " " ^ c.Search.c_label in
          (* Infeasible candidates fail, as [Price] sees them. *)
          let attempt f =
            try Ok (f ()) with
            | Error.Error e -> Error (Error.to_string e)
            | Invalid_argument m | Failure m -> Error m
          in
          let shared =
            attempt (fun () ->
                Spdistal.plan ~memo ~trace:Trace.null ~backend:CL.Interp q)
          and unshared = attempt (fun () -> unshared_plan q) in
          match (shared, unshared) with
          | Error a, Error b -> Alcotest.(check string) (what ^ ": same error") b a
          | Ok _, Error m | Error m, Ok _ ->
              Alcotest.failf "%s: only one build failed: %s" what m
          | Ok e, Ok (placement, penv, ops, seconds, elems) ->
              Alcotest.(check int) (what ^ ": e_part_ops") ops e.Cache.e_part_ops;
              Alcotest.(check int64) (what ^ ": e_part_seconds bits")
                (Int64.bits_of_float seconds)
                (Int64.bits_of_float e.Cache.e_part_seconds);
              Alcotest.(check int) (what ^ ": e_part_elems") elems
                e.Cache.e_part_elems;
              Hashtbl.iter
                (fun name part ->
                  Alcotest.(check bool) (what ^ ": partition " ^ name) true
                    (same_partition part
                       (Part_eval.find_partition e.Cache.e_prepared.Interp.pp_penv
                          name)))
                penv.Part_eval.partitions;
              List.iter
                (fun (name, r) ->
                  match
                    ( residency_partition r,
                      residency_partition (Placement.find e.Cache.e_placement name) )
                  with
                  | None, None -> ()
                  | Some a, Some b ->
                      Alcotest.(check bool) (what ^ ": placement " ^ name) true
                        (same_partition a b)
                  | _ -> Alcotest.failf "%s: residency of %s differs" what name)
                placement)
        (Search.candidates p @ [ hand ]))
    (share_cells ())

(* In SDDMM's column-blocked candidate the program derives B's values
   partition exactly as B's placement does; the plan evaluates it once. *)
let test_sddmm_row_j_shares_placement () =
  let p = List.assoc "sddmm-cpu" (share_cells ()) in
  let c =
    List.find (fun c -> c.Search.c_label = "row:j") (Search.candidates p)
  in
  let e =
    Spdistal.plan ~trace:Trace.null ~backend:CL.Interp (Search.apply p c)
  in
  match Placement.find e.Cache.e_placement "B" with
  | Placement.Vals_partitioned placed ->
      Alcotest.(check bool) "BValsPart is the placement's partition" true
        (Part_eval.find_partition e.Cache.e_prepared.Interp.pp_penv "BValsPart"
        == placed)
  | _ -> Alcotest.fail "B is not vals-partitioned under row:j"

(* Two value-range partitions of one crd region with the same color count
   but different bounds must not share, even through one table. *)
let test_value_ranges_with_other_bounds_not_shared () =
  let open Spdistal_ir in
  let bindings =
    [ ("B", Spdistal_exec.Operand.sparse (Helpers.rand_csr ~seed:9 30 30 0.2)) ]
  in
  (* Color [c] takes the coordinate values [c * width .. (c + 1) * width - 1]. *)
  let prog width =
    let c = Loop_ir.Color_var "c" and w = Loop_ir.Int width in
    {
      Loop_ir.grid = [| 2 |];
      stmts =
        [
          Loop_ir.Init_coloring { coloring = "col"; axis = Partition.Flat };
          Loop_ir.For_colors
            {
              cvar = "c";
              count = 2;
              body =
                [
                  Loop_ir.Coloring_entry
                    {
                      coloring = "col";
                      lo = Loop_ir.Mul (c, w);
                      hi =
                        Loop_ir.Sub
                          (Loop_ir.Mul (Loop_ir.Add (c, Loop_ir.Int 1), w), Loop_ir.Int 1);
                    };
                ];
            };
          Loop_ir.Def_partition
            {
              pname = "P";
              expr =
                Loop_ir.By_value_ranges
                  { target = Loop_ir.Crd_r ("B", 1); coloring = "col" };
            };
        ];
    }
  in
  let eval ?shared width =
    let penv = Part_eval.create ?shared bindings in
    ignore (Part_eval.eval_partitions penv (prog width));
    Part_eval.find_partition penv "P"
  in
  let table = Part_eval.shared () in
  let narrow = eval ~shared:table 10 and wide = eval ~shared:table 15 in
  Alcotest.(check bool) "distinct partitions" false (narrow == wide);
  Alcotest.(check bool) "narrow = unshared" true
    (same_partition narrow (eval 10));
  Alcotest.(check bool) "wide = unshared" true (same_partition wide (eval 15));
  Alcotest.(check bool) "equal bounds share" true (eval ~shared:table 15 == wide)

(* Pricing makes the run's own capacity checks.  A 40x40 SDDMM on two
   GPUs with 9.8 kB each: the hand schedule ([nnz:B/2]) OOMs and so does
   [row:i]; [row:j] fits (the paper's case for memory-conserving
   schedules).  The auto-scheduler must pick a schedule that completes,
   and pick none when no candidate fits. *)
let test_choose_skips_oom () =
  let sddmm gpu_mem =
    let params =
      {
        (Machine.scale_params 1e9 Machine.lassen) with
        Machine.net_alpha = 1e-6;
        gpu_mem;
      }
    in
    let m = Spdistal.machine ~params ~kind:Machine.Gpu [| 2 |] in
    Core.Kernels.sddmm_problem ~machine:m ~cols:8
      (Helpers.rand_csr ~seed:25 40 40 0.5)
  in
  Alcotest.(check bool)
    "the hand schedule OOMs when run" true
    ((Spdistal.run (sddmm 9800.)).Spdistal.dnc <> None);
  (match Auto.choose (sddmm 9800.) with
  | None -> Alcotest.fail "a candidate fits, yet none was chosen"
  | Some c ->
      Alcotest.(check (option string))
        (c.Auto.ch_label ^ " runs to completion")
        None (Spdistal.run c.Auto.ch_problem).Spdistal.dnc);
  Alcotest.(check bool)
    "no choice when every candidate OOMs" true
    (Auto.choose (sddmm 16.) = None)

(* Over the quick tournament cells, the priced winner is the executed
   winner: it completes under [Spdistal.run], and its executed total is the
   least of every feasible candidate's, as executed.  Each run starts from
   the cell's pristine output. *)
let test_quick_tournament_winner_executes () =
  let fits = ref 0 in
  List.iter
    (fun (c : Spdistal_experiments.Auto_tournament.cell) ->
      let cell =
        Printf.sprintf "%s/%s/%s" c.c_kernel c.c_dataset c.c_system
      in
      let module Operand = Spdistal_exec.Operand in
      let p = c.c_problem () in
      let out =
        Operand.find (Spdistal.bindings p)
          p.Spdistal.stmt.Spdistal_ir.Tin.lhs.Spdistal_ir.Tin.tensor
      in
      let pristine = Operand.copy_data out.Operand.data in
      let executed (cand : Search.candidate) =
        out.Operand.data <- Operand.copy_data pristine;
        Spdistal.time_of
          (Spdistal.run ~faults:Fault.disabled (Search.apply p cand))
      in
      let rp = Auto.report p in
      match rp.Auto.rp_winner with
      | None -> ()
      | Some (winner, _) ->
          incr fits;
          let best =
            List.fold_left
              (fun best (v : Auto.verdict) ->
                match v.Auto.v_priced with
                | Error _ -> best
                | Ok _ -> (
                    match executed v.Auto.v_candidate with
                    | Some t -> Float.min t best
                    | None -> best))
              infinity rp.Auto.rp_verdicts
          in
          match executed winner with
          | None ->
              Alcotest.failf "%s: the priced winner %s did not complete" cell
                winner.Search.c_label
          | Some t ->
              if t > best then
                Alcotest.failf "%s: winner %s executes in %h s, a candidate in %h s"
                  cell winner.Search.c_label t best)
    (Spdistal_experiments.Auto_tournament.cells ~quick:true ());
  Alcotest.(check bool) "some cell has a feasible candidate" true (!fits > 0);
  Leaf.clear_cache ()

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
    Alcotest.test_case "session verdicts == standalone price" `Quick
      test_session_equals_standalone;
    Alcotest.test_case "no state across choose calls" `Quick
      test_no_cross_call_state;
    Alcotest.test_case "naive on a scalar output fails typed" `Quick
      test_naive_scalar_output_typed;
    prop_stats_values_free;
    Alcotest.test_case "pricing leaves ambient sinks alone" `Quick
      test_pricing_leaves_sinks_alone;
    Alcotest.test_case "merge shapes priced as the run checks them" `Quick
      test_merge_shapes_priced_as_run;
    Alcotest.test_case "partition sharing is invisible" `Quick
      test_sharing_invisible;
    Alcotest.test_case "sddmm row:j program reuses B's placement" `Quick
      test_sddmm_row_j_shares_placement;
    Alcotest.test_case "value ranges with other bounds not shared" `Quick
      test_value_ranges_with_other_bounds_not_shared;
    Alcotest.test_case "choose skips candidates that OOM" `Quick
      test_choose_skips_oom;
    Alcotest.test_case "quick tournament: the priced winner executes fastest"
      `Slow test_quick_tournament_winner_executes;
  ]
