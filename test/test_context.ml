(* State an execution context keeps across jobs.

   Load-bearing invariants:
   - the plan lives as long as the context's key: a miss after an eviction
     or a crash invalidation, and every iteration of an uncached context,
     reuses it without rebuilding anything on the host and bills exactly a
     cold build on the simulated clock; a rebound input or a pattern write
     plans afresh;
   - the output is restored in place, into the storage the previous
     restore installed, only while the slot still holds it and no pattern
     was written; every other restore copies. *)

open Spdistal_runtime
open Spdistal_exec
module S = Core.Spdistal
module Tensor = Spdistal_formats.Tensor
module Trace = Spdistal_obs.Trace

let out_name (p : S.problem) =
  p.S.stmt.Spdistal_ir.Tin.lhs.Spdistal_ir.Tin.tensor

let out_slot p = Operand.find (S.bindings p) (out_name p)

let digest_of (p : S.problem) =
  Cache.digest ~machine:p.S.machine ~operands:p.S.operands ~stmt:p.S.stmt
    ~schedule:p.S.schedule

let run_ok ?faults ?trace ?iterations ctx =
  let r = S.Context.run ?faults ?trace ?iterations ctx in
  Alcotest.(check (option string)) "completes" None r.S.dnc;
  r

let statuses r = List.map (fun it -> it.S.it_cache) r.S.iters

let entry cache p =
  match Cache.find cache (digest_of p) with
  | Some e -> e
  | None -> Alcotest.fail "no cached entry for the problem"

(* Every partition an entry's placement and program derived, by name. *)
let partitions (e : Cache.entry) =
  let prog =
    Hashtbl.fold
      (fun n p acc -> (n, p) :: acc)
      e.Cache.e_prepared.Interp.pp_penv.Part_eval.partitions []
  in
  let placed =
    List.filter_map
      (fun (n, r) ->
        match r with
        | Placement.Vals_partitioned p -> Some ("placement " ^ n, p)
        | _ -> None)
      e.Cache.e_placement
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (prog @ placed)

let bill (e : Cache.entry) =
  ( e.Cache.e_part_ops,
    Int64.bits_of_float e.Cache.e_part_seconds,
    e.Cache.e_part_elems )

let spmv_problem ?(seed = 94) () =
  Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 4)
    (Helpers.rand_csr ~seed 40 40 0.1)

(* ------------------------------------------------------------------ *)
(* The kept plan                                                       *)
(* ------------------------------------------------------------------ *)

(* Evict the entry of the one-entry shared [cache] by running another
   problem. *)
let evict cache =
  ignore
    (run_ok (S.Context.create ~shared_cache:cache (spmv_problem ~seed:95 ())));
  Alcotest.(check bool)
    "the other problem evicted the entry" true
    ((Cache.stats cache).Cache.evictions > 0)

let test_evicted_replan_shares () =
  let cache = Cache.create ~cap:1 () in
  let p = spmv_problem () in
  let ctx = S.Context.create ~shared_cache:cache p in
  ignore (run_ok ctx);
  let first = entry cache p in
  evict cache;
  let r = run_ok ctx in
  Alcotest.(check bool) "re-plan: miss" true (statuses r = [ `Miss ]);
  let again = entry cache p in
  Alcotest.(check bool) "the context re-adds its entry" true (again == first);
  (* The bill of a fresh context's cold run over the same problem. *)
  let fresh_cache = Cache.create () in
  let q = spmv_problem () in
  let rf = run_ok (S.Context.create ~shared_cache:fresh_cache q) in
  Alcotest.(check bool)
    "e_part_* equal a cold build's" true
    (bill again = bill (entry fresh_cache q));
  Alcotest.(check bool)
    "Cost equals a cold run's" true
    (Spdistal_fuzz.Snapshot.equal (Helpers.cost_sig r.S.cost)
       (Helpers.cost_sig rf.S.cost));
  Alcotest.(check bool)
    "outputs equal a cold run's" true
    (Helpers.snapshot p = Helpers.snapshot q)

(* Move one stored column of CSR [b] right, into a gap of its row, through
   [Region.set]: still a valid, sorted pattern, but a different one. *)
let write_pattern (b : Tensor.t) =
  let pos = Tensor.pos_of b 1 and crd = Tensor.crd_of b 1 in
  let ncols = b.Tensor.dims.(1) in
  let found = ref None in
  Array.iter
    (fun (lo, hi) ->
      for q = lo to hi do
        let next = if q < hi then Region.get crd (q + 1) else ncols in
        if !found = None && Region.get crd q + 1 < next then found := Some q
      done)
    pos.Region.data;
  let q = Option.get !found in
  Region.set crd q (Region.get crd q + 1)

(* After [mutate] changes an input's structure, the next plan derives every
   partition afresh, and the outputs equal those of a fresh context built
   over the same mutation. *)
let check_fresh_after what mutate =
  let cache = Cache.create () in
  let p = spmv_problem () in
  let ctx = S.Context.create ~shared_cache:cache p in
  ignore (run_ok ctx);
  let old = List.map snd (partitions (entry cache p)) in
  mutate p;
  Alcotest.(check bool)
    (what ^ ": miss") true
    (statuses (run_ok ctx) = [ `Miss ]);
  List.iter
    (fun (n, part) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s derived afresh" what n)
        true
        (not (List.exists (fun o -> o == part) old)))
    (partitions (entry cache p));
  let q = spmv_problem () in
  mutate q;
  ignore (run_ok (S.Context.create q));
  Alcotest.(check bool)
    (what ^ ": outputs equal a fresh context's")
    true
    (Helpers.snapshot p = Helpers.snapshot q)

let test_key_change_fresh () =
  check_fresh_after "rebound input" (fun p ->
      (Operand.find (S.bindings p) "B").Operand.data <-
        Operand.Sparse (Helpers.rand_csr ~seed:96 40 40 0.1));
  check_fresh_after "pattern write" (fun p ->
      write_pattern (Operand.find_sparse (S.bindings p) "B"))

(* Every charged partitioning, as the trace records it: the entry's exact
   [e_part_seconds], [e_part_ops] and [e_part_elems]. *)
let charged trace =
  List.filter_map
    (fun sp ->
      if sp.Trace.sp_name = "dependent_partitioning" then
        Some
          ( Int64.bits_of_float sp.Trace.sp_dur,
            List.remove_assoc "iteration" sp.Trace.sp_args )
      else None)
    (Trace.spans trace)

let test_crash_replan_same_bill () =
  let exercised =
    List.exists
      (fun seed ->
        let p =
          Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 8)
            (Helpers.rand_csr ~seed:71 80 80 0.06)
        in
        let ctx = S.Context.create p in
        let faults = Fault.make ~seed ~crash:0.4 ~retries:50 () in
        let trace = Trace.create () in
        let r = S.Context.run ~faults ~trace ~iterations:6 ctx in
        match (r.S.dnc, charged trace) with
        | None, (cold :: _ :: _ as bills) ->
            List.iter
              (fun b ->
                Alcotest.(check bool)
                  "a re-plan bills exactly the cold build" true (b = cold))
              bills;
            true
        | _ -> false)
      (List.init 32 (fun i -> i + 1))
  in
  Alcotest.(check bool)
    "some seed in 1..32 crashes a node and re-plans" true exercised

(* Host-clock spans of the phases that build a plan. *)
let build_spans trace =
  List.filter_map
    (fun sp ->
      if
        sp.Trace.sp_clock = Trace.Wall
        && List.mem sp.Trace.sp_name
             [ "placement"; "lower"; "part_eval"; "compile_leaves" ]
      then Some sp.Trace.sp_name
      else None)
    (Trace.spans trace)

let has_span trace name =
  List.exists (fun sp -> sp.Trace.sp_name = name) (Trace.spans trace)

(* A miss after an eviction charges the cold build's partitioning on the
   simulated clock and builds nothing on the host. *)
let test_evicted_no_rebuild () =
  let cache = Cache.create ~cap:1 () in
  let ctx = S.Context.create ~shared_cache:cache (spmv_problem ()) in
  let cold = Trace.create () in
  ignore (run_ok ~trace:cold ctx);
  evict cache;
  Alcotest.(check bool)
    "the cold run built a plan" true
    (build_spans cold <> []);
  let rerun = Trace.create () in
  ignore (run_ok ~trace:rerun ctx);
  Alcotest.(check bool) "a cache miss" true (has_span rerun "cache_miss");
  Alcotest.(check bool)
    "partitioning charged as the cold build" true
    (charged rerun = charged cold && charged cold <> []);
  Alcotest.(check (list string)) "no host build span" [] (build_spans rerun)

(* SpAdd3 evicted from the shared cache keeps computing into the output it
   assembled: the miss allocates under a tenth of a major-heap word per
   stored entry, where re-assembling allocates about three. *)
let test_spadd3_evicted_in_place () =
  let make () =
    Core.Kernels.spadd3_problem ~machine:(Helpers.cpu_machine 4)
      (Helpers.rand_csr ~seed:98 2000 2000 0.01)
  in
  let cache = Cache.create ~cap:1 () in
  let p = make () in
  let ctx = S.Context.create ~shared_cache:cache p in
  ignore (run_ok ctx);
  ignore (run_ok ctx);
  evict cache;
  let before = (Gc.quick_stat ()).Gc.major_words in
  let r = S.Context.run ~domains:1 ~leaf_backend:Compile_leaf.Compiled ctx in
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check (option string)) "completes" None r.S.dnc;
  Alcotest.(check bool) "a miss" true (statuses r = [ `Miss ]);
  let entries = Tensor.nnz (Operand.find_sparse (S.bindings p) "A") in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words over %d stored entries" words entries)
    true
    (words < float_of_int entries /. 10.);
  let q = make () in
  ignore (run_ok (S.Context.create q));
  Alcotest.(check bool)
    "values equal a single shot's" true
    (Helpers.snapshot p = Helpers.snapshot q)

(* An uncached context plans once on the host and charges the cold build's
   partitioning in every iteration. *)
let test_uncached_plans_once () =
  let p = spmv_problem () in
  let trace = Trace.create () in
  let r =
    S.Context.run ~trace ~iterations:3 (S.Context.create ~cache:false p)
  in
  Alcotest.(check (option string)) "completes" None r.S.dnc;
  Alcotest.(check bool)
    "every iteration uncached" true
    (statuses r = [ `Uncached; `Uncached; `Uncached ]);
  Alcotest.(check int)
    "one placement on the host" 1
    (List.length (List.filter (( = ) "placement") (build_spans trace)));
  (match charged trace with
  | [ a; b; c ] ->
      Alcotest.(check bool)
        "each iteration charges the same" true
        (a = b && b = c);
      let s = Int64.float_of_bits (fst a) in
      Alcotest.(check int64)
        "the run's partitioning is three charges"
        (Int64.bits_of_float (s +. s +. s))
        (Int64.bits_of_float r.S.cost.Cost.partitioning)
  | l ->
      Alcotest.failf "%d partitioning charges over 3 iterations"
        (List.length l));
  let q = spmv_problem () in
  ignore (run_ok (S.Context.create q));
  Alcotest.(check bool)
    "outputs equal a single run's" true
    (Helpers.snapshot p = Helpers.snapshot q)

(* ------------------------------------------------------------------ *)
(* In-place output restore                                             *)
(* ------------------------------------------------------------------ *)

let sddmm_problem () =
  Core.Kernels.sddmm_problem ~machine:(Helpers.cpu_machine 4) ~cols:4
    (Helpers.rand_csr ~seed:97 40 40 0.1)

let spadd3_problem () =
  Core.Kernels.spadd3_problem ~machine:(Helpers.cpu_machine 4)
    (Helpers.rand_csr ~seed:98 40 40 0.1)

(* The bits of an operand's values and pattern. *)
let bits = function
  | Operand.Vec { Spdistal_formats.Dense.data; _ }
  | Operand.Mat { Spdistal_formats.Dense.data; _ } ->
      (Array.map Int64.bits_of_float data, [])
  | Operand.Sparse t ->
      ( Array.map Int64.bits_of_float (Region.F.to_array t.Tensor.vals),
        List.init (Tensor.order t) (fun k ->
            match t.Tensor.levels.(k) with
            | Spdistal_formats.Level.Compressed { crd; _ }
            | Spdistal_formats.Level.Singleton { crd } ->
                Array.to_list crd.Region.data
            | Spdistal_formats.Level.Dense _ -> []) )

(* The output of one run of a fresh context over [make ()]. *)
let single_run make =
  let q = make () in
  ignore (run_ok (S.Context.create q));
  bits (out_slot q).Operand.data

let test_restore_reuses_storage () =
  List.iter
    (fun (what, make) ->
      let p = make () in
      let ctx = S.Context.create p in
      ignore (run_ok ctx);
      ignore (run_ok ctx);
      let installed = (out_slot p).Operand.data in
      List.iter
        (fun iterations ->
          ignore (run_ok ~iterations ctx);
          Alcotest.(check bool)
            (Printf.sprintf "%s: one storage after %d iterations" what
               iterations)
            true
            ((out_slot p).Operand.data == installed))
        [ 1; 3 ];
      Alcotest.(check bool)
        (what ^ ": output equals a single run's")
        true
        (bits installed = single_run make))
    [
      ("spmv (dense output)", fun () -> spmv_problem ());
      ("sddmm (sparse output)", sddmm_problem);
    ]

let test_restore_copies () =
  (* A caller's rebinding of the output slot: its storage is left alone. *)
  let p = spmv_problem () in
  let ctx = S.Context.create p in
  ignore (run_ok ctx);
  ignore (run_ok ctx);
  let mine = Operand.copy_data (out_slot p).Operand.data in
  let mine_bits = bits mine in
  (out_slot p).Operand.data <- mine;
  ignore (run_ok ctx);
  Alcotest.(check bool)
    "rebound slot: copied" true
    ((out_slot p).Operand.data != mine);
  Alcotest.(check bool) "rebound slot: caller's storage untouched" true
    (bits mine = mine_bits);
  Alcotest.(check bool) "rebound slot: output equals a single run's" true
    (bits (out_slot p).Operand.data = single_run (fun () -> spmv_problem ()));
  (* A write to the output's pattern moves the generation. *)
  let p = sddmm_problem () in
  let ctx = S.Context.create p in
  ignore (run_ok ctx);
  ignore (run_ok ctx);
  let installed = (out_slot p).Operand.data in
  (match installed with
  | Operand.Sparse t -> write_pattern t
  | _ -> Alcotest.fail "sddmm output is not sparse");
  ignore (run_ok ctx);
  Alcotest.(check bool) "pattern write: copied" true
    ((out_slot p).Operand.data != installed);
  Alcotest.(check bool) "pattern write: output equals a single run's" true
    (bits (out_slot p).Operand.data = single_run sddmm_problem);
  (* SpAdd3's first launch assembles its output; later runs keep that
     storage and compute every value into it. *)
  let p = spadd3_problem () in
  let ctx = S.Context.create p in
  ignore (run_ok ctx);
  let kept = (out_slot p).Operand.data in
  let expected = single_run spadd3_problem in
  List.iter
    (fun n ->
      ignore (run_ok ctx);
      Alcotest.(check bool)
        (Printf.sprintf "spadd3: one storage after run %d" n)
        true
        ((out_slot p).Operand.data == kept);
      Alcotest.(check bool)
        (Printf.sprintf "spadd3: output equals a single run's after run %d" n)
        true
        (bits kept = expected))
    [ 2; 3 ];
  (* A kept result is the next run's output storage: the run overwrites
     whatever the caller wrote into it. *)
  (match kept with
  | Operand.Sparse t ->
      for q = 0 to Region.F.extent t.Tensor.vals - 1 do
        Region.F.set t.Tensor.vals q 7.
      done
  | _ -> Alcotest.fail "spadd3 output is not sparse");
  ignore (run_ok ctx);
  Alcotest.(check bool)
    "spadd3: a kept result is overwritten" true
    ((out_slot p).Operand.data == kept && bits kept = expected)

(* A tiny GPU memory forces a DNC after leaves wrote the output. *)
let tiny_gpu_spmm () =
  let b = Helpers.rand_csr ~seed:25 40 40 0.5 in
  let params =
    { (Machine.scale_params 1e9 Machine.lassen) with Machine.net_alpha = 1e-6 }
  in
  let m = S.machine ~params ~kind:Machine.Gpu [| 2 |] in
  Core.Kernels.spmm_problem ~machine:m ~cols:8 b

let test_restore_dnc () =
  let p = tiny_gpu_spmm () in
  let original = (out_slot p).Operand.data in
  let pristine = bits original in
  let ctx = S.Context.create p in
  List.iter
    (fun n ->
      let r = S.Context.run ctx in
      Alcotest.(check bool) "DNC reported" true (r.S.dnc <> None);
      Alcotest.(check bool)
        (Printf.sprintf "DNC %d: output pristine" n)
        true
        (bits (out_slot p).Operand.data = pristine);
      Alcotest.(check bool)
        (Printf.sprintf "DNC %d: the caller's storage is not restored into" n)
        true
        ((out_slot p).Operand.data != original))
    [ 1; 2 ]

(* The single-shot protocol snapshots nothing on a fault-free one-launch
   plan: its OOM strikes before any leaf of the launch runs, so the
   caller's output storage is never written. *)
let test_single_shot_oom_untouched () =
  let p = tiny_gpu_spmm () in
  let original = (out_slot p).Operand.data in
  let before = bits original in
  let r = S.run p in
  Alcotest.(check bool) "DNC reported" true (r.S.dnc <> None);
  Alcotest.(check bool)
    "the caller's storage stays bound" true
    ((out_slot p).Operand.data == original);
  Alcotest.(check bool)
    "output bit-equal to its pre-run copy" true
    (bits original = before)

(* ------------------------------------------------------------------ *)
(* SpAdd3 computes into the output it assembled                        *)
(* ------------------------------------------------------------------ *)

let spadd3_on ?(seed = 98) machine () =
  Core.Kernels.spadd3_problem ~machine (Helpers.rand_csr ~seed 40 40 0.1)

let machines =
  [ ("4 CPU nodes", Helpers.cpu_machine 4); ("4 GPUs", Helpers.gpu_machine [| 4 |]) ]

let backends = [ Compile_leaf.Compiled; Compile_leaf.Interp ]

(* A fresh single shot's output and cost. *)
let single_shot ?leaf_backend p =
  let r = S.run ?leaf_backend p in
  Alcotest.(check (option string)) "single shot completes" None r.S.dnc;
  (Helpers.snapshot p, Helpers.cost_sig r.S.cost)

let same_cost a b = Spdistal_fuzz.Snapshot.equal a b

let test_spadd3_iterations () =
  List.iter
    (fun (where, machine) ->
      List.iter
        (fun leaf_backend ->
          let what n s =
            Printf.sprintf "%s [%s] run %d: %s" where
              (Compile_leaf.backend_name leaf_backend) n s
          in
          let out, cost = single_shot ~leaf_backend (spadd3_on machine ()) in
          let p = spadd3_on machine () in
          let ctx = S.Context.create p in
          let first = ref None in
          List.iter
            (fun n ->
              let r = S.Context.run ~leaf_backend ctx in
              Alcotest.(check (option string)) (what n "completes") None r.S.dnc;
              Alcotest.(check bool)
                (what n "output equals a single shot's")
                true
                (Helpers.snapshot p = out);
              match !first with
              | None -> first := Some (out_slot p).Operand.data
              | Some d ->
                  Alcotest.(check bool)
                    (what n "the first run's output storage")
                    true
                    ((out_slot p).Operand.data == d);
                  Alcotest.(check bool)
                    (what n "cost equals a single shot's")
                    true
                    (same_cost (Helpers.cost_sig r.S.cost) cost))
            [ 1; 2; 3 ])
        backends)
    machines

(* Rebinding B to another pattern re-assembles, whether the new pattern
   misses the cache or, on the way back, hits an entry while the slot
   holds the other pattern's output. *)
let test_spadd3_rebind () =
  let machine = Helpers.cpu_machine 4 in
  List.iter
    (fun leaf_backend ->
      let what s =
        Printf.sprintf "[%s] %s" (Compile_leaf.backend_name leaf_backend) s
      in
      let p = spadd3_on machine () in
      let slot name = Operand.find (S.bindings p) name in
      let b = (slot "B").Operand.data in
      let b2 = Helpers.rand_csr ~seed:99 40 40 0.1 in
      let expect bt =
        fst
          (single_shot ~leaf_backend
             (Core.Kernels.spadd3_problem ~machine
                ~c:(Operand.find_sparse (S.bindings p) "C")
                ~d:(Operand.find_sparse (S.bindings p) "D")
                bt))
      in
      let ctx = S.Context.create p in
      ignore (run_ok ctx);
      ignore (run_ok ctx);
      let kept = (out_slot p).Operand.data in
      (slot "B").Operand.data <- Operand.Sparse b2;
      let r = S.Context.run ~leaf_backend ctx in
      Alcotest.(check bool) (what "new pattern: a miss") true (statuses r = [ `Miss ]);
      Alcotest.(check bool)
        (what "new pattern: re-assembled")
        true
        ((out_slot p).Operand.data != kept);
      Alcotest.(check bool)
        (what "new pattern: output equals a single shot's")
        true
        (Helpers.snapshot p = expect b2);
      (slot "B").Operand.data <- b;
      let r = S.Context.run ~leaf_backend ctx in
      Alcotest.(check bool) (what "back: a hit") true (statuses r = [ `Hit ]);
      Alcotest.(check bool)
        (what "back: output equals a single shot's")
        true
        (Helpers.snapshot p = expect (Operand.find_sparse (S.bindings p) "B")))
    backends

(* An output one entry off the one the launch assembles: the launch falls
   back to assembling, and the run equals a single shot's. *)
let test_spadd3_perturbed_output () =
  let machine = Helpers.cpu_machine 4 in
  List.iter
    (fun leaf_backend ->
      List.iter
        (fun (kind, name) ->
          let what s =
            Printf.sprintf "[%s] %s: %s" (Compile_leaf.backend_name leaf_backend)
              name s
          in
          let expected = fst (single_shot ~leaf_backend (spadd3_on machine ())) in
          let p = spadd3_on machine () in
          ignore (single_shot ~leaf_backend p);
          let t = Operand.find_sparse (S.bindings p) "A" in
          let pos = (Tensor.pos_of t 1).Region.data
          and crd = (Tensor.crd_of t 1).Region.data in
          let r = Array.find_index (fun (lo, hi) -> lo <= hi) pos |> Option.get in
          let pos, crd = Helpers.perturb_row kind ~ncols:t.Tensor.dims.(1) (pos, crd) r in
          let off =
            {
              t with
              Tensor.levels =
                [|
                  t.Tensor.levels.(0);
                  Spdistal_formats.Level.Compressed
                    {
                      pos = Region.of_array "A.pos" pos;
                      crd = Region.of_array "A.crd" crd;
                    };
                |];
              vals = Region.F.create "A.vals" (Array.length crd) 7.;
            }
          in
          (out_slot p).Operand.data <- Operand.Sparse off;
          ignore (single_shot ~leaf_backend p);
          Alcotest.(check bool)
            (what "output equals a single shot's")
            true
            (Helpers.snapshot p = expected))
        [ (`Extra, "an extra entry"); (`Missing, "a missing entry"); (`Changed, "a changed column") ])
    backends

(* A warm SpAdd3 iteration computes into the output it keeps: it
   allocates under a tenth of a major-heap word per stored entry, where
   assembling allocates about three (the partials' columns and values and
   the stitched columns). *)
let test_spadd3_warm_allocation () =
  let p =
    Core.Kernels.spadd3_problem ~machine:(Helpers.cpu_machine 4)
      (Helpers.rand_csr ~seed:98 2000 2000 0.01)
  in
  let ctx = S.Context.create p in
  let run () =
    ignore (S.Context.run ~domains:1 ~leaf_backend:Compile_leaf.Compiled ctx)
  in
  run ();
  run ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  run ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let entries = Tensor.nnz (Operand.find_sparse (S.bindings p) "A") in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words over %d stored entries" words entries)
    true
    (words < float_of_int entries /. 10.)

let suite =
  [
    Alcotest.test_case "table: evicted re-plan shares partitions" `Quick
      test_evicted_replan_shares;
    Alcotest.test_case "table: key change derives fresh partitions" `Quick
      test_key_change_fresh;
    Alcotest.test_case "table: crash re-plan bills the cold build" `Quick
      test_crash_replan_same_bill;
    Alcotest.test_case "plan: an evicted context rebuilds nothing" `Quick
      test_evicted_no_rebuild;
    Alcotest.test_case "plan: evicted spadd3 computes in place" `Quick
      test_spadd3_evicted_in_place;
    Alcotest.test_case "plan: an uncached context plans once" `Quick
      test_uncached_plans_once;
    Alcotest.test_case "restore: one storage across runs" `Quick
      test_restore_reuses_storage;
    Alcotest.test_case "restore: copy path" `Quick test_restore_copies;
    Alcotest.test_case "restore: DNC" `Quick test_restore_dnc;
    Alcotest.test_case "single-shot OOM leaves the output untouched" `Quick
      test_single_shot_oom_untouched;
    Alcotest.test_case "spadd3: warm iterations equal a single shot" `Quick
      test_spadd3_iterations;
    Alcotest.test_case "spadd3: a rebound B re-assembles" `Quick
      test_spadd3_rebind;
    Alcotest.test_case "spadd3: an output one entry off re-assembles" `Quick
      test_spadd3_perturbed_output;
    Alcotest.test_case "spadd3: a warm iteration allocates no entries" `Quick
      test_spadd3_warm_allocation;
  ]
