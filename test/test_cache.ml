(* The execution-context cache (warm-start protocol).

   Load-bearing invariants:
   - amortization: the cold first iteration pays dependent partitioning,
     warm iterations are strictly cheaper and hit the cache;
   - bit-identity: cached and uncached (--no-cache) runs produce bitwise
     equal outputs and per-iteration launch records, with and without
     fault injection — the cache may only change WHEN partitioning runs,
     never what the launches do;
   - the digest is injective across distinct (tin, formats, tdn, schedule,
     machine) tuples and insensitive to stored values;
   - a node crash invalidates the entry, forcing a re-partition (re-paid). *)

open Spdistal_runtime
open Spdistal_exec
module S = Core.Spdistal
module Report = Spdistal_obs.Report
module Trace = Spdistal_obs.Trace

let iter_totals r = List.map (fun it -> Cost.total it.S.it_cost) r.S.iters
let statuses r = List.map (fun it -> it.S.it_cache) r.S.iters

(* Everything a launch contributes to the clock except the partitioning
   charge itself: bitwise equal between cached and uncached runs. *)
let launch_sig (c : Cost.t) =
  ( Int64.bits_of_float c.Cost.compute,
    Int64.bits_of_float c.Cost.comm,
    Int64.bits_of_float c.Cost.overhead,
    Int64.bits_of_float c.Cost.bytes_moved,
    c.Cost.messages,
    c.Cost.launches,
    Int64.bits_of_float c.Cost.flops,
    Int64.bits_of_float c.Cost.recovery,
    c.Cost.retries,
    Int64.bits_of_float c.Cost.resent_bytes,
    c.Cost.faults )

(* ------------------------------------------------------------------ *)
(* Amortization: cold miss pays, warm hits don't                       *)
(* ------------------------------------------------------------------ *)

let test_amortization () =
  let res, trace = Helpers.run_traced ~iterations:4 (Helpers.comm_spmv ()) in
  Alcotest.(check (option string)) "completes" None res.S.dnc;
  Alcotest.(check int) "one stat per iteration" 4 (List.length res.S.iters);
  (match statuses res with
  | [ `Miss; `Hit; `Hit; `Hit ] -> ()
  | _ -> Alcotest.fail "expected Miss, Hit, Hit, Hit");
  (match iter_totals res with
  | cold :: (warm :: _ as warms) ->
      Alcotest.(check bool)
        "cold iteration strictly dearer than warm" true (cold > warm);
      (* Equal up to accumulator rounding: each warm iteration adds the same
         dt sequence, but at a different running-sum offset. *)
      List.iter
        (fun w -> Helpers.check_float "warm iterations cost the same" warm w)
        warms
  | _ -> Alcotest.fail "no iterations");
  let c = res.S.cost in
  Alcotest.(check bool) "partitioning charged" true (c.Cost.partitioning > 0.);
  Alcotest.(check bool) "dep ops counted" true (c.Cost.part_ops > 0);
  (* Charged exactly once: the whole partitioning column sits in iteration 0. *)
  (match res.S.iters with
  | it0 :: rest ->
      Alcotest.(check bool)
        "all partitioning in the cold iteration" true
        (it0.S.it_cost.Cost.partitioning = c.Cost.partitioning);
      List.iter
        (fun it ->
          Alcotest.(check (float 0.)) "warm iterations pay nothing" 0.
            it.S.it_cost.Cost.partitioning)
        rest
  | [] -> Alcotest.fail "no iterations");
  (* The trace carries the hit/miss instants and the partition span. *)
  let spans cat name =
    List.filter
      (fun sp ->
        sp.Trace.sp_track = Trace.Runtime
        && sp.Trace.sp_cat = cat && sp.Trace.sp_name = name)
      (Trace.spans trace)
  in
  Alcotest.(check int) "one cache_miss instant" 1 (List.length (spans "cache" "cache_miss"));
  Alcotest.(check int) "three cache_hit instants" 3 (List.length (spans "cache" "cache_hit"));
  Alcotest.(check int)
    "one dependent_partitioning span" 1
    (List.length (spans "partition" "dependent_partitioning"));
  Alcotest.(check int) "four iteration spans" 4 (List.length (spans "iteration" "iteration"));
  (* And the report reads them back. *)
  let r = Report.of_trace trace in
  Alcotest.(check int) "report iterations" 4 (List.length r.Report.r_iterations);
  Alcotest.(check int) "report hits" 3 r.Report.r_cache_hits;
  Alcotest.(check int) "report misses" 1 r.Report.r_cache_misses;
  List.iter
    (fun ir ->
      if ir.Report.ir_index = 0 then
        Alcotest.(check bool) "cold row pays partitioning" true (ir.Report.ir_partition > 0.)
      else
        Alcotest.(check (float 0.)) "warm rows pay nothing" 0. ir.Report.ir_partition)
    r.Report.r_iterations

let test_no_cache_repays_every_iteration () =
  let res, _ = Helpers.run_traced ~iterations:4 ~cache:false (Helpers.comm_spmv ()) in
  Alcotest.(check (option string)) "completes" None res.S.dnc;
  Alcotest.(check bool)
    "every iteration bypasses the cache" true
    (List.for_all (fun s -> s = `Uncached) (statuses res));
  (match iter_totals res with
  | t0 :: rest ->
      List.iter
        (fun t ->
          Helpers.check_float
            "uncached iterations all cost the same (partitioning re-paid)" t0 t)
        rest
  | [] -> Alcotest.fail "no iterations");
  List.iter
    (fun it ->
      Alcotest.(check bool)
        "each uncached iteration pays partitioning" true
        (it.S.it_cost.Cost.partitioning > 0.))
    res.S.iters

let test_legacy_protocol_unchanged () =
  (* No [iterations]: one uncached context iteration whose cold build is
     setup — no partitioning charged, so the clock is byte-compatible with
     the seed protocol. *)
  let r = S.run (Helpers.comm_spmv ()) in
  Alcotest.(check (option string)) "completes" None r.S.dnc;
  (match r.S.iters with
  | [ it ] ->
      Alcotest.(check bool) "uncached" true (it.S.it_cache = `Uncached);
      Alcotest.(check (float 0.))
        "iteration charges no partitioning" 0. it.S.it_cost.Cost.partitioning
  | l -> Alcotest.failf "expected one iteration stat, got %d" (List.length l));
  Alcotest.(check (float 0.)) "no partitioning charged" 0. r.S.cost.Cost.partitioning;
  Alcotest.(check int) "no dep ops charged" 0 r.S.cost.Cost.part_ops;
  (* A warm iteration's launch work equals the legacy run's whole clock. *)
  let res, _ = Helpers.run_traced ~iterations:3 (Helpers.comm_spmv ()) in
  match List.rev (iter_totals res) with
  | warm :: _ ->
      Helpers.check_float "warm iteration = legacy total" (Cost.total r.S.cost) warm
  | [] -> Alcotest.fail "no iterations"

(* ------------------------------------------------------------------ *)
(* Bit-identity: cached vs uncached, including under faults            *)
(* ------------------------------------------------------------------ *)

let check_bit_identity ?faults ~iterations name make =
  let p_c = make () in
  let r_c = S.run ?faults ~iterations ~cache:true p_c in
  let p_u = make () in
  let r_u = S.run ?faults ~iterations ~cache:false p_u in
  match (r_c.S.dnc, r_u.S.dnc) with
  | Some _, Some _ -> true (* recovery exhausted under both: same verdict *)
  | None, None ->
      if Helpers.snapshot p_c <> Helpers.snapshot p_u then
        Alcotest.failf "%s: outputs differ cached vs uncached" name;
      let sigs r = List.map (fun it -> launch_sig it.S.it_cost) r.S.iters in
      if sigs r_c <> sigs r_u then
        Alcotest.failf "%s: per-iteration launch records differ" name;
      true
  | _ -> Alcotest.failf "%s: DNC only in one mode" name

let test_bit_identity_under_faults () =
  (* ISSUE acceptance: 10% fault rate, every kernel, cached and uncached
     agree bit for bit. *)
  let faults = Fault.make ~seed:7 ~rate:0.1 () in
  List.iter
    (fun (name, make) ->
      ignore (check_bit_identity ~faults ~iterations:3 name make))
    (Helpers.kernel_problems ())

let prop_bit_identity =
  let open QCheck in
  let arb =
    make
      ~print:(fun (s, k, n, rate) ->
        Printf.sprintf "seed=%d kernel=%d iterations=%d rate=%d%%" s k n rate)
      Gen.(
        let* s = int_range 0 1000 in
        let* k = int_range 0 6 in
        let* n = int_range 1 4 in
        let* rate = int_range 0 30 in
        return (s, k, n, rate))
  in
  Helpers.qtest ~count:10 "cached = uncached (outputs, launch records)" arb
    (fun (seed, k, iterations, rate_pct) ->
      let name, make = List.nth (Helpers.kernel_problems ()) k in
      let faults =
        if rate_pct = 0 then None
        else Some (Fault.make ~seed ~rate:(float_of_int rate_pct /. 100.) ())
      in
      check_bit_identity ?faults ~iterations name make)

(* ------------------------------------------------------------------ *)
(* Digest                                                              *)
(* ------------------------------------------------------------------ *)

let digest_of (p : S.problem) =
  Cache.digest ~machine:p.S.machine ~operands:p.S.operands ~stmt:p.S.stmt
    ~schedule:p.S.schedule

let test_digest_injective () =
  (* A corpus of pairwise-distinct problems: every fig10 kernel (both
     distribution schedules), two machine sizes, two sparsity patterns.
     All digests must differ; rebuilding the same problem must not. *)
  let catalog mseed tseed =
    Helpers.kernel_problems ~mseed ~tseed () @ Helpers.nnz_kernel_problems ~mseed ~tseed ()
  in
  let corpus =
    List.map (fun (n, make) -> ("a-" ^ n, digest_of (make ()))) (catalog 71 72)
    @ List.map (fun (n, make) -> ("b-" ^ n, digest_of (make ()))) (catalog 171 172)
    @ [
        ( "spmv-4pieces",
          digest_of
            (Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 4)
               (Helpers.rand_csr ~seed:71 80 80 0.06)) );
      ]
  in
  List.iteri
    (fun i (ni, di) ->
      List.iteri
        (fun j (nj, dj) ->
          if i < j && di = dj then
            Alcotest.failf "digest collision: %s = %s" ni nj)
        corpus)
    corpus;
  List.iter
    (fun (n, make) ->
      Alcotest.(check string)
        (n ^ ": digest deterministic across rebuilds")
        (digest_of (make ())) (digest_of (make ())))
    (catalog 71 72)

let test_digest_ignores_values () =
  (* Same sparsity structure, different stored values: the whole point of
     the cache is that iterative value updates keep the partitions. *)
  let make () =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 8)
      (Helpers.rand_csr ~seed:71 80 80 0.06)
  in
  let p = make () in
  let d0 = digest_of p in
  (match (Operand.find (S.bindings p) "B").Operand.data with
  | Operand.Sparse t ->
      let vals = t.Spdistal_formats.Tensor.vals in
      Region.F.set vals 0 (Region.F.get vals 0 +. 1.)
  | _ -> Alcotest.fail "B is not sparse");
  Alcotest.(check string) "value update keeps the digest" d0 (digest_of p);
  (* A different pattern (other seed) changes it. *)
  let p2 =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 8)
      (Helpers.rand_csr ~seed:72 80 80 0.06)
  in
  Alcotest.(check bool)
    "pattern change changes the digest" true
    (d0 <> digest_of p2)

let test_digest_sees_machine_params () =
  (* The digest renders the machine params field by field (Marshal's byte
     layout is not a stable canonical form): perturbing any single field —
     including ones the simulated kernel may never consult — must change
     the key, because a cached plan priced under different params is stale. *)
  let problem_with params =
    Core.Kernels.spmv_problem
      ~machine:(S.machine ~params ~kind:Machine.Cpu [| 8 |])
      (Helpers.rand_csr ~seed:71 80 80 0.06)
  in
  let base = Machine.lassen in
  let d0 = digest_of (problem_with base) in
  Alcotest.(check string)
    "same params, same digest" d0
    (digest_of (problem_with { base with Machine.cpu_cores = base.Machine.cpu_cores }));
  let perturbed =
    [
      ("scaled 2x", Machine.scale_params 2.0 base);
      ("cpu_cores+1", { base with Machine.cpu_cores = base.Machine.cpu_cores + 1 });
      ("gpus_per_node+1",
       { base with Machine.gpus_per_node = base.Machine.gpus_per_node + 1 });
      ("task_overhead*2",
       { base with Machine.task_overhead = base.Machine.task_overhead *. 2. });
      ("atomic_penalty_cpu*2",
       { base with
         Machine.atomic_penalty_cpu = base.Machine.atomic_penalty_cpu *. 2. });
      ("atomic_penalty_gpu*2",
       { base with
         Machine.atomic_penalty_gpu = base.Machine.atomic_penalty_gpu *. 2. });
      ("legion_leaf_efficiency/2",
       { base with
         Machine.legion_leaf_efficiency =
           base.Machine.legion_leaf_efficiency /. 2. });
      ("uvm_page_bw*2",
       { base with Machine.uvm_page_bw = base.Machine.uvm_page_bw *. 2. });
      (* A tiny relative nudge: %h rendering is exact, so even the last bit
         of a float must be visible to the key. *)
      ("net_alpha ulp-ish",
       { base with Machine.net_alpha = base.Machine.net_alpha *. (1. +. 1e-15) });
    ]
  in
  List.iter
    (fun (what, params) ->
      Alcotest.(check bool)
        (what ^ " changes the digest")
        true
        (d0 <> digest_of (problem_with params)))
    perturbed;
  (* Grid and kind perturbations, same params. *)
  let with_machine machine =
    Core.Kernels.spmv_problem ~machine (Helpers.rand_csr ~seed:71 80 80 0.06)
  in
  Alcotest.(check bool)
    "grid change changes the digest" true
    (d0 <> digest_of (with_machine (S.machine ~params:base ~kind:Machine.Cpu [| 4 |])));
  Alcotest.(check bool)
    "kind change changes the digest" true
    (d0 <> digest_of (with_machine (S.machine ~params:base ~kind:Machine.Gpu [| 8 |])))

(* Keys are persisted (the serve loop's events.jsonl records them), so the
   exact strings are part of the contract, not just their distinctness.
   The literals below pin the FNV-1a pattern hashing and the rendering
   around it on three small fixed problems; the empty-CSR output of SpAdd3
   exercises the zero-length crd hash. *)
let test_digest_pinned () =
  let open Spdistal_formats in
  let m = Helpers.cpu_machine 2 in
  let csr =
    Tensor.csr ~name:"B"
      (Coo.make [| 5; 6 |]
         [
           ([| 0; 1 |], 1.); ([| 0; 4 |], 2.); ([| 1; 0 |], 3.);
           ([| 2; 2 |], 4.); ([| 2; 3 |], 5.); ([| 2; 5 |], 6.);
           ([| 4; 0 |], 7.); ([| 4; 5 |], 8.);
         ])
  in
  let csf =
    Tensor.of_coo ~name:"B"
      ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
      (Coo.make [| 3; 4; 5 |]
         [
           ([| 0; 0; 1 |], 1.); ([| 0; 0; 4 |], 2.); ([| 0; 3; 2 |], 3.);
           ([| 1; 2; 0 |], 4.); ([| 2; 1; 1 |], 5.); ([| 2; 1; 3 |], 6.);
           ([| 2; 3; 4 |], 7.);
         ])
  in
  let cases =
    [
      ( "spmv",
        Core.Kernels.spmv_problem ~machine:m csr,
        "350ff358840c2ab09e0c9021ae5360fc",
        "4e9f3b6a02fff743ac39b68aa20e2178" );
      ( "spttv",
        Core.Kernels.spttv_problem ~machine:m csf,
        "dc91e91f1db30b3660c4b59b4cb065be",
        "e30ff7cedb9bc6e3c35e8c46fe6a915b" );
      ( "spadd3",
        Core.Kernels.spadd3_problem ~machine:m csr,
        "33aee0af3755a456d37c70628d646ba0",
        "dd12568777bfd960ae774d0b8ded2933" );
    ]
  in
  List.iter
    (fun (name, (p : S.problem), key, winner) ->
      Alcotest.(check string) (name ^ ": Cache.digest") key (digest_of p);
      Alcotest.(check string)
        (name ^ ": Cache.winner_digest")
        winner
        (Cache.winner_digest ~machine:p.S.machine ~operands:p.S.operands
           ~stmt:p.S.stmt))
    cases

(* ------------------------------------------------------------------ *)
(* Fault-driven invalidation                                           *)
(* ------------------------------------------------------------------ *)

let test_crash_invalidates () =
  (* Find a deterministic schedule that crashes a node mid-run; the cache
     must invalidate and the next iteration must re-partition (a second
     miss, with the partitioning column charged again). *)
  let exercised =
    List.exists
      (fun seed ->
        let p =
          Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 8)
            (Helpers.rand_csr ~seed:71 80 80 0.06)
        in
        let ctx = S.Context.create p in
        let faults = Fault.make ~seed ~crash:0.4 ~retries:50 () in
        let r = S.Context.run ~faults ~iterations:6 ctx in
        match (r.S.dnc, S.Context.cache_stats ctx) with
        | None, Some st when st.Cache.invalidations > 0 ->
            Alcotest.(check bool)
              "re-partition after invalidation (>= 2 misses)" true
              (st.Cache.misses >= 2);
            let repaid =
              List.filter
                (fun it ->
                  it.S.it_index > 0 && it.S.it_cost.Cost.partitioning > 0.)
                r.S.iters
            in
            Alcotest.(check bool)
              "a later iteration re-pays partitioning" true (repaid <> []);
            true
        | _ -> false)
      (List.init 32 (fun i -> i + 1))
  in
  Alcotest.(check bool)
    "some seed in 1..32 crashes a node and invalidates" true exercised

(* ------------------------------------------------------------------ *)
(* Context reuse                                                       *)
(* ------------------------------------------------------------------ *)

let test_context_reuse_all_hits () =
  let p = Helpers.comm_spmv () in
  let ctx = S.Context.create p in
  let r1 = S.Context.run ~iterations:2 ctx in
  Alcotest.(check (option string)) "first run completes" None r1.S.dnc;
  let out1 = Helpers.snapshot p in
  (match statuses r1 with
  | [ `Miss; `Hit ] -> ()
  | _ -> Alcotest.fail "first run: expected Miss, Hit");
  let r2 = S.Context.run ~iterations:2 ctx in
  Alcotest.(check (option string)) "second run completes" None r2.S.dnc;
  Alcotest.(check bool)
    "second run is all hits" true
    (List.for_all (fun s -> s = `Hit) (statuses r2));
  Alcotest.(check (float 0.)) "second run pays no partitioning" 0.
    r2.S.cost.Cost.partitioning;
  Alcotest.(check bool)
    "reused context computes the same outputs" true
    (Helpers.snapshot p = out1);
  match S.Context.cache_stats ctx with
  | Some st ->
      Alcotest.(check int) "one live entry" 1 st.Cache.entries;
      Alcotest.(check int) "one miss overall" 1 st.Cache.misses;
      Alcotest.(check int) "three hits overall" 3 st.Cache.hits
  | None -> Alcotest.fail "context has no cache"

(* ------------------------------------------------------------------ *)
(* LRU recency and the byte budget                                     *)
(* ------------------------------------------------------------------ *)

let test_lru_recency () =
  (* Three distinct problems over one shared 2-entry cache, touched
     A B A C: with true LRU (hits refresh recency) the eviction forced by C
     drops B — A, re-used more recently, survives.  Insertion-order FIFO
     would wrongly drop A. *)
  let problem seed =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
      (Helpers.rand_csr ~seed 40 40 0.08)
  in
  let cache = Cache.create ~cap:2 () in
  let ctx_of p = S.Context.create ~shared_cache:cache p in
  let a = ctx_of (problem 81)
  and b = ctx_of (problem 82)
  and c = ctx_of (problem 83) in
  let run ctx = Alcotest.(check (option string)) "completes" None (S.Context.run ctx).S.dnc in
  run a;
  run b;
  run a;
  (* a: hit, refreshing its recency *)
  run c;
  (* evicts the LRU entry — b, not a *)
  let st = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 st.Cache.evictions;
  Alcotest.(check int) "cap holds" 2 st.Cache.entries;
  Alcotest.(check bool) "bytes accounted" true (st.Cache.bytes > 0);
  Alcotest.(check bool) "peak >= live bytes" true
    (st.Cache.bytes_peak >= st.Cache.bytes);
  run a;
  Alcotest.(check int) "A survived (hit, not rebuild)"
    (st.Cache.misses)
    (Cache.stats cache).Cache.misses;
  run b;
  Alcotest.(check int) "B was the one evicted (miss on return)"
    (st.Cache.misses + 1)
    (Cache.stats cache).Cache.misses

let test_byte_budget_evicts () =
  (* A budget that holds one entry but not two: the second problem's insert
     evicts the first, and the resting footprint never exceeds the budget. *)
  let problem seed =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
      (Helpers.rand_csr ~seed 40 40 0.08)
  in
  let probe = Cache.create () in
  ignore (S.Context.run (S.Context.create ~shared_cache:probe (problem 84)));
  let one = (Cache.stats probe).Cache.bytes in
  Alcotest.(check bool) "probe entry has bytes" true (one > 0);
  let budget = one + (one / 2) in
  let cache = Cache.create ~byte_budget:budget () in
  ignore (S.Context.run (S.Context.create ~shared_cache:cache (problem 84)));
  ignore (S.Context.run (S.Context.create ~shared_cache:cache (problem 85)));
  let st = Cache.stats cache in
  Alcotest.(check int) "budget evicted the older entry" 1 st.Cache.evictions;
  Alcotest.(check bool) "resting bytes under budget" true (st.Cache.bytes <= budget);
  Alcotest.(check bool) "peak sampled under budget" true
    (st.Cache.bytes_peak <= budget);
  Alcotest.(check bool) "non-positive budget rejected" true
    (try
       ignore (Cache.create ~byte_budget:0 ());
       false
     with Error.Error { Error.phase = Error.Config; _ } -> true)

let test_crash_soak_under_budget () =
  (* Satellite soak: one context reused across many fault-bearing runs.
     Repeated crashes keep invalidating the entry; outputs stay
     bit-identical to the fault-free run and the accounted bytes never
     leave the budget. *)
  let make () =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 8)
      (Helpers.rand_csr ~seed:71 80 80 0.06)
  in
  let clean = make () in
  ignore (S.run ~faults:Fault.disabled clean);
  let expected = Helpers.snapshot clean in
  let p = make () in
  let probe = Cache.create () in
  ignore (S.Context.run (S.Context.create ~shared_cache:probe (make ())));
  let budget = 2 * (Cache.stats probe).Cache.bytes in
  let cache = Cache.create ~byte_budget:budget () in
  let ctx = S.Context.create ~shared_cache:cache p in
  let invalidations = ref 0 in
  List.iter
    (fun seed ->
      let faults = Fault.make ~seed ~crash:0.4 ~retries:50 () in
      let r = S.Context.run ~faults ~iterations:4 ctx in
      Alcotest.(check (option string)) "soak run completes" None r.S.dnc;
      Alcotest.(check bool)
        "outputs bit-identical under crashes" true
        (Helpers.snapshot p = expected);
      let st = Cache.stats cache in
      invalidations := st.Cache.invalidations;
      Alcotest.(check bool) "bytes under budget" true (st.Cache.bytes <= budget);
      Alcotest.(check bool) "peak under budget" true
        (st.Cache.bytes_peak <= budget))
    (List.init 12 (fun i -> i + 1));
  Alcotest.(check bool)
    "crashes kept invalidating across the soak" true (!invalidations >= 3)

(* ------------------------------------------------------------------ *)
(* Shared caches: plans hold structure, data binds at launch           *)
(* ------------------------------------------------------------------ *)

(* [tensor] scaled by [k] in place: a fresh tensor with the same pattern
   as every other call's and different stored values. *)
let scaled k (t : Spdistal_formats.Tensor.t) =
  let vals = t.Spdistal_formats.Tensor.vals in
  for i = 0 to Region.F.extent vals - 1 do
    Region.F.set vals i (k *. Region.F.get vals i)
  done;
  t

let aliasing_kernels =
  [
    ( "spmv (csr fast path)",
      fun k ->
        Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
          (scaled k (Helpers.rand_csr ~seed:91 40 40 0.1)) );
    ( "spadd3 (merge vals)",
      fun k ->
        Core.Kernels.spadd3_problem ~machine:(Helpers.cpu_machine 2)
          (scaled k (Helpers.rand_csr ~seed:92 40 40 0.1)) );
    ( "mttkrp over csf (fiber path)",
      fun k ->
        Core.Kernels.mttkrp_problem ~machine:(Helpers.cpu_machine 2) ~cols:4
          (scaled k (Helpers.rand_csf ~seed:93 12 10 8 0.1)) );
  ]

(* Two contexts share one cache; their problems have the same pattern and
   different values, so the second one hits the first one's entry.  Each
   output must equal its own standalone run bit for bit, and the first
   output must survive the second run untouched. *)
let test_shared_cache_no_aliasing () =
  List.iter
    (fun leaf_backend ->
      let bname = Compile_leaf.backend_name leaf_backend in
      List.iter
        (fun (name, make) ->
          let what s = Printf.sprintf "%s [%s]: %s" name bname s in
          let run ctx =
            let r = S.Context.run ~leaf_backend ctx in
            Alcotest.(check (option string)) (what "completes") None r.S.dnc;
            statuses r
          in
          let standalone k =
            let p = make k in
            ignore (run (S.Context.create p));
            Helpers.snapshot p
          in
          let cache = Cache.create () in
          let p1 = make 1. and p2 = make 2. in
          ignore (run (S.Context.create ~shared_cache:cache p1));
          let out1 = Helpers.snapshot p1 in
          Alcotest.(check bool)
            (what "second context hits the first one's entry")
            true
            (run (S.Context.create ~shared_cache:cache p2) = [ `Hit ]);
          Alcotest.(check bool)
            (what "first output untouched by the second run")
            true
            (Helpers.snapshot p1 = out1);
          Alcotest.(check bool)
            (what "first output equals its standalone run")
            true
            (out1 = standalone 1.);
          Alcotest.(check bool)
            (what "second output equals its standalone run")
            true
            (Helpers.snapshot p2 = standalone 2.))
        aliasing_kernels)
    [ Compile_leaf.Compiled; Compile_leaf.Interp ]

(* A context computes its key once and reuses it while it stays valid;
   these pin when it must not. *)

let csr_b (p : S.problem) = Operand.find_sparse (S.bindings p) "B"

let key_problem () =
  Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
    (Helpers.rand_csr ~seed:94 40 40 0.1)

(* The output of a fresh context over an independent deep copy of [p]'s
   inputs and a pristine output. *)
let fresh_output (p : S.problem) =
  let out = p.S.stmt.Spdistal_ir.Tin.lhs.Spdistal_ir.Tin.tensor in
  let pristine = S.bindings (key_problem ()) in
  let q =
    {
      p with
      S.operands =
        List.map
          (fun (n, (s : Operand.slot), tdn) ->
            let src = if n = out then Operand.find pristine n else s in
            (n, { Operand.data = Operand.copy_data src.Operand.data }, tdn))
          p.S.operands;
    }
  in
  ignore (S.Context.run (S.Context.create q));
  Helpers.snapshot q

let run_status ?leaf_backend ctx =
  let r = S.Context.run ?leaf_backend ctx in
  Alcotest.(check (option string)) "completes" None r.S.dnc;
  statuses r

(* Move one stored column of CSR [b] right, into a gap of its row, through
   [Region.set]: still a valid, sorted pattern, but a different one. *)
let write_pattern (b : Spdistal_formats.Tensor.t) =
  let pos = Spdistal_formats.Tensor.pos_of b 1
  and crd = Spdistal_formats.Tensor.crd_of b 1 in
  let ncols = b.Spdistal_formats.Tensor.dims.(1) in
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

let test_key_pattern_write_misses leaf_backend () =
  let p = key_problem () in
  let ctx = S.Context.create p in
  ignore (run_status ~leaf_backend ctx);
  let before = digest_of p in
  write_pattern (csr_b p);
  Alcotest.(check bool) "the pattern changed" true (digest_of p <> before);
  Alcotest.(check bool)
    "pattern write: miss" true
    (run_status ~leaf_backend ctx = [ `Miss ]);
  Alcotest.(check bool)
    "output equals a fresh context's" true
    (Helpers.snapshot p = fresh_output p)

(* A cached plan walks the launch's own pattern storage.  Writing the
   pattern of the context that built an entry re-keys that context; a
   context still holding the old pattern in its own arrays keeps hitting
   the entry and must still compute from its own pattern. *)
let test_shared_cache_pattern_write () =
  let make k =
    Core.Kernels.spmv_problem ~machine:(Helpers.cpu_machine 2)
      (scaled k (Helpers.rand_csr ~seed:91 40 40 0.1))
  in
  let cache = Cache.create () in
  let p1 = make 1. and p2 = make 2. in
  ignore (run_status (S.Context.create ~shared_cache:cache p1));
  write_pattern (csr_b p1);
  Alcotest.(check bool)
    "the other context hits" true
    (run_status (S.Context.create ~shared_cache:cache p2) = [ `Hit ]);
  let q = make 2. in
  ignore (run_status (S.Context.create q));
  Alcotest.(check bool)
    "its output equals its standalone run" true
    (Helpers.snapshot p2 = Helpers.snapshot q)

let test_key_rebind_misses () =
  let p = key_problem () in
  let ctx = S.Context.create p in
  ignore (run_status ctx);
  (Operand.find (S.bindings p) "B").Operand.data <-
    Operand.Sparse (Helpers.rand_csr ~seed:95 40 40 0.1);
  Alcotest.(check bool) "rebound input: miss" true (run_status ctx = [ `Miss ]);
  Alcotest.(check bool)
    "output equals a fresh context's" true
    (Helpers.snapshot p = fresh_output p)

let test_key_value_edit_hits () =
  let p = key_problem () in
  let ctx = S.Context.create p in
  ignore (run_status ctx);
  let out0 = Helpers.snapshot p in
  ignore (scaled 3. (csr_b p));
  Alcotest.(check bool) "value edit: hit" true (run_status ctx = [ `Hit ]);
  Alcotest.(check bool) "output moved" true (Helpers.snapshot p <> out0);
  Alcotest.(check bool)
    "output reflects the new values" true
    (Helpers.snapshot p = fresh_output p)

let test_key_reuse_hits () =
  let p = key_problem () in
  let cache = Cache.create () in
  let ctx = S.Context.create ~shared_cache:cache p in
  let n = 5 in
  let st = List.concat (List.init n (fun _ -> run_status ctx)) in
  Alcotest.(check bool)
    "one miss, then hits" true
    (st = `Miss :: List.init (n - 1) (fun _ -> `Hit));
  let s = Cache.stats cache in
  Alcotest.(check int) "N-1 hits" (n - 1) s.Cache.hits;
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check bool)
    "the entry lives under the problem's digest" true
    (Cache.find cache (digest_of p) <> None)

let suite =
  [
    Alcotest.test_case "amortization: miss then hits" `Quick test_amortization;
    Alcotest.test_case "--no-cache re-pays every iteration" `Quick
      test_no_cache_repays_every_iteration;
    Alcotest.test_case "legacy protocol unchanged" `Quick
      test_legacy_protocol_unchanged;
    Alcotest.test_case "bit-identity at 10% fault rate" `Quick
      test_bit_identity_under_faults;
    prop_bit_identity;
    Alcotest.test_case "digest injective on a corpus" `Quick
      test_digest_injective;
    Alcotest.test_case "digest ignores stored values" `Quick
      test_digest_ignores_values;
    Alcotest.test_case "digest sees every machine param" `Quick
      test_digest_sees_machine_params;
    Alcotest.test_case "digest strings pinned" `Quick test_digest_pinned;
    Alcotest.test_case "crash invalidates the entry" `Quick
      test_crash_invalidates;
    Alcotest.test_case "context reuse: all hits" `Quick
      test_context_reuse_all_hits;
    Alcotest.test_case "true LRU: hits refresh recency" `Quick test_lru_recency;
    Alcotest.test_case "byte budget evicts" `Quick test_byte_budget_evicts;
    Alcotest.test_case "crash soak stays under budget" `Quick
      test_crash_soak_under_budget;
    Alcotest.test_case "shared cache: no aliasing across contexts" `Quick
      test_shared_cache_no_aliasing;
    Alcotest.test_case "shared cache: pattern write in the builder" `Quick
      test_shared_cache_pattern_write;
    Alcotest.test_case "key: pattern write misses" `Quick
      (test_key_pattern_write_misses Compile_leaf.Compiled);
    Alcotest.test_case "key: pattern write misses (interp leaves)" `Quick
      (test_key_pattern_write_misses Compile_leaf.Interp);
    Alcotest.test_case "key: rebound input misses" `Quick
      test_key_rebind_misses;
    Alcotest.test_case "key: value edit hits" `Quick test_key_value_edit_hits;
    Alcotest.test_case "key: reuse hits under the digest" `Quick
      test_key_reuse_hits;
  ]
