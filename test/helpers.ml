(* Shared test utilities: deterministic random sparse structures, qcheck
   generators, and comparison helpers. *)

open Spdistal_formats

let rng_state = ref 7

let rand n =
  rng_state := ((!rng_state * 1103515245) + 12345) land 0x3fffffff;
  !rng_state mod n

let reset_rng seed = rng_state := seed

(* Random COO matrix with approximately [density] fill. *)
let rand_coo_matrix ?(seed = 11) rows cols density =
  reset_rng seed;
  let entries = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if rand 1000 < int_of_float (density *. 1000.) then
        entries := ([| i; j |], float_of_int (1 + rand 9)) :: !entries
    done
  done;
  Coo.make [| rows; cols |] !entries

let rand_csr ?seed ?(name = "B") rows cols density =
  Tensor.csr ~name (rand_coo_matrix ?seed rows cols density)

let rand_coo3 ?(seed = 13) d1 d2 d3 density =
  reset_rng seed;
  let entries = ref [] in
  for i = 0 to d1 - 1 do
    for j = 0 to d2 - 1 do
      for k = 0 to d3 - 1 do
        if rand 1000 < int_of_float (density *. 1000.) then
          entries := ([| i; j; k |], float_of_int (1 + rand 9)) :: !entries
      done
    done
  done;
  Coo.make [| d1; d2; d3 |] !entries

let rand_csf ?seed ?(name = "B") d1 d2 d3 density =
  Tensor.of_coo ~name
    ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
    (rand_coo3 ?seed d1 d2 d3 density)

(* qcheck: a small random COO matrix (dims <= 12). *)
let arb_coo_matrix =
  let open QCheck in
  let gen =
    Gen.(
      let* rows = int_range 1 12 in
      let* cols = int_range 1 12 in
      let* n = int_range 0 30 in
      let* entries =
        list_repeat n
          (let* i = int_range 0 (rows - 1) in
           let* j = int_range 0 (cols - 1) in
           let* v = int_range 1 9 in
           Gen.return ([| i; j |], float_of_int v))
      in
      Gen.return (Coo.make [| rows; cols |] entries))
  in
  make ~print:(fun c -> Format.asprintf "%d x %d coo, %d entries" c.Coo.dims.(0) c.Coo.dims.(1) (Coo.nnz c)) gen

let arb_iset =
  let open QCheck in
  let gen =
    Gen.(
      let* n = int_range 0 8 in
      let* ivals =
        list_repeat n
          (let* lo = int_range 0 60 in
           let* len = int_range 0 8 in
           Gen.return (lo, lo + len))
      in
      Gen.return (Spdistal_runtime.Iset.of_intervals ivals))
  in
  make ~print:(Format.asprintf "%a" Spdistal_runtime.Iset.pp) gen

let check_float = Alcotest.(check (float 1e-9))

(* Substring search, for asserting on rendered output. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0
let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Problem-level scaffolding ------------------------------------------
   Shared by the exec / interp / parallel / fault / fuzz suites, which each
   used to carry private copies. *)

let cpu_machine pieces =
  Core.Spdistal.machine ~kind:Spdistal_runtime.Machine.Cpu [| pieces |]

let gpu_machine grid = Core.Spdistal.machine ~kind:Spdistal_runtime.Machine.Gpu grid

(* Run a problem and fail the test on any did-not-complete outcome. *)
let run_ok problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Alcotest.fail r
  | None -> res.Core.Spdistal.cost

(* Bit-exact signatures of a problem's operand storage and of a cost record,
   shared with the fuzzer's invariant checks. *)
let snapshot = Spdistal_fuzz.Snapshot.outputs
let cost_sig = Spdistal_fuzz.Snapshot.cost

(* Run a problem and check the result against the dense reference evaluator;
   returns the simulated total. *)
let run_validated problem =
  let res = Core.Spdistal.run problem in
  match res.Core.Spdistal.dnc with
  | Some r -> Alcotest.fail ("unexpected DNC: " ^ r)
  | None ->
      check_float "matches dense reference" 0.
        (Spdistal_exec.Validate.max_error
           (Core.Spdistal.bindings problem)
           problem.Core.Spdistal.stmt);
      Spdistal_runtime.Cost.total res.Core.Spdistal.cost

(* --- Kernel problem catalogs --------------------------------------------
   The fig10 kernels (plus batched SpMM on a 2x2 GPU grid) over fixed random
   operands: shared by the parallel / fault / cache suites, which each used
   to carry a private copy. *)

let kernel_problems ?(mseed = 71) ?(tseed = 72) ?(cols = 8) ?(batched = true)
    () =
  let matrix = rand_csr ~seed:mseed 80 80 0.06 in
  let tensor = rand_csf ~seed:tseed 24 20 16 0.02 in
  let cpu = cpu_machine 8 in
  let gpu2x2 = gpu_machine [| 2; 2 |] in
  let module K = Core.Kernels in
  [
    ("spmv", fun () -> K.spmv_problem ~machine:cpu matrix);
    ("spmm", fun () -> K.spmm_problem ~machine:cpu ~cols matrix);
    ("spadd3", fun () -> K.spadd3_problem ~machine:cpu matrix);
    ("sddmm", fun () -> K.sddmm_problem ~machine:cpu ~cols matrix);
    ("spttv", fun () -> K.spttv_problem ~machine:cpu tensor);
    ("mttkrp", fun () -> K.mttkrp_problem ~machine:cpu ~cols tensor);
  ]
  @
  if batched then
    [
      ( "spmm-batched",
        fun () -> K.spmm_problem ~machine:gpu2x2 ~cols ~batched:true matrix );
    ]
  else []

(* The nnz-split schedules (deferred-leaf reduction path). *)
let nnz_kernel_problems ?(mseed = 43) ?(tseed = 44) ?(cols = 8) () =
  let matrix = rand_csr ~seed:mseed 80 80 0.06 in
  let tensor = rand_csf ~seed:tseed 24 20 16 0.02 in
  let cpu = cpu_machine 8 in
  let module K = Core.Kernels in
  [
    ( "spmv-nnz",
      fun () -> K.spmv_problem ~machine:cpu ~nonzero_dist:true matrix );
    ( "spttv-nnz",
      fun () -> K.spttv_problem ~machine:cpu ~nonzero_dist:true tensor );
    ( "mttkrp-nnz",
      fun () -> K.mttkrp_problem ~machine:cpu ~cols ~nonzero_dist:true tensor );
  ]

(* --- Traced runs (obs / cache / golden suites) -------------------------- *)

let blocked_tdn = Spdistal_ir.Tdn.Blocked { tensor_dim = 0; machine_dim = 0 }

(* SpMV with a blocked (mis-distributed) input vector, so every piece
   gathers remote columns: exercises the comm spans and the comm matrix. *)
let comm_spmv ?(pieces = 3) ?(seed = 66) () =
  let open Spdistal_exec in
  let b = rand_csr ~seed 30 30 0.4 in
  let a = Dense.vec_create "a" 30 in
  let c = Dense.vec_init "c" 30 float_of_int in
  Core.Spdistal.problem ~machine:(cpu_machine pieces)
    ~operands:
      [
        ("a", Operand.vec a, blocked_tdn);
        ("B", Operand.sparse b, blocked_tdn);
        ("c", Operand.vec c, blocked_tdn);
      ]
    ~stmt:Spdistal_ir.Tin.spmv
    ~schedule:(Core.Kernels.spmv_row ())

let run_traced ?domains ?faults ?iterations ?cache ?leaf_backend problem =
  let trace = Spdistal_obs.Trace.create () in
  let res =
    Core.Spdistal.run ?domains ?faults ?iterations ?cache ?leaf_backend ~trace
      problem
  in
  (res, trace)

let sim_spans trace =
  let module Trace = Spdistal_obs.Trace in
  List.filter (fun sp -> sp.Trace.sp_clock = Trace.Sim) (Trace.spans trace)

let launch_spans trace =
  let module Trace = Spdistal_obs.Trace in
  List.filter
    (fun sp -> sp.Trace.sp_track = Trace.Runtime && sp.Trace.sp_cat = "launch")
    (Trace.spans trace)

(* --- Fault-pair runs ---------------------------------------------------- *)

(* Baseline and faulty runs of one freshly-built problem each; returns
   (result, outputs) per run. *)
let run_pair ?domains ~faults make =
  let base_p = make () in
  let base =
    Core.Spdistal.run ?domains ~faults:Spdistal_runtime.Fault.disabled base_p
  in
  let fault_p = make () in
  let faulty = Core.Spdistal.run ?domains ~faults fault_p in
  ((base, snapshot base_p), (faulty, snapshot fault_p))

(* Fault cost fields, for cross-domain comparison. *)
let fault_sig (c : Spdistal_runtime.Cost.t) =
  let open Spdistal_runtime in
  ( cost_sig c,
    Int64.bits_of_float c.Cost.recovery,
    c.Cost.retries,
    Int64.bits_of_float c.Cost.resent_bytes,
    c.Cost.faults )

(* A CSR pattern [(pos, crd)] one entry off at non-empty row [r]: an extra
   entry at the row's end, its last entry missing, or its first column
   changed (to the next column, mod [ncols]).  Rows after [r] move with
   the entries. *)
let perturb_row kind ~ncols ((pos : (int * int) array), (crd : int array)) r =
  let lo, hi = pos.(r) in
  let n = Array.length crd in
  let shift d =
    Array.mapi
      (fun i (l, h) ->
        if i = r then (l, h + d) else if l > hi then (l + d, h + d) else (l, h))
      pos
  in
  match kind with
  | `Extra ->
      ( shift 1,
        Array.init (n + 1) (fun q ->
            if q <= hi then crd.(q) else if q = hi + 1 then crd.(hi) + 1 else crd.(q - 1)) )
  | `Missing ->
      (shift (-1), Array.init (n - 1) (fun q -> if q < hi then crd.(q) else crd.(q + 1)))
  | `Changed ->
      ( Array.copy pos,
        Array.mapi (fun q c -> if q = lo then (c + 1) mod ncols else c) crd )
