open Spdistal_runtime
open Spdistal_formats
open Spdistal_exec
module K = Core.Kernels
module S = Core.Spdistal

let time problem =
  let res = S.run problem in
  match res.S.dnc with
  | Some r -> Error r
  | None -> Ok (Cost.total res.S.cost)

let pp_time fmt = function
  | Ok t -> Format.fprintf fmt "%10.3f ms" (1000. *. t)
  | Error r -> Format.fprintf fmt "DNC (%s)" r

(* A matrix with half its mass in the first 1/16th of the row space:
   universe partitions cannot balance it. *)
let hub_matrix ~rows ~cols ~nnz =
  let rng = ref 17 in
  let next n =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng mod n
  in
  let entries = ref [] in
  for _ = 1 to nnz do
    let i = if next 2 = 0 then next (rows / 16) else next rows in
    entries := ([| i; next cols |], 1. +. float_of_int (next 5)) :: !entries
  done;
  Tensor.csr ~name:"hub" (Coo.make [| rows; cols |] !entries)

let run_partition fmt () =
  let machine = Runner.cpu_machine ~nodes:16 in
  let skewed = hub_matrix ~rows:20_000 ~cols:20_000 ~nnz:300_000 in
  let uniform =
    Spdistal_workloads.Synth.uniform ~name:"uni" ~rows:20_000 ~cols:20_000
      ~nnz:300_000 ~seed:12
  in
  Format.fprintf fmt
    "@[<v>=== Ablation: universe vs non-zero partitions (SpMV, 16 nodes) ===@,";
  List.iter
    (fun (label, b) ->
      Format.fprintf fmt "%-14s row-based %a   non-zero-based %a@," label
        pp_time (time (K.spmv_problem ~machine b))
        pp_time
        (time (K.spmv_problem ~machine ~schedule:(K.spmv_nnz ()) b)))
    [ ("hub-skewed", skewed); ("uniform", uniform) ];
  Format.fprintf fmt
    "(non-zero split wins on skew, loses its reduction overhead on uniform \
     data)@,@]"

let run_mismatch fmt () =
  let machine = Runner.cpu_machine ~nodes:16 in
  let b =
    Spdistal_workloads.Synth.uniform ~name:"mm" ~rows:20_000 ~cols:20_000
      ~nnz:300_000 ~seed:13
  in
  Format.fprintf fmt
    "@[<v>=== Ablation: matched vs mismatched data distribution (SpMV, 16 \
     nodes) ===@,";
  Format.fprintf fmt "matched   (row data, row compute): %a@," pp_time
    (time (K.spmv_problem ~machine b));
  Format.fprintf fmt "mismatched (nnz data, row compute): %a@," pp_time
    (time
       (S.with_schedule
          (K.spmv_problem ~machine ~schedule:(K.spmv_nnz ()) b)
          ~schedule:(K.spmv_row ()) ~tdns:[]));
  Format.fprintf fmt
    "(the mismatched program is valid but reshapes the data every iteration, \
     paper \xc2\xa7II-D)@,@]"

(* Pairwise addition inside SpDISTAL: two 2-operand merges with an
   assembled intermediate. *)
let pairwise_add machine b c d =
  let open Spdistal_ir in
  let rows = b.Tensor.dims.(0) and cols = b.Tensor.dims.(1) in
  let schedule =
    Schedule.row ~par:Schedule.Cpu_thread ~tensors:[ "A"; "B"; "C" ] "i"
  in
  let stmt = Tin.assign "A" [ "i"; "j" ] Tin.(access "B" [ "i"; "j" ] + access "C" [ "i"; "j" ]) in
  let add b c =
    let empty = Tensor.csr ~name:"A" (Coo.make [| rows; cols |] []) in
    K.matched ~machine
      ~operands:
        [
          ("A", Operand.sparse empty); ("B", Operand.sparse b); ("C", Operand.sparse c);
        ]
      ~stmt ~schedule
  in
  let p1 = add b c in
  match time p1 with
  | Error r -> Error r
  | Ok t1 -> (
      let tmp = Operand.find_sparse (S.bindings p1) "A" in
      Result.map (( +. ) t1) (time (add { tmp with Tensor.name = "T" } d)))

let run_fusion fmt () =
  let machine = Runner.cpu_machine ~nodes:8 in
  let b =
    Spdistal_workloads.Synth.uniform ~name:"fa" ~rows:15_000 ~cols:15_000
      ~nnz:250_000 ~seed:14
  in
  let inputs = K.inputs K.Spadd3 b in
  let shifted = Operand.find_sparse (K.bindings inputs) in
  Format.fprintf fmt "@[<v>=== Ablation: fused vs pairwise SpAdd3 (8 nodes) ===@,";
  Format.fprintf fmt "fused single pass:        %a@," pp_time
    (time (K.problem ~machine inputs));
  Format.fprintf fmt "two pairwise additions:   %a@," pp_time
    (pairwise_add machine b (shifted "C") (shifted "D"));
  Format.fprintf fmt "fused, dense workspace:   %a@," pp_time
    (time (K.problem ~machine ~schedule:(K.spadd3_workspace ()) inputs));
  Format.fprintf fmt
    "(fusion avoids materializing and re-reading the intermediate sum, the \
     mechanism behind the paper's 11.8x/38.5x SpAdd3 gaps)@,@]"

let run_spmm_gpu fmt () =
  let b =
    Spdistal_workloads.Synth.uniform ~name:"sg" ~rows:12_000 ~cols:12_000
      ~nnz:250_000 ~seed:15
  in
  Format.fprintf fmt
    "@[<v>=== Ablation: GPU SpMM load-balanced vs batched across memory \
     pressure ===@,";
  let proc = Spdistal_ir.Schedule.Gpu_thread in
  List.iter
    (fun cols ->
      let m1 = Runner.gpu_machine ~gpus:8 in
      let m2 =
        Machine.make ~params:m1.Machine.params ~kind:Machine.Gpu [| 4; 2 |]
      in
      Format.fprintf fmt "cols=%-3d  load-balanced %a   batched %a@," cols
        pp_time
        (time (K.spmm_problem ~machine:m1 ~cols ~schedule:(K.spmm_nnz ~proc ()) b))
        pp_time
        (time
           (K.spmm_problem ~machine:m2 ~cols ~schedule:(K.spmm_batched ~proc ()) b)))
    [ 8; 32; 128 ];
  Format.fprintf fmt
    "(as the dense width grows the replicated operand stops fitting and the \
     memory-conserving schedule takes over, paper Fig. 11)@,@]"

let run_format fmt () =
  let machine = Runner.cpu_machine ~nodes:8 in
  let coo =
    Tensor.to_coo
      (Spdistal_workloads.Synth.power_law ~name:"fmt" ~rows:15_000 ~cols:15_000
         ~nnz:250_000 ~alpha:1.0 ~seed:16)
  in
  let formats =
    [
      ("CSR (Dense,Compressed)", Tensor.csr ~name:"B" coo);
      ( "DCSR (Compressed,Compressed)",
        Tensor.of_coo ~name:"B"
          ~formats:[| Level.Compressed_k; Level.Compressed_k |]
          coo );
      ("CSC (cols first)", Tensor.csc ~name:"B" coo);
      ("COO (nonunique+singleton)", Tensor.coo_matrix ~name:"B" coo);
    ]
  in
  Format.fprintf fmt
    "@[<v>=== Ablation: format language (row-distributed SpMV, 8 nodes) ===@,";
  List.iter
    (fun (label, b) ->
      (* The same statement, schedule and data distribution; only the
         format declaration changes (paper §II-B). *)
      let n = b.Tensor.dims.(0) and m = b.Tensor.dims.(1) in
      let a = Dense.vec_create "a" n in
      let cvec = Dense.vec_init "c" m (fun i -> 1. +. float_of_int (i mod 7)) in
      let p =
        K.matched ~machine
          ~operands:
            [ ("a", Operand.vec a); ("B", Operand.sparse b); ("c", Operand.vec cvec) ]
          ~stmt:Spdistal_ir.Tin.spmv ~schedule:(K.spmv_row ())
      in
      Format.fprintf fmt "%-30s %a@," label pp_time (time p))
    formats;
  Format.fprintf fmt
    "(one schedule serves every format: the level functions specialize the \
     partitioning code)@,@]"

let run_all fmt () =
  run_partition fmt ();
  Format.fprintf fmt "@.";
  run_mismatch fmt ();
  Format.fprintf fmt "@.";
  run_fusion fmt ();
  Format.fprintf fmt "@.";
  run_spmm_gpu fmt ();
  Format.fprintf fmt "@.";
  run_format fmt ()
