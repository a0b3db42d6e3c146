(* The auto-scheduler tournament: every evaluation kernel (the fig10 CPU
   sweep, the fig11/fig12 GPU kernels, the batched 2-D SpMM and the fig13
   banded synthetic) priced three ways — the naive strawman, the paper's
   hand schedule, and the auto-scheduler's pick — without executing leaves.
   The CI ratchet holds the worst auto/hand ratio under the floor in
   bench/auto_ratio_floor.txt. *)

open Spdistal_runtime
open Spdistal_workloads
open Spdistal_opt

type row = {
  t_kernel : string;
  t_dataset : string;
  t_system : string;  (* "cpu" | "gpu" | "gpu-2d" *)
  t_pieces : int;
  t_naive : float option;
  t_hand : float option;
  t_auto : float option;
  t_winner : string;  (* winning candidate label; "DNC" when nothing priced *)
}

let ratio r =
  match (r.t_auto, r.t_hand) with
  | Some a, Some h when h > 0. -> Some (a /. h)
  | _ -> None

let price_of = function Ok pr -> Some (Price.total pr) | Error _ -> None

let row_of ~kernel ~dataset ~system ~pieces problem =
  let rp = Auto.report problem in
  let hand =
    List.find_opt (fun v -> v.Auto.v_label = "hand") rp.Auto.rp_verdicts
  in
  {
    t_kernel = kernel;
    t_dataset = dataset;
    t_system = system;
    t_pieces = pieces;
    t_naive = price_of rp.Auto.rp_naive;
    t_hand = Option.bind hand (fun v -> price_of v.Auto.v_priced);
    t_auto = Option.map (fun (_, pr) -> Price.total pr) rp.Auto.rp_winner;
    t_winner =
      (match rp.Auto.rp_winner with
      | Some (c, _) -> c.Search.c_label
      | None -> "DNC");
  }

type cell = {
  c_kernel : string;
  c_dataset : string;
  c_system : string;
  c_problem : unit -> Core.Spdistal.problem;
}

let cells ?quick () =
  let cols = 32 in
  let cell ~kernel ~system ~machine ?(batched = false) (e : Datasets.entry) =
    {
      c_kernel = Runner.kernel_name kernel;
      c_dataset = e.Datasets.ds_name;
      c_system = system;
      c_problem =
        (fun () ->
          Runner.problem_for ~kernel ~machine ~cols ~batched (e.Datasets.load ()));
    }
  in
  let on ~system ~machine kernel =
    List.map (cell ~kernel ~system ~machine) (Runner.datasets_for ?quick kernel)
  in
  (* fig10: the CPU sweep at 4 nodes. *)
  let cpu = Runner.cpu_machine ~nodes:4 in
  List.concat_map (on ~system:"cpu" ~machine:cpu) Runner.all_kernels
  (* fig11/fig12: the GPU kernels at 4 GPUs. *)
  @ (let gpu = Runner.gpu_machine ~gpus:4 in
     List.concat_map (on ~system:"gpu" ~machine:gpu) Runner.all_kernels
     (* The memory-conserving 2-D batched SpMM (problem_for re-grids). *)
     @ List.map
         (cell ~kernel:Runner.Spmm ~system:"gpu-2d" ~machine:gpu ~batched:true)
         (Runner.datasets_for ?quick Runner.Spmm))
  (* fig13: the banded weak-scaling synthetic at 4 pieces. *)
  @ [
      {
        c_kernel = "SpMV";
        c_dataset = "banded-4";
        c_system = "cpu";
        c_problem =
          (fun () ->
            Runner.problem_for ~kernel:Runner.Spmv
              ~machine:(Runner.cpu_machine ~nodes:4) ~cols (Fig13.matrix 4));
      };
    ]

let compute ?quick () =
  List.map
    (fun c ->
      let p = c.c_problem () in
      row_of ~kernel:c.c_kernel ~dataset:c.c_dataset ~system:c.c_system
        ~pieces:(Machine.pieces p.Core.Spdistal.machine) p)
    (cells ?quick ())

let max_ratio rows =
  List.fold_left
    (fun acc r ->
      match (ratio r, acc) with
      | Some x, Some m -> Some (Float.max x m)
      | Some x, None -> Some x
      | None, _ -> acc)
    None rows

(* Every row where the auto pick fails to strictly beat the naive strawman
   (the acceptance bar of the search) — candidates the ratchet and tests
   inspect.  An auto DNC fails when the hand or naive schedule completes; a
   naive DNC that auto completes is a win; a cell where nothing completes
   is listed by [print] and not counted. *)
let regressions rows =
  List.filter
    (fun r ->
      match (r.t_auto, r.t_naive) with
      | Some a, Some n -> a >= n
      | Some _, None -> false
      | None, n -> Option.is_some n || Option.is_some r.t_hand)
    rows

let all_dnc r =
  Option.is_none r.t_naive && Option.is_none r.t_hand && Option.is_none r.t_auto

let ratio_cell r =
  match ratio r with Some x -> Printf.sprintf "%.4f" x | None -> "DNC"

let write ~dir rows =
  Csv.write_file ~dir "auto.csv"
    (Csv.table
       "kernel,dataset,system,pieces,naive_total,hand_total,auto_total,auto_vs_hand,winner"
       (fun r ->
         Printf.sprintf "%s,%s,%s,%d,%s,%s,%s,%s,%s" r.t_kernel r.t_dataset
           r.t_system r.t_pieces (Csv.time_cell r.t_naive)
           (Csv.time_cell r.t_hand) (Csv.time_cell r.t_auto) (ratio_cell r)
           r.t_winner)
       rows)

let print fmt rows =
  Format.fprintf fmt
    "@[<v>=== Auto-scheduler tournament (priced seconds, lower is better) \
     ===@,";
  Format.fprintf fmt "%-10s %-14s %-7s %6s %14s %14s %14s %8s  %s@," "kernel"
    "dataset" "system" "pieces" "naive" "hand" "auto" "auto/h" "winner";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s %-14s %-7s %6d %14s %14s %14s %8s  %s@,"
        r.t_kernel r.t_dataset r.t_system r.t_pieces (Csv.time_cell r.t_naive)
        (Csv.time_cell r.t_hand) (Csv.time_cell r.t_auto) (ratio_cell r)
        r.t_winner)
    rows;
  (match max_ratio rows with
  | Some m -> Format.fprintf fmt "@,max auto/hand ratio: %.4f@," m
  | None -> ());
  List.iter
    (fun r ->
      Format.fprintf fmt "every schedule DNC (not counted): %s/%s/%s@,"
        r.t_kernel r.t_dataset r.t_system)
    (List.filter all_dnc rows);
  Format.fprintf fmt "@]"
