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

(* One cell of a group: its rank (rows are listed by rank), its system
   label and its problem over the group's input set. *)
type member = {
  m_rank : int;
  m_system : string;
  m_problem : Core.Kernels.inputs -> Core.Spdistal.problem;
}

type group = {
  g_kernel : string;
  g_dataset : string;
  g_inputs : unit -> Core.Kernels.inputs;
  g_members : member list;
}

(* The cells, grouped by the input set they read: one group per (kernel,
   dataset) [i] of [n], whose cells run on 4 CPU nodes (fig10, rank [i]),
   on 4 GPUs (fig11/fig12, rank [n + i]) and, for SpMM, on the batched 2-D
   GPU grid (rank [2n + i]); then the fig13 banded synthetic at 4 pieces
   (rank [3n]).  So the rows are system-major, and a group's cells are
   spread over the table. *)
let groups ?quick () =
  let cols = 32 in
  let cpu = Runner.cpu_machine ~nodes:4 and gpu = Runner.gpu_machine ~gpus:4 in
  let keys =
    List.concat_map
      (fun kernel ->
        List.map (fun e -> (kernel, e)) (Runner.datasets_for ?quick kernel))
      Runner.all_kernels
  in
  let n = List.length keys in
  let member m_rank m_system ~machine ?batched () =
    { m_rank; m_system; m_problem = Runner.problem ~machine ?batched }
  in
  List.mapi
    (fun i (kernel, (e : Datasets.entry)) ->
      {
        g_kernel = Runner.kernel_name kernel;
        g_dataset = e.Datasets.ds_name;
        g_inputs = (fun () -> Core.Kernels.inputs kernel ~cols (e.Datasets.load ()));
        g_members =
          member i "cpu" ~machine:cpu ()
          :: member (n + i) "gpu" ~machine:gpu ()
          ::
          (* The memory-conserving 2-D batched SpMM (Runner.problem
             re-grids). *)
          (if kernel = Runner.Spmm then
             [ member ((2 * n) + i) "gpu-2d" ~machine:gpu ~batched:true () ]
           else []);
      })
    keys
  @ [
      {
        g_kernel = "SpMV";
        g_dataset = "banded-4";
        g_inputs = (fun () -> Core.Kernels.inputs Runner.Spmv ~cols (Fig13.matrix 4));
        g_members = [ member (3 * n) "cpu" ~machine:cpu () ];
      };
    ]

let in_rank_order ranked =
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) ranked)

let cells ?quick () =
  List.concat_map
    (fun g ->
      let inputs = lazy (g.g_inputs ()) in
      List.map
        (fun m ->
          ( m.m_rank,
            {
              c_kernel = g.g_kernel;
              c_dataset = g.g_dataset;
              c_system = m.m_system;
              c_problem = (fun () -> m.m_problem (Lazy.force inputs));
            } ))
        g.g_members)
    (groups ?quick ())
  |> in_rank_order

(* Group by group, so one input set is live at a time. *)
let compute ?quick () =
  List.concat_map
    (fun g ->
      let inputs = g.g_inputs () in
      List.map
        (fun m ->
          let p = m.m_problem inputs in
          ( m.m_rank,
            row_of ~kernel:g.g_kernel ~dataset:g.g_dataset ~system:m.m_system
              ~pieces:(Machine.pieces p.Core.Spdistal.machine) p ))
        g.g_members)
    (groups ?quick ())
  |> in_rank_order

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
