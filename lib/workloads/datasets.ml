open Spdistal_formats

(* Nominal: individual analogs range ~3000-9000x; shapes are insensitive to
   the residual because the cost model is linear in non-zeros. *)
let scale = 5000.

type kind = Matrix | Tensor3

type entry = {
  ds_name : string;
  domain : string;
  paper_nnz : float;
  ds_kind : kind;
  structure : string;
  load : unit -> Tensor.t;
}

let cache : (string, Tensor.t) Hashtbl.t = Hashtbl.create 16
let clear_cache () = Hashtbl.reset cache

let memo name f () =
  match Hashtbl.find_opt cache name with
  | Some t -> t
  | None ->
      let t = f () in
      Hashtbl.replace cache name t;
      t

let m ds_name domain paper_nnz structure f =
  { ds_name; domain; paper_nnz; ds_kind = Matrix; structure; load = memo ds_name f }

let t3 ds_name domain paper_nnz structure f =
  { ds_name; domain; paper_nnz; ds_kind = Tensor3; structure; load = memo ds_name f }

(* Matrices: the SuiteSparse group of Table II. *)
let matrices =
  [
    m "arabic-2005" "Web Connectivity" 6.39e8 "power-law (alpha=1.0)" (fun () ->
        Synth.power_law ~name:"arabic-2005" ~rows:10_000 ~cols:10_000
          ~nnz:190_000 ~alpha:1.0 ~seed:1001);
    m "it-2004" "Web Connectivity" 1.15e9 "power-law (alpha=1.1)" (fun () ->
        Synth.power_law ~name:"it-2004" ~rows:12_000 ~cols:12_000 ~nnz:230_000
          ~alpha:1.1 ~seed:1002);
    m "kmer_A2a" "Protein Structure" 3.60e8 "bounded degree 2-4" (fun () ->
        Synth.bounded_degree ~name:"kmer_A2a" ~rows:60_000 ~cols:60_000 ~lo:2
          ~hi:4 ~seed:1003);
    m "kmer_V1r" "Protein Structure" 4.65e8 "bounded degree 2-4" (fun () ->
        Synth.bounded_degree ~name:"kmer_V1r" ~rows:75_000 ~cols:75_000 ~lo:2
          ~hi:4 ~seed:1004);
    m "mycielskian19" "Synthetic" 9.03e8 "uniform heavy rows" (fun () ->
        Synth.dense_rows ~name:"mycielskian19" ~rows:700 ~cols:700 ~row_nnz:280
          ~seed:1005);
    m "nlpkkt240" "PDE's" 7.60e8 "27-point stencil" (fun () ->
        Synth.stencil ~name:"nlpkkt240" ~n:7_000 ~points:27);
    m "sk-2005" "Web Connectivity" 1.94e9 "power-law (alpha=1.2)" (fun () ->
        Synth.power_law ~name:"sk-2005" ~rows:15_000 ~cols:15_000 ~nnz:380_000
          ~alpha:1.2 ~seed:1006);
    m "twitter7" "Social Network" 1.46e9 "power-law (alpha=0.8, hubs)" (fun () ->
        Synth.power_law ~name:"twitter7" ~rows:10_000 ~cols:10_000 ~nnz:290_000
          ~alpha:0.8 ~seed:1007);
    m "uk-2005" "Web Connectivity" 9.36e8 "power-law (alpha=1.0)" (fun () ->
        Synth.power_law ~name:"uk-2005" ~rows:11_000 ~cols:11_000 ~nnz:190_000
          ~alpha:1.0 ~seed:1008);
    m "webbase-2001" "Web Connectivity" 1.01e9 "power-law (alpha=0.9)" (fun () ->
        Synth.power_law ~name:"webbase-2001" ~rows:13_000 ~cols:13_000
          ~nnz:200_000 ~alpha:0.9 ~seed:1009);
  ]

(* 3-tensors: the FROSTT / Freebase group. *)
let tensors3 =
  [
    t3 "freebase_music" "Data Mining" 1.74e9 "skewed slices, dense-ish domain"
      (fun () ->
        Synth.tensor3_skewed ~name:"freebase_music" ~dims:[| 1_400; 1_400; 200 |]
          ~nnz:330_000 ~alpha:1.2 ~seed:2001);
    t3 "freebase_sampled" "Data Mining" 9.95e7
      "hyper-sparse (full Freebase dims, sampled non-zeros)" (fun () ->
        Synth.tensor3_skewed ~name:"freebase_sampled"
          ~dims:[| 6_000; 6_000; 100 |] ~nnz:60_000 ~alpha:1.1 ~seed:2002);
    t3 "nell-2" "NLP" 7.68e7 "moderately dense slices" (fun () ->
        Synth.tensor3_uniform ~name:"nell-2" ~dims:[| 1_200; 900; 300 |]
          ~nnz:55_000 ~seed:2003);
    t3 "patents" "Data Mining" 3.59e9 "dense outer modes (Dense,Dense,Compressed)"
      (fun () ->
        Synth.tensor3_dense_modes ~name:"patents" ~dims:[| 8; 240; 2_400 |]
          ~nnz:600_000 ~seed:2004);
  ]

let all = matrices @ tensors3

let find name =
  match List.find_opt (fun e -> e.ds_name = name) all with
  | Some e -> e
  | None ->
      let open Spdistal_runtime in
      Error.fail Error.Config "unknown dataset %s" name

let pp_table2 fmt () =
  Format.fprintf fmt
    "@[<v>Table II: tensors and matrices (paper originals and scaled analogs)@,";
  Format.fprintf fmt "%-18s %-18s %12s %12s  %s@," "Tensor" "Domain" "paper nnz"
    "analog nnz" "structure class";
  List.iter
    (fun e ->
      let t = e.load () in
      Format.fprintf fmt "%-18s %-18s %12.2e %12d  %s@," e.ds_name e.domain
        e.paper_nnz (Tensor.nnz t) e.structure)
    all;
  Format.fprintf fmt "@]"
