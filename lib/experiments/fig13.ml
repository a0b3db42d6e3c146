open Spdistal_runtime
open Spdistal_workloads

let nnz_per_piece = 35_000
let band = 14

let matrix pieces =
  let n = nnz_per_piece * pieces / band in
  Synth.banded ~name:(Printf.sprintf "banded-%d" pieces) ~n ~band

let compute ?(quick = false) () =
  let cpu_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let gpu_counts = if quick then [ 1; 4 ] else [ 1; 4; 16; 64; 128; 256 ] in
  let run kind pieces =
    let b = matrix pieces in
    let machine =
      match kind with
      | Machine.Cpu -> Runner.cpu_machine ~nodes:pieces
      | Machine.Gpu -> Runner.gpu_machine ~gpus:pieces
    in
    List.map
      (fun system ->
        {
          Runner.kernel = Runner.Spmv;
          system;
          kind;
          pieces;
          tensor = b.Spdistal_formats.Tensor.name;
          result = Runner.run ~kernel:Runner.Spmv ~system ~machine b;
        })
      [ Runner.Spdistal; Runner.Petsc ]
  in
  List.concat_map (run Machine.Cpu) cpu_counts
  @ List.concat_map (run Machine.Gpu) gpu_counts

let print fmt cells =
  Format.fprintf fmt
    "@[<v>=== Figure 13: SpMV weak scaling, banded matrices (%d nnz/piece) \
     ===@,"
    nnz_per_piece;
  List.iter
    (fun kind ->
      let kcells = List.filter (fun (c : Runner.cell) -> c.kind = kind) cells in
      if kcells <> [] then begin
        Format.fprintf fmt "@,-- %s --@,"
          (match kind with Machine.Cpu -> "CPUs (nodes)" | Machine.Gpu -> "GPUs");
        Format.fprintf fmt "%-10s %14s %14s %18s@," "pieces" "SpDISTAL (ms)"
          "PETSc (ms)" "SpDISTAL/PETSc";
        let counts =
          List.sort_uniq compare (List.map (fun (c : Runner.cell) -> c.pieces) kcells)
        in
        List.iter
          (fun pieces ->
            let t sys =
              List.find_opt
                (fun (c : Runner.cell) -> c.pieces = pieces && c.system = sys)
                kcells
              |> Fun.flip Option.bind Runner.time
            in
            match (t Runner.Spdistal, t Runner.Petsc) with
            | Some s, Some p ->
                Format.fprintf fmt "%-10d %14.3f %14.3f %17.2f%%@," pieces
                  (s *. 1000.) (p *. 1000.)
                  (100. *. p /. s)
            | _ -> Format.fprintf fmt "%-10d %14s@," pieces "DNC")
          counts
      end)
    [ Machine.Cpu; Machine.Gpu ];
  Format.fprintf fmt
    "(SpDISTAL/PETSc > 100%% means SpDISTAL is faster; paper: 90-92%% on \
     CPUs, 105-129%% on GPUs)@,@]"
