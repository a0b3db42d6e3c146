open Spdistal_runtime

let node_counts = [ 1; 2; 4; 8; 16; 32 ]

let compute ?(quick = false) () =
  let counts = if quick then [ 1; 4 ] else node_counts in
  Runner.sweep ~quick Machine.Cpu ~counts:(fun _ -> counts) Runner.all_kernels

let time_at cells ~kernel ~system ~pieces ~tensor =
  List.find_opt
    (fun (c : Runner.cell) ->
      c.kernel = kernel && c.system = system && c.pieces = pieces
      && c.tensor = tensor)
    cells
  |> Fun.flip Option.bind Runner.time

let geomean = function
  | [] -> None
  | xs ->
      Some (exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs)))

let median = function
  | [] -> None
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      Some (if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.)

let median_speedup cells ~kernel ~vs =
  let ratios =
    List.filter_map
      (fun (c : Runner.cell) ->
        if c.kernel = kernel && c.system = vs then
          match
            ( Runner.time c,
              time_at cells ~kernel ~system:Runner.Spdistal ~pieces:c.pieces
                ~tensor:c.tensor )
          with
          | Some t_other, Some t_spd when t_spd > 0. -> Some (t_other /. t_spd)
          | _ -> None
        else None)
      cells
  in
  median ratios

let print fmt cells =
  let kernels = List.sort_uniq compare (List.map (fun c -> c.Runner.kernel) cells) in
  let nodes_list = List.sort_uniq compare (List.map (fun c -> c.Runner.pieces) cells) in
  Format.fprintf fmt
    "@[<v>=== Figure 10: CPU strong scaling (speedup vs SpDISTAL on 1 node, \
     geomean over tensors) ===@,";
  List.iter
    (fun kernel ->
      Format.fprintf fmt "@,-- %s --@," (Runner.kernel_name kernel);
      Format.fprintf fmt "%-18s" "system \\ nodes";
      List.iter (fun n -> Format.fprintf fmt "%10d" n) nodes_list;
      Format.fprintf fmt "@,";
      let systems =
        List.sort_uniq compare
          (List.filter_map
             (fun c -> if c.Runner.kernel = kernel then Some c.system else None)
             cells)
      in
      List.iter
        (fun system ->
          Format.fprintf fmt "%-18s" (Runner.system_name system);
          List.iter
            (fun nodes ->
              let speedups =
                List.filter_map
                  (fun (c : Runner.cell) ->
                    if c.kernel = kernel && c.system = system && c.pieces = nodes
                    then
                      match
                        ( Runner.time c,
                          time_at cells ~kernel ~system:Runner.Spdistal ~pieces:1
                            ~tensor:c.tensor )
                      with
                      | Some t, Some base when t > 0. -> Some (base /. t)
                      | _ -> None
                    else None)
                  cells
              in
              match geomean speedups with
              | Some g -> Format.fprintf fmt "%10.2f" g
              | None -> Format.fprintf fmt "%10s" "DNC")
            nodes_list;
          (match median_speedup cells ~kernel ~vs:system with
          | Some m when system <> Runner.Spdistal ->
              Format.fprintf fmt "   (SpDISTAL %.1fx median)" m
          | _ -> ());
          Format.fprintf fmt "@,")
        systems)
    kernels;
  Format.fprintf fmt "@]"
