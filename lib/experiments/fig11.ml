open Spdistal_runtime

let gpu_counts = function
  | Runner.Spmv -> [ 1; 2; 4; 8 ]
  | _ -> [ 1; 2; 4; 8; 16; 32 ]

let kernels = [ Runner.Spmv; Runner.Spmm; Runner.Spadd3; Runner.Sddmm ]

let compute ?(quick = false) () =
  let counts kernel = if quick then [ 1; 4 ] else gpu_counts kernel in
  Runner.sweep ~quick Machine.Gpu ~counts kernels

let win_rate cells ~kernel =
  let keys =
    List.sort_uniq compare
      (List.filter_map
         (fun (c : Runner.cell) ->
           if c.kernel = kernel then Some (c.tensor, c.pieces) else None)
         cells)
  in
  let wins =
    List.fold_left
      (fun acc (tensor, gpus) ->
        let group =
          List.filter
            (fun (c : Runner.cell) ->
              c.kernel = kernel && c.tensor = tensor && c.pieces = gpus)
            cells
        in
        let best =
          List.fold_left
            (fun acc (c : Runner.cell) ->
              match (Runner.time c, acc) with
              | Some t, None -> Some (c.system, t)
              | Some t, Some (_, bt) when t < bt -> Some (c.system, t)
              | _ -> acc)
            None group
        in
        match best with
        | Some ((Runner.Spdistal | Runner.Spdistal_batched), _) -> acc + 1
        | _ -> acc)
      0 keys
  in
  (wins, List.length keys)

let print fmt cells =
  Format.fprintf fmt
    "@[<v>=== Figure 11: GPU strong scaling heatmaps (ms per box; DNC = \
     OOM/unsupported) ===@,";
  List.iter
    (fun kernel ->
      let kcells = List.filter (fun (c : Runner.cell) -> c.kernel = kernel) cells in
      if kcells <> [] then begin
        let systems =
          List.sort_uniq compare (List.map (fun (c : Runner.cell) -> c.system) kcells)
        in
        let counts =
          List.sort_uniq compare (List.map (fun (c : Runner.cell) -> c.pieces) kcells)
        in
        let tensors =
          List.sort_uniq compare (List.map (fun (c : Runner.cell) -> c.tensor) kcells)
        in
        Format.fprintf fmt "@,-- %s (systems: %s) --@," (Runner.kernel_name kernel)
          (String.concat " / " (List.map Runner.system_name systems));
        Format.fprintf fmt "%-18s" "tensor \\ GPUs";
        List.iter (fun g -> Format.fprintf fmt " %20d" g) counts;
        Format.fprintf fmt "@,";
        List.iter
          (fun tensor ->
            Format.fprintf fmt "%-18s" tensor;
            List.iter
              (fun gpus ->
                let entries =
                  List.map
                    (fun system ->
                      match
                        List.find_opt
                          (fun (c : Runner.cell) ->
                            c.system = system && c.pieces = gpus && c.tensor = tensor)
                          kcells
                        |> Fun.flip Option.bind Runner.time
                      with
                      | Some t -> Printf.sprintf "%.1f" (t *. 1000.)
                      | None -> "DNC")
                    systems
                in
                Format.fprintf fmt " %20s" (String.concat "/" entries))
              counts;
            Format.fprintf fmt "@,")
          tensors;
        let w, n = win_rate cells ~kernel in
        Format.fprintf fmt "SpDISTAL fastest in %d/%d configurations@," w n
      end)
    kernels;
  Format.fprintf fmt "@]"
