open Spdistal_runtime

let node_counts = [ 1; 2; 4; 8; 16 ]
let kernels = [ Runner.Spttv; Runner.Mttkrp ]

(* For these kernels [Runner.systems_for _ Gpu] is SpDISTAL's GPU kernel and
   its CPU kernel on the same nodes: one pair per box. *)
let compute ?(quick = false) () =
  let nodes = if quick then [ 1; 4 ] else node_counts in
  Runner.sweep ~quick Machine.Gpu
    ~counts:(fun _ -> List.map (fun n -> 4 * n) nodes)
    kernels

let nodes gpus = Machine.nodes (Runner.gpu_machine ~gpus)

let print fmt cells =
  Format.fprintf fmt
    "@[<v>=== Figure 12: SpDISTAL GPU vs CPU kernels (speedup of the faster \
     system per box) ===@,";
  List.iter
    (fun kernel ->
      let kcells = List.filter (fun (c : Runner.cell) -> c.kernel = kernel) cells in
      if kcells <> [] then begin
        let counts =
          List.sort_uniq compare (List.map (fun c -> c.Runner.pieces) kcells)
        in
        let tensors =
          List.sort_uniq compare (List.map (fun (c : Runner.cell) -> c.tensor) kcells)
        in
        Format.fprintf fmt "@,-- %s --@," (Runner.kernel_name kernel);
        Format.fprintf fmt "%-18s" "tensor \\ nodes";
        List.iter (fun g -> Format.fprintf fmt " %12d" (nodes g)) counts;
        Format.fprintf fmt "@,";
        List.iter
          (fun tensor ->
            Format.fprintf fmt "%-18s" tensor;
            List.iter
              (fun gpus ->
                let time system =
                  List.find_opt
                    (fun (c : Runner.cell) ->
                      c.system = system && c.tensor = tensor && c.pieces = gpus)
                    kcells
                  |> Fun.flip Option.bind Runner.time
                in
                match (time Runner.Spdistal, time Runner.Spdistal_cpu_leaf) with
                | Some g, Some c ->
                    if g <= c then Format.fprintf fmt " %9.2fxGPU" (c /. g)
                    else Format.fprintf fmt " %9.2fxCPU" (g /. c)
                | None, Some _ -> Format.fprintf fmt " %12s" "GPU-DNC"
                | Some _, None -> Format.fprintf fmt " %12s" "CPU-DNC"
                | None, None -> Format.fprintf fmt " %12s" "DNC")
              counts;
            Format.fprintf fmt "@,")
          tensors;
        match Fig10.median_speedup cells ~kernel ~vs:Runner.Spdistal_cpu_leaf with
        | Some m -> Format.fprintf fmt "median GPU speedup: %.2fx@," m
        | None -> ()
      end)
    kernels;
  Format.fprintf fmt "@]"
