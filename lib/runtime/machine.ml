type proc_kind = Cpu | Gpu

type params = {
  cpu_cores : int;
  cpu_mem_bw : float;
  cpu_flops : float;
  node_mem : float;
  gpus_per_node : int;
  gpu_mem_bw : float;
  gpu_flops : float;
  gpu_mem : float;
  nvlink_bw : float;
  net_bw : float;
  net_alpha : float;
  task_overhead : float;
  meta_per_piece : float;
  barrier_alpha : float;
  atomic_penalty_cpu : float;
  atomic_penalty_gpu : float;
  uvm_page_bw : float;
  legion_leaf_efficiency : float;
}

(* Lassen (LLNL): dual-socket Power9 (40 usable cores, ~340 GB/s node memory
   bandwidth, ~1 Tflop/s DP), 4x V100 (900 GB/s HBM2, 7.8 Tflop/s DP, 16 GB)
   on NVLink 2.0 (~75 GB/s), Infiniband EDR (~12.5 GB/s per NIC, ~1.5 us).
   Runtime constants follow the paper's attributions: Legion's deferred
   execution amortizes launch costs; MPI baselines pay per-operation
   synchronization; non-zero-split leaves pay for reduction atomics (cheap on
   GPUs, expensive relative to the scalar loop on CPUs). *)
let lassen =
  {
    cpu_cores = 40;
    cpu_mem_bw = 340e9;
    cpu_flops = 1.0e12;
    node_mem = 256e9;
    gpus_per_node = 4;
    (* Effective sparse-kernel throughput, ~20% of the V100's peak (900 GB/s
       HBM2, 7.8 Tflop/s DP): irregular gathers and reduction atomics keep
       sparse tensor kernels far from peak, and the paper's GPU-vs-CPU
       medians (2.0-2.2x per node on SpTTV/SpMTTKRP, Fig. 12) pin the
       effective ratio against the 40-core Power9 node. *)
    gpu_mem_bw = 170e9;
    gpu_flops = 2.0e12;
    gpu_mem = 16e9;
    nvlink_bw = 75e9;
    net_bw = 12.5e9;
    net_alpha = 1.5e-6;
    task_overhead = 8e-6;
    meta_per_piece = 0.35e-6;
    barrier_alpha = 2.0e-6;
    atomic_penalty_cpu = 1.45;
    atomic_penalty_gpu = 1.06;
    uvm_page_bw = 20e9;
    legion_leaf_efficiency = 0.92;
  }

let scale_params s p =
  {
    p with
    cpu_mem_bw = p.cpu_mem_bw /. s;
    cpu_flops = p.cpu_flops /. s;
    node_mem = p.node_mem /. s;
    gpu_mem_bw = p.gpu_mem_bw /. s;
    gpu_flops = p.gpu_flops /. s;
    gpu_mem = p.gpu_mem /. s;
    nvlink_bw = p.nvlink_bw /. s;
    net_bw = p.net_bw /. s;
    uvm_page_bw = p.uvm_page_bw /. s;
  }

type t = { grid : int array; kind : proc_kind; params : params }

let make ?(params = lassen) ~kind grid =
  if Array.length grid = 0 || Array.exists (fun d -> d <= 0) grid then
    Error.fail Error.Config "machine grid dimensions must be positive";
  { grid; kind; params }

let pieces t = Array.fold_left ( * ) 1 t.grid

let node_of_piece t p =
  match t.kind with Cpu -> p | Gpu -> p / t.params.gpus_per_node

let nodes t =
  match t.kind with
  | Cpu -> pieces t
  | Gpu -> (pieces t + t.params.gpus_per_node - 1) / t.params.gpus_per_node

let pieces_on_node t n =
  List.filter (fun p -> node_of_piece t p = n) (List.init (pieces t) Fun.id)

let compute_time t ~flops ~bytes =
  let rate, bw =
    match t.kind with
    | Cpu -> (t.params.cpu_flops, t.params.cpu_mem_bw)
    | Gpu -> (t.params.gpu_flops, t.params.gpu_mem_bw)
  in
  Float.max (flops /. rate) (bytes /. bw)

let p2p_time t ~intra_node ~bytes =
  if bytes <= 0. then 0.
  else if intra_node then
    match t.kind with
    | Cpu -> 0. (* CPU pieces are whole nodes: intra-node moves are free *)
    | Gpu -> bytes /. t.params.nvlink_bw
  else t.params.net_alpha +. (bytes /. t.params.net_bw)

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) ((n + 1) / 2) in
  go 0 n

let bcast_time t ~bytes =
  let p = pieces t in
  if p <= 1 || bytes <= 0. then 0.
  else
    (* Pipelined binomial tree over the network; intra-node stages for GPU
       machines ride NVLink and are dominated by the network stages. *)
    (float_of_int (log2i (nodes t)) *. t.params.net_alpha)
    +. (bytes /. t.params.net_bw)

let reduce_time t ~bytes =
  let p = pieces t in
  if p <= 1 || bytes <= 0. then 0.
  else
    (float_of_int (log2i (nodes t)) *. t.params.net_alpha)
    +. (2. *. bytes /. t.params.net_bw)

let launch_overhead t =
  t.params.task_overhead +. (float_of_int (pieces t) *. t.params.meta_per_piece)

let barrier_time t =
  float_of_int (log2i (pieces t)) *. t.params.barrier_alpha

let piece_mem t =
  match t.kind with Cpu -> t.params.node_mem | Gpu -> t.params.gpu_mem

(* ------------------------------------------------------------------ *)
(* Host-side simulation parallelism.                                    *)
(*                                                                      *)
(* Orthogonal to the simulated machine spec above: how many OCaml       *)
(* domains the interpreter may use to simulate the pieces of one        *)
(* distributed launch concurrently.  Defaults to sequential; the        *)
(* SPDISTAL_DOMAINS environment variable or an explicit setter (the     *)
(* CLI's --domains) raises it.                                          *)
(* ------------------------------------------------------------------ *)

let domains_env_var = "SPDISTAL_DOMAINS"

let sim_domains_override = ref None

let set_sim_domains n = sim_domains_override := Some (max 1 n)

let sim_domains () =
  match !sim_domains_override with
  | Some n -> n
  | None -> (
      match Sys.getenv_opt domains_env_var with
      | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
      | None -> 1)

let pp fmt t =
  Format.fprintf fmt "%s machine %a (%d pieces)"
    (match t.kind with Cpu -> "CPU" | Gpu -> "GPU")
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "x")
       Format.pp_print_int)
    (Array.to_list t.grid) (pieces t)
