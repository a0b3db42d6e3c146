(** Abstract distributed machines and their performance model.

    A machine is an n-dimensional grid of {e pieces} (paper §II: [Machine
    M(Grid(pieces))]).  For CPU experiments a piece is a whole node (all
    cores, as SpDISTAL runs one rank per node); for GPU experiments a piece is
    a single GPU, grouped [gpus_per_node] to a node.

    The performance parameters stand in for the Lassen supercomputer of the
    paper's evaluation (40-core dual-socket Power9 nodes, 4 NVIDIA V100s per
    node on NVLink 2.0, Infiniband EDR).  Simulated time is derived from these
    parameters; the shapes of the evaluation (who wins, crossovers, OOM
    boundaries) depend only on their ratios, which come from published
    hardware specs. *)

type proc_kind = Cpu | Gpu

type params = {
  cpu_cores : int;  (** cores per node *)
  cpu_mem_bw : float;  (** node aggregate memory bandwidth, B/s *)
  cpu_flops : float;  (** node aggregate double-precision flop/s *)
  node_mem : float;  (** node memory capacity, bytes *)
  gpus_per_node : int;
  gpu_mem_bw : float;  (** per-GPU HBM bandwidth, B/s *)
  gpu_flops : float;  (** per-GPU double-precision flop/s *)
  gpu_mem : float;  (** per-GPU memory capacity, bytes *)
  nvlink_bw : float;  (** intra-node GPU interconnect, B/s *)
  net_bw : float;  (** per-node NIC bandwidth, B/s *)
  net_alpha : float;  (** per-message network latency, s *)
  task_overhead : float;
      (** deferred-execution amortized cost of one distributed launch, s *)
  meta_per_piece : float;
      (** runtime mapping/analysis work per piece per launch, s *)
  barrier_alpha : float;
      (** per-round cost of an explicit synchronization (used by the
          MPI-style baselines; Legion's deferred execution avoids it), s *)
  atomic_penalty_cpu : float;
      (** leaf-time multiplier for reduction atomics under non-zero-split
          parallelization on CPUs (paper §VI-A1) *)
  atomic_penalty_gpu : float;  (** same on GPUs (paper §VI-A2) *)
  uvm_page_bw : float;  (** CUDA-UVM paging bandwidth, B/s (Trilinos) *)
  legion_leaf_efficiency : float;
      (** CPU leaf throughput relative to hand-rolled MPI code (region
          accessor overhead; paper Fig. 13 shows SpDISTAL at 90-92% of PETSc
          on uniform banded matrices) *)
}

(** Lassen-derived default parameters. *)
val lassen : params

(** [scale_params s p] divides every {e rate} (flop/s, bandwidths) and every
    {e capacity} by [s], leaving latencies untouched.  Running a workload
    scaled down [s]x in data volume on a machine scaled [s]x reproduces the
    full-size run's absolute times and memory boundaries exactly — this is
    how the repository's ~5000x-scaled dataset analogs stay faithful to the
    paper's OOM cells and bandwidth/latency tradeoffs. *)
val scale_params : float -> params -> params

type t = {
  grid : int array;  (** machine grid dimensions; pieces = product *)
  kind : proc_kind;
  params : params;
}

(** [make ?params ~kind grid]. Raises [Error.Config] on an empty or
    non-positive grid. *)
val make : ?params:params -> kind:proc_kind -> int array -> t

val pieces : t -> int

(** Node that hosts a piece (identity for CPU machines). *)
val node_of_piece : t -> int -> int

val nodes : t -> int

(** Pieces hosted by a node, in ascending order (the fault domain lost when
    that node crashes). *)
val pieces_on_node : t -> int -> int list

(** {1 Time model} *)

(** Roofline leaf time for one piece: [max (flops/rate) (bytes/bw)]. *)
val compute_time : t -> flops:float -> bytes:float -> float

(** Point-to-point transfer into a piece's memory. [intra_node] transfers ride
    NVLink (GPU) or are free (CPU pieces share node memory). *)
val p2p_time : t -> intra_node:bool -> bytes:float -> float

(** Pipelined binomial broadcast of [bytes] to all pieces. *)
val bcast_time : t -> bytes:float -> float

(** Reduction of [bytes] across all pieces (allreduce-shaped). *)
val reduce_time : t -> bytes:float -> float

(** Per-launch runtime overhead of one distributed index launch. *)
val launch_overhead : t -> float

(** Cost of an explicit barrier/synchronization across pieces. *)
val barrier_time : t -> float

(** Memory capacity of one piece, bytes. *)
val piece_mem : t -> float

val pp : Format.formatter -> t -> unit

(** {1 Host-side simulation parallelism}

    How many OCaml domains the interpreter may use to simulate the pieces
    of one distributed launch concurrently.  This is a property of the
    simulation host, not of the simulated machine: it never changes
    simulated times or numeric results (the interpreter reduces piece
    results in piece order), only wall-clock. *)

(** Process-wide default degree: the last {!set_sim_domains} value, else
    [$SPDISTAL_DOMAINS], else 1 (sequential). *)
val sim_domains : unit -> int

(** Override the process-wide default degree (clamped to >= 1). *)
val set_sim_domains : int -> unit
