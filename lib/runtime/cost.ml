type t = {
  mutable total : float;
  mutable compute : float;
  mutable comm : float;
  mutable overhead : float;
  mutable bytes_moved : float;
  mutable messages : int;
  mutable launches : int;
  mutable flops : float;
  mutable recovery : float;
  mutable retries : int;
  mutable resent_bytes : float;
  mutable faults : int;
  mutable partitioning : float;
  mutable part_ops : int;
}

let create () =
  {
    total = 0.;
    compute = 0.;
    comm = 0.;
    overhead = 0.;
    bytes_moved = 0.;
    messages = 0;
    launches = 0;
    flops = 0.;
    recovery = 0.;
    retries = 0;
    resent_bytes = 0.;
    faults = 0;
    partitioning = 0.;
    part_ops = 0;
  }

let reset t =
  t.total <- 0.;
  t.compute <- 0.;
  t.comm <- 0.;
  t.overhead <- 0.;
  t.bytes_moved <- 0.;
  t.messages <- 0;
  t.launches <- 0;
  t.flops <- 0.;
  t.recovery <- 0.;
  t.retries <- 0;
  t.resent_bytes <- 0.;
  t.faults <- 0;
  t.partitioning <- 0.;
  t.part_ops <- 0

let copy t = { t with total = t.total }

let diff after before =
  {
    total = after.total -. before.total;
    compute = after.compute -. before.compute;
    comm = after.comm -. before.comm;
    overhead = after.overhead -. before.overhead;
    bytes_moved = after.bytes_moved -. before.bytes_moved;
    messages = after.messages - before.messages;
    launches = after.launches - before.launches;
    flops = after.flops -. before.flops;
    recovery = after.recovery -. before.recovery;
    retries = after.retries - before.retries;
    resent_bytes = after.resent_bytes -. before.resent_bytes;
    faults = after.faults - before.faults;
    partitioning = after.partitioning -. before.partitioning;
    part_ops = after.part_ops - before.part_ops;
  }

let add_compute t dt =
  t.compute <- t.compute +. dt;
  t.total <- t.total +. dt

let add_comm t ?(bytes = 0.) ?(messages = 0) dt =
  t.comm <- t.comm +. dt;
  t.bytes_moved <- t.bytes_moved +. bytes;
  t.messages <- t.messages + messages;
  t.total <- t.total +. dt

let add_overhead t dt =
  t.overhead <- t.overhead +. dt;
  t.total <- t.total +. dt

let add_flops t f = t.flops <- t.flops +. f

(* Dependent-partitioning time: charged by the execution context on a cache
   miss (the cold iteration of a warm-start run); warm iterations reuse the
   cached partitions and skip it entirely, Legion-style. *)
let add_partitioning t ?(ops = 0) dt =
  t.partitioning <- t.partitioning +. dt;
  t.part_ops <- t.part_ops + ops;
  t.total <- t.total +. dt

(* Recovery is book-keeping: the clock impact of fault recovery flows
   through the inflated per-piece times of [record_launch_split] (critical
   path), exactly like [bytes_moved] tracks volume without advancing the
   clock.  [dt] here is the sum of per-piece recovery seconds. *)
let add_recovery t ?(retries = 0) ?(faults = 0) ?(bytes = 0.) ?(messages = 0)
    dt =
  t.recovery <- t.recovery +. dt;
  t.retries <- t.retries + retries;
  t.faults <- t.faults + faults;
  t.resent_bytes <- t.resent_bytes +. bytes;
  t.bytes_moved <- t.bytes_moved +. bytes;
  t.messages <- t.messages + messages

let record_launch_split t ~machine ~comm_times ~leaf_times =
  let critical = ref 0. and leaf_max = ref 0. in
  Array.iteri
    (fun i c ->
      critical := Float.max !critical (c +. leaf_times.(i));
      leaf_max := Float.max !leaf_max leaf_times.(i))
    comm_times;
  t.launches <- t.launches + 1;
  add_compute t !leaf_max;
  add_comm t (Float.max 0. (!critical -. !leaf_max));
  add_overhead t (Machine.launch_overhead machine)

let total t = t.total

let csv_header =
  "total_seconds,compute_seconds,comm_seconds,overhead_seconds,bytes_moved,\
   messages,launches,flops,recovery_seconds,retries,resent_bytes,fault_events,\
   partitioning_seconds,partitioning_ops"

let to_csv_row t =
  Printf.sprintf "%.9f,%.9f,%.9f,%.9f,%.3e,%d,%d,%.3e,%.9f,%d,%.3e,%d,%.9f,%d"
    t.total t.compute t.comm t.overhead t.bytes_moved t.messages t.launches
    t.flops t.recovery t.retries t.resent_bytes t.faults t.partitioning
    t.part_ops

let counters t =
  [
    ("bytes_moved", t.bytes_moved);
    ("messages", float_of_int t.messages);
    ("flops", t.flops);
    ("retries", float_of_int t.retries);
    ("fault_events", float_of_int t.faults);
  ]

let pp fmt t =
  Format.fprintf fmt
    "%.6fs (compute %.6fs, comm %.6fs, overhead %.6fs; %.3e B moved, %d msgs, \
     %d launches, %.3e flops)"
    t.total t.compute t.comm t.overhead t.bytes_moved t.messages t.launches
    t.flops;
  if t.partitioning > 0. then
    Format.fprintf fmt " [partitioning %.6fs, %d dep ops]" t.partitioning
      t.part_ops;
  if t.faults > 0 then
    Format.fprintf fmt
      " [%d faults recovered: %.6fs, %d retries, %.3e B resent]" t.faults
      t.recovery t.retries t.resent_bytes
