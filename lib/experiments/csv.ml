open Spdistal_runtime

let time_cell = function
  | Some t -> Printf.sprintf "%.9f" t
  | None -> "DNC"

(* A header line, then one line per item. *)
let table header line items =
  let b = Buffer.create 4096 in
  Buffer.add_string b (header ^ "\n");
  List.iter (fun x -> Buffer.add_string b (line x ^ "\n")) items;
  Buffer.contents b

let seconds c = time_cell (Runner.time c)

(* Figs. 10 and 11: one line per cell. *)
let scaling ~pieces =
  table
    ("kernel,system," ^ pieces ^ ",tensor,seconds")
    (fun (c : Runner.cell) ->
      Printf.sprintf "%s,%s,%d,%s,%s"
        (Runner.kernel_name c.kernel)
        (Runner.system_name c.system)
        c.pieces c.tensor (seconds c))

(* One line per box: the GPU cell, then its CPU partner. *)
let fig12 cells =
  table "kernel,nodes,tensor,gpu_seconds,cpu_seconds"
    (fun (g : Runner.cell) ->
      let cpu =
        List.find_opt
          (fun (c : Runner.cell) ->
            c.system = Runner.Spdistal_cpu_leaf && c.kernel = g.kernel
            && c.tensor = g.tensor && c.pieces = g.pieces)
          cells
      in
      Printf.sprintf "%s,%d,%s,%s,%s"
        (Runner.kernel_name g.kernel)
        (Machine.nodes (Runner.gpu_machine ~gpus:g.pieces))
        g.tensor (seconds g)
        (time_cell (Option.bind cpu Runner.time)))
    (List.filter (fun (c : Runner.cell) -> c.system = Runner.Spdistal) cells)

let fig13 =
  table "kind,pieces,system,seconds" (fun (c : Runner.cell) ->
      Printf.sprintf "%s,%d,%s,%s"
        (match c.kind with Machine.Cpu -> "cpu" | Machine.Gpu -> "gpu")
        c.pieces
        (Runner.system_name c.system)
        (seconds c))

type fault_row = {
  f_kernel : string;
  f_rate : float;
  f_seed : int;
  f_seconds : float option;  (** [None] = DNC (recovery exhausted) *)
  f_baseline : float;  (** fault-free simulated seconds *)
  f_cost : Cost.t;  (** the faulted run's full cost record *)
  f_identical : bool;  (** outputs bitwise equal to the fault-free run *)
}

let faults =
  (* The cost columns come verbatim from {!Cost.csv_header} — one source of
     truth for cost serialization. *)
  table
    ("kernel,rate,seed,seconds,baseline_seconds,overhead_pct,outputs_identical,"
   ^ Cost.csv_header)
    (fun r ->
      let overhead =
        match r.f_seconds with
        | Some t when r.f_baseline > 0. ->
            Printf.sprintf "%.3f" (100. *. (t -. r.f_baseline) /. r.f_baseline)
        | _ -> "DNC"
      in
      Printf.sprintf "%s,%.3f,%d,%s,%.9f,%s,%b,%s" r.f_kernel r.f_rate r.f_seed
        (time_cell r.f_seconds) r.f_baseline overhead r.f_identical
        (Cost.to_csv_row r.f_cost))

type amort_row = {
  a_kernel : string;
  a_system : string;
  a_iterations : int;
  a_cached : bool;
  a_seconds : float option;  (** [None] = DNC *)
  a_iter1 : float option;  (** cold first-iteration seconds (SpDISTAL only) *)
  a_warm : float option;  (** mean warm-iteration seconds (SpDISTAL only) *)
  a_hits : int;
  a_misses : int;
}

let amortization =
  table
    "kernel,system,iterations,cached,seconds,iter1_seconds,warm_mean_seconds,cache_hits,cache_misses"
    (fun r ->
      Printf.sprintf "%s,%s,%d,%b,%s,%s,%s,%d,%d" r.a_kernel r.a_system
        r.a_iterations r.a_cached (time_cell r.a_seconds)
        (time_cell r.a_iter1) (time_cell r.a_warm) r.a_hits r.a_misses)

let write_file ~dir name contents =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let write_faults ~dir rows = write_file ~dir "faults.csv" (faults rows)

let write_amortization ~dir rows =
  write_file ~dir "amortization.csv" (amortization rows)

let write_all ~dir ~fig10:c10 ~fig11:c11 ~fig12:c12 ~fig13:c13 =
  [
    write_file ~dir "fig10.csv" (scaling ~pieces:"nodes" c10);
    write_file ~dir "fig11.csv" (scaling ~pieces:"gpus" c11);
    write_file ~dir "fig12.csv" (fig12 c12);
    write_file ~dir "fig13.csv" (fig13 c13);
  ]
