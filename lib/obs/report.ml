type launch = {
  l_ix : int;
  l_name : string;
  l_start : float;
  l_dur : float;
  l_crit_piece : int;
  l_comm : float;
  l_compute : float;
  l_overhead : float;
  l_bytes : float;
  l_msgs : int;
  l_piece_max : float;
  l_piece_mean : float;
  l_p50 : float;
  l_p99 : float;
}

type node_util = {
  n_node : int;
  n_slots : int;
  n_comm : float;
  n_compute : float;
}

type iter_row = {
  ir_index : int;
  ir_cache : string;  (** "hit" | "miss" | "bypass" *)
  ir_start : float;
  ir_dur : float;
  ir_partition : float;
}

type t = {
  r_total : float;
  r_launches : launch list;
  r_nodes : node_util list;
  r_comm : float array array;
  r_imbalance : float;
  r_iterations : iter_row list;
  r_cache_hits : int;
  r_cache_misses : int;
  r_cache_invalidations : int;
  r_host_wall : float;
  r_host_busy : (int * float) list;
  r_meta : (string * string) list;
}

let arg_i args k =
  match List.assoc_opt k args with Some (Trace.I i) -> i | _ -> -1

let arg_f args k =
  match List.assoc_opt k args with
  | Some (Trace.F f) -> f
  | Some (Trace.I i) -> float_of_int i
  | _ -> 0.

let arg_s args k =
  match List.assoc_opt k args with Some (Trace.S s) -> s | _ -> ""

(* Interpolated percentile of an unsorted sample ([p] in [0, 100]). *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let r = p /. 100. *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor r) in
      let hi = min (n - 1) (lo + 1) in
      let frac = r -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let of_trace tr =
  let spans = Trace.spans tr in
  (* Per-piece simulated busy time, and per-(launch, piece) totals. *)
  let piece_busy = Hashtbl.create 64 in
  (* (node, piece) -> (comm, compute) *)
  let launch_pieces = Hashtbl.create 64 in
  (* launch ix -> piece total list (reversed) *)
  let host_busy = Hashtbl.create 8 in
  let host_lo = ref Float.infinity and host_hi = ref Float.neg_infinity in
  List.iter
    (fun (sp : Trace.span) ->
      match sp.Trace.sp_track with
      | Trace.Piece { node; piece } when sp.Trace.sp_clock = Trace.Sim ->
          let c0, l0 =
            Option.value ~default:(0., 0.)
              (Hashtbl.find_opt piece_busy (node, piece))
          in
          (match sp.Trace.sp_cat with
          | "comm" -> Hashtbl.replace piece_busy (node, piece) (c0 +. sp.Trace.sp_dur, l0)
          | "compute" ->
              Hashtbl.replace piece_busy (node, piece) (c0, l0 +. sp.Trace.sp_dur)
          | _ -> ());
          if sp.Trace.sp_cat = "comm" || sp.Trace.sp_cat = "compute" then begin
            let ix = arg_i sp.Trace.sp_args "launch" in
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt launch_pieces ix)
            in
            (* comm and compute spans of one piece are adjacent: fold the
               pair into one total by accumulating per (launch, piece). *)
            let cur =
              match cur with
              | (p, t) :: rest when p = piece -> (p, t +. sp.Trace.sp_dur) :: rest
              | rest -> (piece, sp.Trace.sp_dur) :: rest
            in
            Hashtbl.replace launch_pieces ix cur
          end
      | Trace.Host d ->
          let b = Option.value ~default:0. (Hashtbl.find_opt host_busy d) in
          if sp.Trace.sp_cat = "pool" then Hashtbl.replace host_busy d (b +. sp.Trace.sp_dur);
          host_lo := Float.min !host_lo sp.Trace.sp_start;
          host_hi := Float.max !host_hi (sp.Trace.sp_start +. sp.Trace.sp_dur)
      | _ -> ())
    spans;
  let launches =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.Trace.sp_track <> Trace.Runtime || sp.Trace.sp_cat <> "launch" then None
        else begin
          let ix = arg_i sp.Trace.sp_args "launch" in
          let totals =
            List.rev_map snd
              (Option.value ~default:[] (Hashtbl.find_opt launch_pieces ix))
          in
          let pmax = List.fold_left Float.max 0. totals in
          let mean =
            match totals with
            | [] -> 0.
            | _ ->
                List.fold_left ( +. ) 0. totals /. float_of_int (List.length totals)
          in
          Some
            {
              l_ix = ix;
              l_name = sp.Trace.sp_name;
              l_start = sp.Trace.sp_start;
              l_dur = sp.Trace.sp_dur;
              l_crit_piece = arg_i sp.Trace.sp_args "crit_piece";
              l_comm = arg_f sp.Trace.sp_args "crit_comm";
              l_compute = arg_f sp.Trace.sp_args "crit_compute";
              l_overhead = arg_f sp.Trace.sp_args "overhead";
              l_bytes = arg_f sp.Trace.sp_args "bytes";
              l_msgs = (match arg_i sp.Trace.sp_args "messages" with -1 -> 0 | m -> m);
              l_piece_max = pmax;
              l_piece_mean = mean;
              l_p50 = percentile 50. totals;
              l_p99 = percentile 99. totals;
            }
        end)
      spans
  in
  let total =
    List.fold_left (fun acc l -> Float.max acc (l.l_start +. l.l_dur)) 0. launches
  in
  let nodes =
    let per_node = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (node, _) (c, l) ->
        let slots, c0, l0 =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt per_node node)
        in
        Hashtbl.replace per_node node (slots + 1, c0 +. c, l0 +. l))
      piece_busy;
    Hashtbl.fold
      (fun node (slots, c, l) acc ->
        { n_node = node; n_slots = slots; n_comm = c; n_compute = l } :: acc)
      per_node []
    |> List.sort (fun a b -> compare a.n_node b.n_node)
  in
  let imbalance =
    List.fold_left
      (fun acc l ->
        if l.l_piece_mean > 0. then Float.max acc (l.l_piece_max /. l.l_piece_mean)
        else acc)
      1. launches
  in
  (* Warm-start runs: one "iteration" span per iteration and zero-duration
     "cache" instants (hit/miss/invalidate), all on the runtime spine. *)
  let iterations =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.Trace.sp_track = Trace.Runtime && sp.Trace.sp_cat = "iteration"
        then
          Some
            {
              ir_index = arg_i sp.Trace.sp_args "iteration";
              ir_cache = arg_s sp.Trace.sp_args "cache";
              ir_start = sp.Trace.sp_start;
              ir_dur = sp.Trace.sp_dur;
              ir_partition = arg_f sp.Trace.sp_args "partition_seconds";
            }
        else None)
      spans
    |> List.sort (fun a b -> compare a.ir_index b.ir_index)
  in
  let cache_count name =
    List.length
      (List.filter
         (fun (sp : Trace.span) ->
           sp.Trace.sp_cat = "cache" && sp.Trace.sp_name = name)
         spans)
  in
  {
    r_total = total;
    r_launches = launches;
    r_nodes = nodes;
    r_comm = Trace.comm_matrix tr;
    r_imbalance = imbalance;
    r_iterations = iterations;
    r_cache_hits = cache_count "cache_hit";
    r_cache_misses = cache_count "cache_miss";
    r_cache_invalidations = cache_count "cache_invalidate";
    r_host_wall = (if !host_hi > !host_lo then !host_hi -. !host_lo else 0.);
    r_host_busy =
      Hashtbl.fold (fun d b acc -> (d, b) :: acc) host_busy []
      |> List.sort compare;
    r_meta = Trace.meta tr;
  }

let utilization t n =
  if t.r_total <= 0. || n.n_slots = 0 then 0.
  else (n.n_comm +. n.n_compute) /. (float_of_int n.n_slots *. t.r_total)

let si_bytes b =
  if b >= 1e9 then Printf.sprintf "%.2f GB" (b /. 1e9)
  else if b >= 1e6 then Printf.sprintf "%.2f MB" (b /. 1e6)
  else if b >= 1e3 then Printf.sprintf "%.2f kB" (b /. 1e3)
  else Printf.sprintf "%.0f B" b

let pp fmt t =
  let open Format in
  (match List.assoc_opt "kernel" t.r_meta with
  | Some k -> fprintf fmt "=== profile: %s ===@\n" k
  | None -> fprintf fmt "=== profile ===@\n");
  List.iter
    (fun (k, v) -> if k <> "kernel" then fprintf fmt "%s: %s@\n" k v)
    t.r_meta;
  fprintf fmt "simulated total: %.6fs over %d launch(es)@\n" t.r_total
    (List.length t.r_launches);
  if t.r_iterations <> [] then begin
    fprintf fmt
      "@\namortization by iteration (cache: %d hit(s), %d miss(es), %d \
       invalidation(s)):@\n"
      t.r_cache_hits t.r_cache_misses t.r_cache_invalidations;
    fprintf fmt "  %4s %-7s %12s %14s %14s@\n" "#" "cache" "total(s)"
      "partition(s)" "launches(s)";
    List.iter
      (fun ir ->
        fprintf fmt "  %4d %-7s %12.6f %14.6f %14.6f@\n" ir.ir_index
          ir.ir_cache ir.ir_dur ir.ir_partition
          (ir.ir_dur -. ir.ir_partition))
      t.r_iterations
  end;
  fprintf fmt "@\ncritical path by launch:@\n";
  fprintf fmt
    "  %3s %-14s %10s %10s %10s %10s %5s %10s %8s %10s %10s@\n" "#" "kernel"
    "start(s)" "crit(s)" "comm(s)" "compute(s)" "piece" "overhead" "max/mean"
    "p50(s)" "p99(s)";
  List.iter
    (fun l ->
      fprintf fmt
        "  %3d %-14s %10.6f %10.6f %10.6f %10.6f %5d %10.2e %8.2f %10.6f %10.6f@\n"
        l.l_ix l.l_name l.l_start l.l_dur l.l_comm l.l_compute l.l_crit_piece
        l.l_overhead
        (if l.l_piece_mean > 0. then l.l_piece_max /. l.l_piece_mean else 1.)
        l.l_p50 l.l_p99)
    t.r_launches;
  fprintf fmt "@\nnode utilization (busy / slots x total):@\n";
  List.iter
    (fun n ->
      fprintf fmt
        "  node %2d: %5.1f%% busy  (comm %.6fs, compute %.6fs, %d piece slot(s))@\n"
        n.n_node
        (100. *. utilization t n)
        n.n_comm n.n_compute n.n_slots)
    t.r_nodes;
  let nn = Array.length t.r_comm in
  if nn > 0 then begin
    fprintf fmt "@\ncommunication matrix (bytes, src row -> dst column):@\n";
    fprintf fmt "  %8s" "";
    for d = 0 to nn - 1 do
      fprintf fmt " %10s" (Printf.sprintf "n%d" d)
    done;
    fprintf fmt "@\n";
    Array.iteri
      (fun s row ->
        fprintf fmt "  %8s" (Printf.sprintf "n%d" s);
        Array.iter (fun b -> fprintf fmt " %10s" (if b = 0. then "." else si_bytes b)) row;
        fprintf fmt "@\n")
      t.r_comm
  end;
  fprintf fmt "@\npiece-time imbalance (worst launch, max/mean): %.2fx@\n" t.r_imbalance;
  if t.r_host_wall > 0. then begin
    fprintf fmt "host: %.3fs wall inside instrumented phases@\n" t.r_host_wall;
    List.iter
      (fun (d, b) ->
        fprintf fmt "  domain %d: %.3fs busy simulating pieces (%.1f%% of wall)@\n"
          d b
          (100. *. b /. t.r_host_wall))
      t.r_host_busy
  end

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "launch,kernel,sim_start_seconds,duration_seconds,crit_comm_seconds,crit_compute_seconds,overhead_seconds,crit_piece,bytes,messages,piece_max_seconds,piece_mean_seconds,piece_p50_seconds,piece_p99_seconds\n";
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "%d,%s,%.9f,%.9f,%.9f,%.9f,%.9f,%d,%.3e,%d,%.9f,%.9f,%.9f,%.9f\n"
           l.l_ix l.l_name l.l_start l.l_dur l.l_comm l.l_compute l.l_overhead
           l.l_crit_piece l.l_bytes l.l_msgs l.l_piece_max l.l_piece_mean
           l.l_p50 l.l_p99))
    t.r_launches;
  Buffer.add_string b
    (Printf.sprintf "total,,0,%.9f,,,,,,,,,,\n" t.r_total);
  Buffer.contents b
