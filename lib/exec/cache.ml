(* The execution-context cache: Legion's amortization trick for iterative
   workloads.  Dependent partitioning, piece placement and lowering are pure
   functions of (index notation, operand formats and sparsity structure,
   data-distribution notation, schedule, machine); an iterative solver runs
   the same kernel over the same partitions hundreds of times, so the
   runtime pays those analyses once and replays the cached launch plan on
   every subsequent iteration.  Entries are keyed by a structural digest of
   exactly those inputs; a node crash invalidates the entry (its placements
   name dead slots), forcing a re-partition on the next iteration. *)

open Spdistal_runtime
open Spdistal_ir
module Metrics = Spdistal_obs.Metrics
module Log = Spdistal_obs.Log

type entry = {
  e_key : string;
  e_placement : Placement.t;
  e_prog : Loop_ir.prog;
  mutable e_prepared : Interp.prepared;
      (** materialized partitions, distributed loops and (compiled backend)
          specialized leaf closures; swapped in place via {!Interp.relink}
          when a later run requests the other backend *)
  e_launches : int;
      (** per-iteration launch stride: length of the prepared loop list *)
  e_part_seconds : float;
  e_part_ops : int;
  e_part_elems : int;
  e_bytes : int;
      (** accounted footprint of the entry (see {!approx_bytes}), charged
          against the cache's byte budget *)
  mutable e_hits : int;
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;
  bytes : int;
  bytes_peak : int;
  evictions : int;
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (* most recently used first; LRU is last *)
  cap : int;
  byte_budget : int option;
  mutable bytes : int;
  mutable bytes_peak : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable evictions : int;
}

let create ?(cap = 64) ?byte_budget () =
  (match byte_budget with
  | Some b when b <= 0 ->
      Error.fail Error.Config "cache byte budget %d must be > 0" b
  | _ -> ());
  {
    tbl = Hashtbl.create 16;
    order = [];
    cap = max cap 1;
    byte_budget;
    bytes = 0;
    bytes_peak = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
  }

(* ------------------------------------------------------------------ *)
(* Keying                                                              *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the structural (pattern) arrays of a sparse operand.  The
   partitions an entry caches depend on the coordinate structure — not on
   the stored values, which an iterative application is free to update
   between launches (that is the whole point of warm starts).

   Every lookup rehashes every pos/crd array, so the loops keep the
   accumulator in a local ref that never escapes: ocamlopt holds it
   unboxed and only the final value is boxed.  Keys are persisted
   (events.jsonl), so the FNV-1a 64 offset, prime and element order (lo
   then hi per pos pair) must not change. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash_ints (a : int array) =
  let h = ref fnv_offset in
  for i = 0 to Array.length a - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int a.(i))) fnv_prime
  done;
  !h

let hash_pairs (a : (int * int) array) =
  let h = ref fnv_offset in
  for i = 0 to Array.length a - 1 do
    let lo, hi = a.(i) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int lo)) fnv_prime;
    h := Int64.mul (Int64.logxor !h (Int64.of_int hi)) fnv_prime
  done;
  !h

let data_fingerprint buf data =
  let open Spdistal_formats in
  match data with
  | Operand.Vec v -> Buffer.add_string buf (Printf.sprintf "vec:%d" v.Dense.n)
  | Operand.Mat m ->
      Buffer.add_string buf (Printf.sprintf "mat:%dx%d" m.Dense.rows m.Dense.cols)
  | Operand.Sparse t ->
      Buffer.add_string buf "sparse:";
      Array.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%d," d)) t.Tensor.dims;
      Buffer.add_char buf '/';
      Array.iter
        (fun d -> Buffer.add_string buf (Printf.sprintf "%d," d))
        t.Tensor.mode_order;
      Array.iter
        (fun l ->
          match l with
          | Level.Dense { dim } -> Buffer.add_string buf (Printf.sprintf ";D%d" dim)
          | Level.Compressed { pos; crd } ->
              Buffer.add_string buf
                (Printf.sprintf ";C%Lx:%Lx"
                   (hash_pairs pos.Region.data)
                   (hash_ints crd.Region.data))
          | Level.Singleton { crd } ->
              Buffer.add_string buf
                (Printf.sprintf ";S%Lx" (hash_ints crd.Region.data)))
        t.Tensor.levels

(* Explicit field-by-field rendering of the machine params.  Marshal's byte
   layout is not a stable canonical form (it varies with sharing, flags and
   compiler version), so digests built from it are fragile across processes;
   %h renders each float exactly (hex significand), and the record pattern
   forces this function to be revisited whenever a field is added. *)
let params_repr (p : Machine.params) =
  let {
    Machine.cpu_cores;
    cpu_mem_bw;
    cpu_flops;
    node_mem;
    gpus_per_node;
    gpu_mem_bw;
    gpu_flops;
    gpu_mem;
    nvlink_bw;
    net_bw;
    net_alpha;
    task_overhead;
    meta_per_piece;
    barrier_alpha;
    atomic_penalty_cpu;
    atomic_penalty_gpu;
    uvm_page_bw;
    legion_leaf_efficiency;
  } =
    p
  in
  Printf.sprintf
    "cores=%d;cbw=%h;cfl=%h;nmem=%h;gpn=%d;gbw=%h;gfl=%h;gmem=%h;nv=%h;net=%h;\
     alpha=%h;task=%h;meta=%h;barrier=%h;apc=%h;apg=%h;uvm=%h;lle=%h"
    cpu_cores cpu_mem_bw cpu_flops node_mem gpus_per_node gpu_mem_bw gpu_flops
    gpu_mem nvlink_bw net_bw net_alpha task_overhead meta_per_piece
    barrier_alpha atomic_penalty_cpu atomic_penalty_gpu uvm_page_bw
    legion_leaf_efficiency

(* The key covers everything execution depends on, schedule and TDNs
   included. *)
let digest ~machine ~operands ~stmt ~schedule =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (match machine.Machine.kind with Machine.Cpu -> "cpu[" | Machine.Gpu -> "gpu[");
  Array.iter
    (fun d -> Buffer.add_string buf (string_of_int d ^ ","))
    machine.Machine.grid;
  Buffer.add_string buf "]";
  Buffer.add_string buf (params_repr machine.Machine.params);
  Buffer.add_string buf "|tin:";
  Buffer.add_string buf (Tin.to_string stmt);
  Buffer.add_string buf "|sched:";
  Buffer.add_string buf (Schedule.to_string schedule);
  List.iter
    (fun (name, (slot : Operand.slot), tdn) ->
      Buffer.add_string buf "|op:";
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      data_fingerprint buf slot.Operand.data;
      Buffer.add_string buf "@";
      Buffer.add_string buf (Format.asprintf "%a" (Tdn.pp ~tensor:name) tdn))
    operands;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Cost model of a cold miss                                           *)
(* ------------------------------------------------------------------ *)

(* Each partition materialization / dependent-partitioning query is itself
   an index launch in Legion, so it pays the machine's launch overhead; the
   image/preimage/value-range scans additionally stream their region entries
   (16 B per entry: an 8 B coordinate or pos bound read plus the coloring
   write) through memory. *)
let partition_seconds machine (s : Part_eval.stats) =
  let ops = s.Part_eval.s_parts + s.Part_eval.s_dep_ops in
  (float_of_int ops *. Machine.launch_overhead machine)
  +. Machine.compute_time machine ~flops:0.
       ~bytes:(16. *. float_of_int s.Part_eval.s_dep_elems)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(* Accounted footprint of one entry.  Not a heap measurement (entries alias
   operand tensors; [Obj.reachable_words] would double-charge shared data)
   but a deterministic estimate monotone in what the entry actually pins:
   the prepared partition environment streams ~16 B per dependently
   partitioned region element, placements and loop closures scale with the
   pieces and launches, plus a fixed overhead for the records themselves. *)
let approx_bytes ~pieces ~launches ~part_elems =
  4096 + (128 * pieces) + (96 * launches) + (16 * part_elems)

(* Move [key] to the MRU head.  [order] is a short list (bounded by [cap]),
   so the linear filter is fine. *)
let touch t key =
  t.order <- key :: List.filter (fun k -> k <> key) t.order

(* Ambient metrics.  All cache traffic happens on the driving domain (the
   serve loop or Context.run), so the counters are deterministic. *)
let note_lookup result =
  Metrics.inc (Metrics.default ())
    ~labels:[ ("result", result) ]
    ~help:"launch-plan cache lookups by outcome" "spdistal_cache_lookups_total"

let note_occupancy t =
  let m = Metrics.default () in
  Metrics.set m ~help:"accounted bytes resident in the launch-plan cache"
    "spdistal_cache_bytes" (float_of_int t.bytes);
  Metrics.set m "spdistal_cache_entries" (float_of_int (Hashtbl.length t.tbl))

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      t.hits <- t.hits + 1;
      e.e_hits <- e.e_hits + 1;
      note_lookup "hit";
      (* A hit is a use: refresh recency so eviction is true LRU, not
         insertion-order FIFO. *)
      touch t key;
      Some e
  | None ->
      t.misses <- t.misses + 1;
      note_lookup "miss";
      None

let remove_key t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.tbl key;
      t.bytes <- t.bytes - e.e_bytes;
      t.order <- List.filter (fun k -> k <> key) t.order

let over_budget t =
  match t.byte_budget with Some b -> t.bytes > b | None -> false

(* Evict from the LRU tail until both the entry cap and the byte budget
   hold.  The loop may evict the entry just inserted (an entry bigger than
   the whole budget is never cached — the budget is a hard bound, not a
   target). *)
let rec evict_to_fit t =
  if Hashtbl.length t.tbl > t.cap || over_budget t then
    match List.rev t.order with
    | lru :: _ ->
        let freed =
          match Hashtbl.find_opt t.tbl lru with
          | Some e -> e.e_bytes
          | None -> 0
        in
        remove_key t lru;
        t.evictions <- t.evictions + 1;
        Metrics.inc (Metrics.default ())
          ~help:"entries evicted to satisfy cap or byte budget"
          "spdistal_cache_evictions_total";
        Log.event (Log.default ()) ~level:Log.Debug
          ~fields:
            [
              ("key", Spdistal_obs.Trace.S lru);
              ("bytes", Spdistal_obs.Trace.I freed);
            ]
          "cache_evicted";
        evict_to_fit t
    | [] -> ()

let add t entry =
  if not (Hashtbl.mem t.tbl entry.e_key) then begin
    Hashtbl.replace t.tbl entry.e_key entry;
    t.bytes <- t.bytes + entry.e_bytes;
    t.order <- entry.e_key :: t.order;
    evict_to_fit t;
    (* The peak is sampled after eviction: it tracks the cache's resting
       footprint, which never exceeds the budget. *)
    t.bytes_peak <- max t.bytes_peak t.bytes;
    note_occupancy t
  end

(* A crash killed nodes whose slots the cached placements name: check every
   piece they hosted still has a surviving slot (raises [Error.Recovery]
   otherwise, exactly like the in-flight launch would), then drop the entry
   so the next iteration re-runs dependent partitioning against the
   shrunken machine — Legion re-derives partitions after a node is lost. *)
let invalidate t ~machine ~crashed key =
  (match Hashtbl.find_opt t.tbl key with
  | None -> ()
  | Some _ ->
      List.iter
        (fun node ->
          List.iter
            (fun piece -> ignore (Placement.remap_piece ~machine ~crashed piece))
            (Machine.pieces_on_node machine node))
        crashed;
      remove_key t key);
  t.invalidations <- t.invalidations + 1;
  Metrics.inc (Metrics.default ()) ~help:"entries dropped after node crashes"
    "spdistal_cache_invalidations_total";
  note_occupancy t

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    invalidations = t.invalidations;
    entries = Hashtbl.length t.tbl;
    bytes = t.bytes;
    bytes_peak = t.bytes_peak;
    evictions = t.evictions;
  }
