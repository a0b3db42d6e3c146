(* Labeled counters / gauges / histograms with deterministic rendering.
   See metrics.mli for the determinism contract; the short version is that
   every mutation happens on the reducing domain (or the sequential serve
   loop), histograms are pure integer bucket counts over precomputed
   boundaries, and wall-clock families are flagged out of the default
   snapshot so exposition text is byte-identical across --domains. *)

type kind = Counter | Gauge | Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

type hist = {
  bounds : float array;  (* strictly increasing upper boundaries *)
  counts : int array;  (* length bounds + 1; last bucket is overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type cell = Scalar of { mutable v : float } | Hist of hist

type series = { s_labels : (string * string) list; s_cell : cell }

type family = {
  f_name : string;
  f_kind : kind;
  f_help : string;
  f_wall : bool;  (* wall-clock / config-dependent: hidden by default *)
  f_buckets : float array;  (* histogram boundaries for new series *)
  f_series : (string, series) Hashtbl.t;  (* keyed by canonical labels *)
}

type t = { on : bool; fams : (string, family) Hashtbl.t }

let create () = { on = true; fams = Hashtbl.create 32 }
let null = { on = false; fams = Hashtbl.create 0 }
let enabled t = t.on

let default_registry = ref null
let default () = !default_registry
let set_default t = default_registry := t

(* ------------------------------------------------------------------ *)
(* Names, labels, families                                             *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Metrics: invalid %s %S" what s)

(* Canonical label form: sorted by key, no duplicates. *)
let normalize_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then
          invalid_arg (Printf.sprintf "Metrics: duplicate label %S" a);
        check rest
    | _ -> ()
  in
  List.iter (fun (k, _) -> check_name "label name" k) sorted;
  check sorted;
  sorted

let series_key labels =
  String.concat "\x00" (List.map (fun (k, v) -> k ^ "\x01" ^ v) labels)

(* Powers of two from ~1 µs to ~4.5 h: log-bucketed, every boundary exact
   in binary, coarse enough that 35 buckets cover any simulated latency. *)
let default_buckets = Array.init 35 (fun i -> 2. ** float_of_int (i - 20))

let check_buckets b =
  if Array.length b = 0 then invalid_arg "Metrics: empty bucket array";
  Array.iteri
    (fun i x ->
      if not (Float.is_finite x) then invalid_arg "Metrics: non-finite bucket";
      if i > 0 && x <= b.(i - 1) then
        invalid_arg "Metrics: buckets must be strictly increasing")
    b

let family t kind ?(help = "") ?(wall = false) ?buckets name =
  check_name "metric name" name;
  match Hashtbl.find_opt t.fams name with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s is a %s, not a %s" name
             (kind_name f.f_kind) (kind_name kind));
      f
  | None ->
      let buckets =
        match buckets with
        | Some b ->
            check_buckets b;
            Array.copy b
        | None -> default_buckets
      in
      let f =
        {
          f_name = name;
          f_kind = kind;
          f_help = help;
          f_wall = wall;
          f_buckets = buckets;
          f_series = Hashtbl.create 4;
        }
      in
      Hashtbl.add t.fams name f;
      f

let series f labels =
  let labels = normalize_labels labels in
  let key = series_key labels in
  match Hashtbl.find_opt f.f_series key with
  | Some s -> s
  | None ->
      let cell =
        match f.f_kind with
        | Counter | Gauge -> Scalar { v = 0. }
        | Histogram ->
            Hist
              {
                bounds = f.f_buckets;
                counts = Array.make (Array.length f.f_buckets + 1) 0;
                h_sum = 0.;
                h_count = 0;
              }
      in
      let s = { s_labels = labels; s_cell = cell } in
      Hashtbl.add f.f_series key s;
      s

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

let inc t ?(labels = []) ?(by = 1.) ?help ?wall name =
  if t.on then begin
    if by < 0. || not (Float.is_finite by) then
      invalid_arg (Printf.sprintf "Metrics: bad counter increment for %s" name);
    match (series (family t Counter ?help ?wall name) labels).s_cell with
    | Scalar c -> c.v <- c.v +. by
    | Hist _ -> assert false
  end

let set t ?(labels = []) ?help ?wall name v =
  if t.on then
    match (series (family t Gauge ?help ?wall name) labels).s_cell with
    | Scalar c -> c.v <- v
    | Hist _ -> assert false

(* Index of the bucket for [v]: smallest [i] with [v <= bounds.(i)], or
   [length bounds] (overflow).  Binary search over the boundary array — no
   [log] calls, so bucketing is exact and portable. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  if v <= bounds.(0) then 0
  else if v > bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: bounds.(lo) < v <= bounds.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

let observe t ?(labels = []) ?buckets ?help ?wall name v =
  if t.on then begin
    if Float.is_nan v then
      invalid_arg (Printf.sprintf "Metrics: NaN observation for %s" name);
    match (series (family t Histogram ?help ?wall ?buckets name) labels).s_cell with
    | Hist h ->
        let i = bucket_index h.bounds v in
        h.counts.(i) <- h.counts.(i) + 1;
        h.h_sum <- h.h_sum +. v;
        h.h_count <- h.h_count + 1
    | Scalar _ -> assert false
  end

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let find_series t name labels =
  match Hashtbl.find_opt t.fams name with
  | None -> None
  | Some f -> Hashtbl.find_opt f.f_series (series_key (normalize_labels labels))

let value t ?(labels = []) name =
  match find_series t name labels with
  | Some { s_cell = Scalar c; _ } -> Some c.v
  | _ -> None

(* Rank-based quantile: the upper boundary of the bucket holding observation
   rank [ceil (q * count)].  Overflow observations report the last finite
   boundary (the estimate saturates there by construction). *)
let hist_quantile h q =
  if h.h_count = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
    let rank = min rank h.h_count in
    let n = Array.length h.bounds in
    let rec go i seen =
      if i >= n then Some h.bounds.(n - 1)
      else
        let seen = seen + h.counts.(i) in
        if seen >= rank then Some h.bounds.(i) else go (i + 1) seen
    in
    go 0 0
  end

let quantile t ?(labels = []) name q =
  if q <= 0. || q > 1. then invalid_arg "Metrics.quantile: q outside (0, 1]";
  match find_series t name labels with
  | Some { s_cell = Hist h; _ } -> hist_quantile h q
  | _ -> None

let hist_stats t ?(labels = []) name =
  match find_series t name labels with
  | Some { s_cell = Hist h; _ } -> Some (h.h_count, h.h_sum)
  | _ -> None

type sample = {
  sm_name : string;
  sm_labels : (string * string) list;
  sm_value : float;
}

let sorted_families ?(wall = false) t =
  Hashtbl.fold (fun _ f acc -> f :: acc) t.fams []
  |> List.filter (fun f -> wall || not f.f_wall)
  |> List.sort (fun a b -> compare a.f_name b.f_name)

let sorted_series f =
  Hashtbl.fold (fun _ s acc -> s :: acc) f.f_series []
  |> List.sort (fun a b -> compare a.s_labels b.s_labels)

let snapshot ?(wall = false) t =
  List.concat_map
    (fun f ->
      List.concat_map
        (fun s ->
          match s.s_cell with
          | Scalar c -> [ { sm_name = f.f_name; sm_labels = s.s_labels; sm_value = c.v } ]
          | Hist h ->
              let d suffix v =
                { sm_name = f.f_name ^ suffix; sm_labels = s.s_labels; sm_value = v }
              in
              let qs =
                if h.h_count = 0 then []
                else
                  List.filter_map
                    (fun (suffix, q) ->
                      Option.map (d suffix) (hist_quantile h q))
                    [ ("_p50", 0.50); ("_p95", 0.95); ("_p99", 0.99) ]
              in
              d "_count" (float_of_int h.h_count) :: d "_sum" h.h_sum :: qs)
        (sorted_series f))
    (sorted_families ~wall t)

(* Deterministic value rendering: integral values print as integers
   (counter semantics), everything else as %.9g — a fixed function of the
   double, so equal values always render equal bytes. *)
let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let sample_id s =
  match s.sm_labels with
  | [] -> s.sm_name
  | ls ->
      s.sm_name ^ "{"
      ^ String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
      ^ "}"

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let prom_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ prom_escape v ^ "\"") ls)
      ^ "}"

let expose ?(wall = false) t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun f ->
      if f.f_help <> "" then line "# HELP %s %s" f.f_name (prom_escape f.f_help);
      line "# TYPE %s %s" f.f_name (kind_name f.f_kind);
      List.iter
        (fun s ->
          match s.s_cell with
          | Scalar c ->
              line "%s%s %s" f.f_name (prom_labels s.s_labels) (render_value c.v)
          | Hist h ->
              let cum = ref 0 in
              Array.iteri
                (fun i n ->
                  if i < Array.length h.bounds then begin
                    cum := !cum + n;
                    line "%s_bucket%s %d" f.f_name
                      (prom_labels (s.s_labels @ [ ("le", render_value h.bounds.(i)) ]))
                      !cum
                  end)
                h.counts;
              line "%s_bucket%s %d" f.f_name
                (prom_labels (s.s_labels @ [ ("le", "+Inf") ]))
                h.h_count;
              line "%s_sum%s %s" f.f_name (prom_labels s.s_labels)
                (render_value h.h_sum);
              line "%s_count%s %d" f.f_name (prom_labels s.s_labels) h.h_count)
        (sorted_series f))
    (sorted_families ~wall t);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scraper                                                             *)
(* ------------------------------------------------------------------ *)

module Scrape = struct
  type registry = t

  type t = {
    sc_reg : registry;
    sc_interval : float;
    mutable sc_next : float;
    mutable sc_rows : (float * sample list) list;  (* newest first *)
  }

  let create ?(interval = 0.05) reg =
    if interval <= 0. || not (Float.is_finite interval) then
      invalid_arg "Metrics.Scrape: interval must be positive and finite";
    { sc_reg = reg; sc_interval = interval; sc_next = interval; sc_rows = [] }

  let tick s ~now =
    if s.sc_reg.on then
      while s.sc_next <= now do
        s.sc_rows <- (s.sc_next, snapshot s.sc_reg) :: s.sc_rows;
        s.sc_next <- s.sc_next +. s.sc_interval
      done

  let force s ~now =
    if s.sc_reg.on then begin
      s.sc_rows <- (now, snapshot s.sc_reg) :: s.sc_rows;
      (* subsequent ticks resume after the forced row *)
      while s.sc_next <= now do
        s.sc_next <- s.sc_next +. s.sc_interval
      done
    end

  let rows s = List.rev s.sc_rows

  let to_csv s =
    let b = Buffer.create 4096 in
    Buffer.add_string b
      "# one row per (window, series); metric = family{label=value;...}\n";
    Buffer.add_string b "t_s,metric,value\n";
    List.iter
      (fun (t, samples) ->
        List.iter
          (fun sm ->
            Buffer.add_string b
              (Printf.sprintf "%s,%s,%s\n" (render_value t) (sample_id sm)
                 (render_value sm.sm_value)))
          samples)
      (rows s);
    Buffer.contents b

  let to_jsonl s =
    let esc = Chrome_trace.escape in
    let b = Buffer.create 4096 in
    List.iter
      (fun (t, samples) ->
        List.iter
          (fun sm ->
            let labels =
              String.concat ","
                (List.map
                   (fun (k, v) ->
                     Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v))
                   sm.sm_labels)
            in
            Buffer.add_string b
              (Printf.sprintf
                 "{\"t\":%s,\"metric\":\"%s\",\"labels\":{%s},\"value\":%s}\n"
                 (render_value t) (esc sm.sm_name) labels
                 (render_value sm.sm_value)))
          samples)
      (rows s);
    Buffer.contents b
end
