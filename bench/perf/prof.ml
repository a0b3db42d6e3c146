(* Host-wall spans for the traced run, recorded by the benchmark around its
   calls into each layer (the library itself stays untraced).  Each span
   accumulates its layer's self time and self allocation: its own duration
   and allocated words minus those of the spans nested inside it.  Spans are
   also kept as Chrome trace events on one host track. *)

module Trace = Spdistal_obs.Trace

type layer = {
  mutable total_s : float;  (** inclusive wall seconds *)
  mutable self_s : float;
  mutable self_w : float;  (** allocated words, minus nested spans' *)
}

type frame = {
  f_t0 : float;
  f_w0 : float;
  mutable f_child_s : float;
  mutable f_child_w : float;
}

type t = {
  trace : Trace.t;
  layers : (string, layer) Hashtbl.t;
  counters : (string, float) Hashtbl.t;  (** work counted at the same calls *)
  mutable stack : frame list;
}

let create () =
  {
    trace = Trace.create ();
    layers = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    stack = [];
  }

let add t name v =
  Hashtbl.replace t.counters name
    (v +. Option.value ~default:0. (Hashtbl.find_opt t.counters name))

let count t name n = add t name (float_of_int n)
let counter t name = Option.value ~default:0. (Hashtbl.find_opt t.counters name)

(* Words allocated so far on this domain (minor + direct major, without
   double-counting promotions). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { total_s = 0.; self_s = 0.; self_w = 0. } in
      Hashtbl.add t.layers name l;
      l

let span t name f =
  let fr =
    { f_t0 = Unix.gettimeofday (); f_w0 = words (); f_child_s = 0.; f_child_w = 0. }
  in
  t.stack <- fr :: t.stack;
  let close () =
    let dur = Unix.gettimeofday () -. fr.f_t0 in
    let w = words () -. fr.f_w0 in
    t.stack <- List.tl t.stack;
    let l = layer t name in
    l.total_s <- l.total_s +. dur;
    l.self_s <- l.self_s +. dur -. fr.f_child_s;
    l.self_w <- l.self_w +. w -. fr.f_child_w;
    (match t.stack with
    | parent :: _ ->
        parent.f_child_s <- parent.f_child_s +. dur;
        parent.f_child_w <- parent.f_child_w +. w
    | [] -> ());
    Trace.span t.trace ~track:(Trace.Host 0) ~clock:Trace.Wall ~cat:"bench"
      ~start:(fr.f_t0 -. Trace.epoch t.trace)
      ~dur name
  in
  Fun.protect ~finally:close f

let get t name f =
  match Hashtbl.find_opt t.layers name with Some l -> f l | None -> 0.

let self_s t name = get t name (fun l -> l.self_s)
let total_s t name = get t name (fun l -> l.total_s)
let self_mw t name = get t name (fun l -> l.self_w /. 1e6)

(* Every layer's self seconds, largest first. *)
let by_self t =
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.layers []
  |> List.sort (fun (_, a) (_, b) -> compare b.self_s a.self_s)
