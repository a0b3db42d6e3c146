(* Structured JSONL event log.  Rendering reuses the Chrome-trace escaping
   and track ids so a log line names the exact (pid, tid) its correlating
   span lives on in the exported trace. *)

type level = Debug | Info | Warn | Error

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type entry = {
  e_seq : int;
  e_time : float option;
  e_level : level;
  e_event : string;
  e_track : Trace.track option;
  e_span : string option;
  e_fields : (string * Trace.value) list;
}

type t = {
  on : bool;
  min_level : level;
  mutable l_entries : entry list;  (* newest first *)
  mutable l_seq : int;
}

let create ?(level = Info) () =
  { on = true; min_level = level; l_entries = []; l_seq = 0 }

let null = { on = false; min_level = Error; l_entries = []; l_seq = 0 }
let enabled t = t.on

let default_log = ref null
let default () = !default_log
let set_default t = default_log := t

let event t ?(level = Info) ?time ?track ?span ?(fields = []) name =
  if t.on && level_rank level >= level_rank t.min_level then begin
    t.l_entries <-
      {
        e_seq = t.l_seq;
        e_time = time;
        e_level = level;
        e_event = name;
        e_track = track;
        e_span = span;
        e_fields = fields;
      }
      :: t.l_entries;
    t.l_seq <- t.l_seq + 1
  end

let entries t = List.rev t.l_entries

let jstr s = "\"" ^ Chrome_trace.escape s ^ "\""

let jfloat f =
  if Float.is_nan f then "0"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let jvalue = function
  | Trace.I i -> string_of_int i
  | Trace.F f -> jfloat f
  | Trace.S s -> jstr s
  | Trace.B b -> string_of_bool b

let entry_json e =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"seq\":%d" e.e_seq);
  (match e.e_time with
  | Some t -> Buffer.add_string b (Printf.sprintf ",\"t\":%s" (jfloat t))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"level\":%s,\"event\":%s" (jstr (level_name e.e_level))
       (jstr e.e_event));
  (match e.e_track with
  | Some tr ->
      let pid, tid = Chrome_trace.track_ids tr in
      Buffer.add_string b
        (Printf.sprintf ",\"track\":%s,\"pid\":%d,\"tid\":%d"
           (jstr (Trace.track_label tr)) pid tid)
  | None -> ());
  (match e.e_span with
  | Some sp -> Buffer.add_string b (Printf.sprintf ",\"span\":%s" (jstr sp))
  | None -> ());
  Buffer.add_string b ",\"fields\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (jstr k);
      Buffer.add_char b ':';
      Buffer.add_string b (jvalue v))
    e.e_fields;
  Buffer.add_string b "}}";
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (entry_json e);
      Buffer.add_char b '\n')
    (entries t);
  Buffer.contents b

let write t ~path =
  let oc = open_out path in
  output_string oc (to_jsonl t);
  close_out oc
