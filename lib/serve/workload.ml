(* Deterministic workload traces for the serving front-end.

   A trace is a stream of (tenant, query, arrival, deadline) jobs.  Query
   popularity is Zipf-distributed over the catalog (a few queries dominate,
   as in any production query mix — exactly the regime where a shared
   partition/kernel cache pays), arrivals follow a Poisson process
   (exponential inter-arrival times), optionally with a burst window where
   the rate is multiplied (the overload scenario).  Everything is a pure
   function of the seed, like [Fault]'s schedule and [Synth]'s tensors, so a
   serve run is replayable bit-for-bit from its generator parameters — or
   from a saved trace file. *)

open Spdistal_runtime

type job = {
  j_id : int;
  j_tenant : int;
  j_query : string;
  j_arrival : float;  (* simulated seconds since serve start *)
  j_deadline : float;  (* relative deadline, simulated seconds *)
}

type t = { w_tenants : int; w_jobs : job list }

type gen = {
  g_seed : int;
  g_jobs : int;
  g_tenants : int;
  g_rate : float;  (* mean arrivals per simulated second *)
  g_alpha : float;  (* Zipf exponent of query popularity *)
  g_deadline : float;  (* mean relative deadline, simulated seconds *)
  g_burst : (float * float * float) option;
      (* (start, length, multiplier): arrival rate is [g_rate * multiplier]
         inside the window — the overload burst *)
}

let default_gen =
  {
    g_seed = 42;
    g_jobs = 200;
    g_tenants = 4;
    g_rate = 200.;
    g_alpha = 1.1;
    g_deadline = 0.5;
    g_burst = None;
  }

let validate g =
  let bad fmt = Error.fail Error.Config fmt in
  if g.g_jobs < 1 then bad "workload jobs %d must be >= 1" g.g_jobs;
  if g.g_tenants < 1 then bad "workload tenants %d must be >= 1" g.g_tenants;
  if not (Float.is_finite g.g_rate && g.g_rate > 0.) then
    bad "workload arrival rate %g must be finite and > 0" g.g_rate;
  if not (Float.is_finite g.g_alpha && g.g_alpha > 0.) then
    bad "workload zipf alpha %g must be finite and > 0" g.g_alpha;
  if not (Float.is_finite g.g_deadline && g.g_deadline > 0.) then
    bad "workload deadline %g must be finite and > 0" g.g_deadline;
  match g.g_burst with
  | Some (s, l, m) ->
      if not (Float.is_finite s && s >= 0.) then
        bad "burst start %g must be finite and >= 0" s;
      if not (Float.is_finite l && l > 0.) then
        bad "burst length %g must be finite and > 0" l;
      if not (Float.is_finite m && m >= 1.) then
        bad "burst multiplier %g must be finite and >= 1" m
  | None -> ()

let rate_at g t =
  match g.g_burst with
  | Some (s, l, m) when t >= s && t < s +. l -> g.g_rate *. m
  | _ -> g.g_rate

let generate ?(gen = default_gen) ~catalog () =
  validate gen;
  if catalog = [] then
    Error.fail Error.Config "workload generation needs a non-empty catalog";
  let qnames = Array.of_list catalog in
  let rng = Srng.create gen.g_seed in
  let t = ref 0. in
  let jobs =
    List.init gen.g_jobs (fun id ->
        (* Exponential inter-arrival at the current (possibly bursting)
           rate; [1. -. float] is in (0, 1] so the log is finite. *)
        let dt = -.log (1. -. Srng.float rng) /. rate_at gen !t in
        t := !t +. dt;
        let q = Srng.zipf rng ~n:(Array.length qnames) ~alpha:gen.g_alpha in
        let tenant = Srng.int rng gen.g_tenants in
        (* Deadlines spread uniformly in [0.5, 1.5) x the mean, so some jobs
           are tight and some are lax at every load level. *)
        let deadline = gen.g_deadline *. (0.5 +. Srng.float rng) in
        {
          j_id = id;
          j_tenant = tenant;
          j_query = qnames.(q);
          j_arrival = !t;
          j_deadline = deadline;
        })
  in
  { w_tenants = gen.g_tenants; w_jobs = jobs }

(* ------------------------------------------------------------------ *)
(* Trace files                                                         *)
(* ------------------------------------------------------------------ *)

(* Line format, one job per line after the header:
     spdistal-workload v1 tenants=<n>
     job <id> <tenant> <query> <arrival> <deadline>
   Floats are rendered in hex (%h) so a round trip is bit-exact. *)

let magic = "spdistal-workload v1"

let to_string w =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%s tenants=%d\n" magic w.w_tenants);
  List.iter
    (fun j ->
      Buffer.add_string buf
        (Printf.sprintf "job %d %d %s %h %h\n" j.j_id j.j_tenant j.j_query
           j.j_arrival j.j_deadline))
    w.w_jobs;
  Buffer.contents buf

(* The one tenant-id check, shared by [of_string] (per trace line) and
   [check] (per job): a trace declares at least one tenant, and each job's
   tenant indexes one of them.  Tenant 0 is valid exactly when the count
   is, so [tenant_error ~tenants 0] checks the count alone. *)
let tenant_error ~tenants id =
  if tenants < 1 then Some (Printf.sprintf "tenants=%d must be >= 1" tenants)
  else if id < 0 || id >= tenants then
    Some (Printf.sprintf "tenant %d outside [0, %d)" id tenants)
  else None

let check w =
  let fail what = Error.fail Error.Config "workload %s: %s" what in
  Option.iter (fail "header") (tenant_error ~tenants:w.w_tenants 0);
  List.iter
    (fun j ->
      Option.iter
        (fail (Printf.sprintf "job %d" j.j_id))
        (tenant_error ~tenants:w.w_tenants j.j_tenant))
    w.w_jobs

let of_string s =
  let fail fmt = Printf.ksprintf (fun m -> Result.Error m) fmt in
  match String.split_on_char '\n' s with
  | [] -> fail "empty workload trace"
  | header :: lines -> (
      match String.index_opt header '=' with
      | Some i
        when String.length header > String.length magic
             && String.sub header 0 (String.length magic) = magic -> (
          let tenants_str =
            String.sub header (i + 1) (String.length header - i - 1)
          in
          match int_of_string_opt (String.trim tenants_str) with
          | None -> fail "bad workload header %S" header
          | Some tenants -> (
              (* The header is line 1; a bad tenant count stops the parse
                 there. *)
              let err =
                ref
                  (Option.map
                     (fun why -> (1, ": " ^ why))
                     (tenant_error ~tenants 0))
              in
              let jobs = ref [] in
              List.iteri
                (fun n line ->
                  let line = String.trim line in
                  let bad why = err := Some (n + 2, why) in
                  if line <> "" && !err = None then
                    match String.split_on_char ' ' line with
                    | [ "job"; id; tenant; query; arrival; deadline ] -> (
                        match
                          ( int_of_string_opt id,
                            int_of_string_opt tenant,
                            float_of_string_opt arrival,
                            float_of_string_opt deadline )
                        with
                        | Some id, Some tenant, Some arrival, Some deadline -> (
                            match tenant_error ~tenants tenant with
                            | Some why -> bad (": " ^ why)
                            | None ->
                                jobs :=
                                  {
                                    j_id = id;
                                    j_tenant = tenant;
                                    j_query = query;
                                    j_arrival = arrival;
                                    j_deadline = deadline;
                                  }
                                  :: !jobs)
                        | _ -> bad "")
                    | _ -> bad "")
                lines;
              match !err with
              | Some (line, why) -> fail "bad workload trace line %d%s" line why
              | None -> Ok { w_tenants = tenants; w_jobs = List.rev !jobs }))
      | _ -> fail "not a workload trace (missing %S header)" magic)

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match of_string s with
  | Ok w -> w
  | Result.Error msg -> Error.fail Error.Config "%s: %s" path msg

let save path w =
  let oc = open_out path in
  output_string oc (to_string w);
  close_out oc
