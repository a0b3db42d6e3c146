open Spdistal_formats
open Spdistal_ir

(* Domain of every index variable, from the operands it indexes. *)
let var_domains bindings (stmt : Tin.stmt) =
  let doms = Hashtbl.create 8 in
  let note (acc : Tin.access) =
    let d = (Operand.find bindings acc.Tin.tensor).Operand.data in
    List.iteri
      (fun i v ->
        let n = Operand.dim d i in
        match Hashtbl.find_opt doms v with
        | None -> Hashtbl.replace doms v n
        | Some m ->
            if m <> n then
              Spdistal_runtime.Error.fail Spdistal_runtime.Error.Config
                "Validate: inconsistent domain for %s (%d vs %d)" v m n)
      acc.Tin.indices
  in
  note stmt.Tin.lhs;
  List.iter note (Tin.rhs_accesses stmt);
  doms

let value_at bindings (acc : Tin.access) env =
  let coords =
    Array.of_list (List.map (fun v -> Hashtbl.find env v) acc.Tin.indices)
  in
  match (Operand.find bindings acc.Tin.tensor).Operand.data with
  | Operand.Sparse t -> Tensor.get t coords
  | Operand.Vec v -> Dense.vec_get v coords.(0)
  | Operand.Mat m -> Dense.mat_get m coords.(0) coords.(1)

let rec eval_expr bindings env = function
  | Tin.Access a -> value_at bindings a env
  | Tin.Add (a, b) -> eval_expr bindings env a +. eval_expr bindings env b
  | Tin.Mul (a, b) -> eval_expr bindings env a *. eval_expr bindings env b
  | Tin.Lit f -> f

let reference bindings (stmt : Tin.stmt) =
  let doms = var_domains bindings stmt in
  let vars = Tin.index_vars stmt in
  let env = Hashtbl.create 8 in
  let out = Hashtbl.create 64 in
  let rec loop = function
    | [] ->
        let v = eval_expr bindings env stmt.Tin.rhs in
        if v <> 0. then begin
          let key = List.map (fun iv -> Hashtbl.find env iv) stmt.Tin.lhs.Tin.indices in
          let prev = Option.value ~default:0. (Hashtbl.find_opt out key) in
          Hashtbl.replace out key (prev +. v)
        end
    | v :: rest ->
        for x = 0 to Hashtbl.find doms v - 1 do
          Hashtbl.replace env v x;
          loop rest
        done
  in
  loop vars;
  out

type diff = { coords : int list; expected : float; actual : float }

type comparison = {
  checked : int;
  mismatched : int;
  max_abs_err : float;
  samples : diff list;
}

let ok c = c.mismatched = 0

let compare ?(rtol = 0.) ?(atol = 0.) ?(max_samples = 5) bindings
    (stmt : Tin.stmt) =
  let expected = reference bindings stmt in
  let doms = var_domains bindings stmt in
  let dims = List.map (fun v -> Hashtbl.find doms v) stmt.Tin.lhs.Tin.indices in
  let checked = ref 0 and mismatched = ref 0 and max_err = ref 0. in
  let samples = ref [] and nsamples = ref 0 in
  let rec loop prefix = function
    | [] ->
        let key = List.rev prefix in
        let want = Option.value ~default:0. (Hashtbl.find_opt expected key) in
        let got =
          value_at bindings stmt.Tin.lhs
            (let env = Hashtbl.create 4 in
             List.iter2 (fun v x -> Hashtbl.replace env v x)
               stmt.Tin.lhs.Tin.indices key;
             env)
        in
        incr checked;
        let err = Float.abs (want -. got) in
        if err > !max_err then max_err := err;
        if err > atol +. (rtol *. Float.abs want) then begin
          incr mismatched;
          if !nsamples < max_samples then begin
            samples := { coords = key; expected = want; actual = got } :: !samples;
            incr nsamples
          end
        end
    | n :: rest ->
        for x = 0 to n - 1 do
          loop (x :: prefix) rest
        done
  in
  loop [] dims;
  {
    checked = !checked;
    mismatched = !mismatched;
    max_abs_err = !max_err;
    samples = List.rev !samples;
  }

let pp_diff fmt c =
  if c.mismatched = 0 then
    Format.fprintf fmt "all %d coordinates match (max |err| %g)" c.checked
      c.max_abs_err
  else begin
    Format.fprintf fmt "%d/%d coordinates mismatch (max |err| %g):"
      c.mismatched c.checked c.max_abs_err;
    List.iter
      (fun d ->
        Format.fprintf fmt "@\n  (%s): expected %.17g, got %.17g"
          (String.concat "," (List.map string_of_int d.coords))
          d.expected d.actual)
      c.samples
  end

let diff_to_string c = Format.asprintf "%a" pp_diff c

let max_error bindings (stmt : Tin.stmt) =
  (compare ~atol:infinity bindings stmt).max_abs_err
