(* Result fingerprints and the committed seed-1 reference files.

   A fingerprint is a line of text that two runs agree on exactly when
   their simulated results are bit-identical: output digests are MD5 over
   the raw float bits (and coordinates, for sparse outputs), times are
   printed as hex floats. *)

open Spdistal_formats
open Spdistal_exec

let hex = Printf.sprintf "%h"

let digest_data (d : Operand.data) =
  let b = Buffer.create 4096 in
  let bits x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  (match d with
  | Operand.Vec v -> Array.iter bits v.Dense.data
  | Operand.Mat m -> Array.iter bits m.Dense.data
  | Operand.Sparse t ->
      Tensor.iter_nnz t (fun coords _ v ->
          Array.iter (fun c -> Buffer.add_int32_le b (Int32.of_int c)) coords;
          bits v));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A run's fingerprint: the digest of its problem's output operand and the
   run's simulated time. *)
let run_fingerprint (p : Core.Spdistal.problem) (r : Core.Spdistal.run_result)
    =
  match r.Core.Spdistal.dnc with
  | Some reason -> "dnc " ^ reason
  | None ->
      let out = p.Core.Spdistal.stmt.Spdistal_ir.Tin.lhs.Spdistal_ir.Tin.tensor in
      Printf.sprintf "out=%s total=%s"
        (digest_data (Operand.find (Core.Spdistal.bindings p) out).Operand.data)
        (hex (Spdistal_runtime.Cost.total r.Core.Spdistal.cost))

(* Reference files hold one "label<TAB>fingerprint" line per op label. *)
let path ~dir ~workload ~smoke =
  Filename.concat dir ((if smoke then "smoke-" else "") ^ workload ^ ".txt")

let load path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.index_opt line '\t' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.sub line (i + 1) (String.length line - i - 1) )
           | None -> None)
    |> Option.some

let save path entries =
  let oc = open_out path in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) entries;
  close_out oc
