(* Sparsity statistics of a sparse driver, read off its level structures
   (not from metadata the user asserts).  This is the Galley half of the
   auto-scheduler: the stored-value count and the number of distinct
   leading coordinates feed the candidate pricer's rows-touched estimate,
   complementing the dependent-partitioning work already tallied by
   [Part_eval.stats].

   The walk reads the raw [pos]/[crd] arrays only: no value is loaded, so
   the statistics depend on the sparsity pattern alone. *)

open Spdistal_runtime
open Spdistal_formats

type t = {
  ts_nnz : int;  (* stored values *)
  ts_rows : int;  (* distinct stored coordinates of logical dimension 0 *)
}

(* Distinct coordinates of logical dimension [dim] among the stored values:
   the coordinates [Tensor.iter_nnz] would report for [dim].  The levels
   above the one storing [dim] are walked in full; at that level a
   coordinate counts once its first position with a stored value beneath it
   is found, so an empty slice or fiber never marks its coordinate. *)
let distinct (t : Tensor.t) ~dim =
  let levels = t.Tensor.levels in
  let ord = Array.length levels in
  let at = ref 0 in
  Array.iteri (fun k d -> if d = dim then at := k) t.Tensor.mode_order;
  let at = !at in
  (* [filled l q]: parent position [q] has a stored value at level [l] or
     below ([l = ord]: [q] is itself a stored value). *)
  let rec filled l q =
    l = ord
    ||
    match levels.(l) with
    | Level.Dense { dim = n } ->
        let rec any c =
          c < n && (filled (l + 1) ((q * n) + c) || any (c + 1))
        in
        any 0
    | Level.Compressed { pos; _ } ->
        let lo, hi = pos.Region.data.(q) in
        let rec any p = p <= hi && (filled (l + 1) p || any (p + 1)) in
        any lo
    | Level.Singleton _ -> filled (l + 1) q
  in
  let seen = Bytes.make (max t.Tensor.dims.(dim) 1) '\000' in
  let count = ref 0 in
  let mark c p =
    if Bytes.get seen c = '\000' && filled (at + 1) p then begin
      Bytes.set seen c '\001';
      incr count
    end
  in
  let rec walk l q =
    match levels.(l) with
    | Level.Dense { dim = n } ->
        for c = 0 to n - 1 do
          if l = at then mark c ((q * n) + c) else walk (l + 1) ((q * n) + c)
        done
    | Level.Compressed { pos; crd } ->
        let lo, hi = pos.Region.data.(q) in
        for p = lo to hi do
          if l = at then mark crd.Region.data.(p) p else walk (l + 1) p
        done
    | Level.Singleton { crd } ->
        if l = at then mark crd.Region.data.(q) q else walk (l + 1) q
  in
  if Tensor.nnz t > 0 then walk 0 0;
  !count

let of_tensor t = { ts_nnz = Tensor.nnz t; ts_rows = distinct t ~dim:0 }

(* Distinct leading coordinates a shard of [nnz_shard] stored values is
   expected to touch, under the proportionality model (shards are
   position-space or row-block contiguous, both of which sample rows roughly
   in proportion to their non-zero mass).  Clamped into [1, min distinct
   nnz_shard] so degenerate shards stay sane. *)
let rows_estimate s ~nnz_shard =
  if nnz_shard <= 0 then 0
  else
    let d0 = max s.ts_rows 1 in
    let est =
      int_of_float
        (Float.ceil
           (float_of_int nnz_shard *. float_of_int d0
           /. float_of_int (max s.ts_nnz 1)))
    in
    max 1 (min (min d0 nnz_shard) est)
