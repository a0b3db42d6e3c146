open Spdistal_runtime
open Spdistal_formats
module A1 = Bigarray.Array1

type result = { time : float; dnc : string option }

let ok time = { time; dnc = None }
let dnc reason = { time = infinity; dnc = Some reason }

module type Matrix_kernels = sig
  val spmv : machine:Machine.t -> Tensor.t -> x:Dense.vec -> y:Dense.vec -> result
  val spmm : machine:Machine.t -> Tensor.t -> c:Dense.mat -> a:Dense.mat -> result
  val spadd3 : machine:Machine.t -> Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t option * result
end

(* Row range [lo, hi) of block [b] out of [blocks] over [rows]. *)
let block_range rows blocks b =
  (b * rows / blocks, (b + 1) * rows / blocks)

(* [count u] summed over [units] consecutive rows or fibers into [blocks]
   equal contiguous blocks. *)
let block_sums ~blocks units count =
  let sums = Array.make blocks 0 in
  for u = 0 to units - 1 do
    let b = min (blocks - 1) (u * blocks / units) in
    sums.(b) <- sums.(b) + count u
  done;
  sums

let row_block_nnz (t : Tensor.t) ~blocks =
  if Tensor.order t < 2 then Error.fail Error.Config "Common.row_block_nnz";
  (* Leaves under the position range [plo..phi] of level [lvl]. *)
  let rec count_below lvl plo phi =
    if lvl >= Tensor.order t then phi - plo + 1
    else
      match t.Tensor.levels.(lvl) with
      | Level.Dense { dim } ->
          count_below (lvl + 1) (plo * dim) (((phi + 1) * dim) - 1)
      | Level.Compressed { pos; _ } ->
          let l1, _ = Region.get pos plo and _, h2 = Region.get pos phi in
          if h2 < l1 then 0 else count_below (lvl + 1) l1 h2
      | Level.Singleton _ -> count_below (lvl + 1) plo phi
  in
  let row_leaf_count =
    match t.Tensor.levels.(1) with
    | Level.Compressed _ | Level.Singleton _ -> fun r -> count_below 1 r r
    | Level.Dense _ ->
        (* Dense second level (e.g. "patents"): uniform per row. *)
        let per_row = Tensor.nnz t / max 1 t.Tensor.dims.(0) in
        fun _ -> per_row
  in
  block_sums ~blocks t.Tensor.dims.(0) row_leaf_count

let fiber_block_nnz (t : Tensor.t) ~blocks =
  if Tensor.order t < 3 then Error.fail Error.Config "Common.fiber_block_nnz";
  block_sums ~blocks (Tensor.level_extent t 1)
    (match t.Tensor.levels.(2) with
    | Level.Compressed { pos; _ } ->
        fun f ->
          let lo, hi = Region.get pos f in
          if hi < lo then 0 else hi - lo + 1
    | Level.Dense { dim } -> fun _ -> dim
    | Level.Singleton _ -> fun _ -> 1)

let row_block_ghosts (t : Tensor.t) ~blocks =
  if Tensor.order t <> 2 then Error.fail Error.Config "Common.row_block_ghosts";
  let rows = t.Tensor.dims.(0) and cols = t.Tensor.dims.(1) in
  let pos = (Tensor.pos_of t 1).Region.data in
  let crd = (Tensor.crd_of t 1).Region.data in
  let ghosts = Array.make blocks 0 in
  for b = 0 to blocks - 1 do
    let rlo, rhi = block_range rows blocks b in
    let clo, chi = block_range cols blocks b in
    let seen = Hashtbl.create 64 in
    for r = rlo to rhi - 1 do
      let lo, hi = pos.(r) in
      for p = lo to hi do
        let c = crd.(p) in
        if (c < clo || c >= chi) && not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          ghosts.(b) <- ghosts.(b) + 1
        end
      done
    done
  done;
  ghosts

(* The scaled analogs are ~4x denser than the originals (dimension scale
   cannot match non-zero scale), so a row block touches a ~4x larger
   fraction of the vector universe than at full size.  Ghost/Import volumes
   are corrected by this factor to keep communication-to-compute ratios
   faithful. *)
let ghost_density_correction = 0.25

let share_time machine ~den ~flops ~bytes =
  let den = float_of_int den in
  let rate, bw =
    match machine.Machine.kind with
    | Machine.Cpu ->
        (machine.Machine.params.cpu_flops /. den, machine.Machine.params.cpu_mem_bw /. den)
    | Machine.Gpu ->
        (machine.Machine.params.gpu_flops /. den, machine.Machine.params.gpu_mem_bw /. den)
  in
  Float.max (flops /. rate) (bytes /. bw)

(* --- shared cost model ------------------------------------------------- *)

type layout = { ranks : int; den : int; penalty : float }

let layout ?(static_penalty = 1.) machine ~cpu_ranks_per_node =
  let den =
    match machine.Machine.kind with Machine.Cpu -> cpu_ranks_per_node | Machine.Gpu -> 1
  in
  { ranks = Machine.pieces machine * den; den; penalty = static_penalty }

let log2f n = log (float_of_int (max 2 n)) /. log 2.

let barrier machine lay = machine.Machine.params.barrier_alpha *. log2f lay.ranks

(* Max over ranks of a per-rank roofline, ranks executing in parallel. *)
let balance_time machine lay per_rank counts =
  Array.fold_left
    (fun acc c ->
      let flops, bytes = per_rank c in
      Float.max acc (lay.penalty *. share_time machine ~den:lay.den ~flops ~bytes))
    0. counts

let overlap ~compute ~comm = compute +. Float.max 0. (comm -. (0.9 *. compute))

(* Ghost exchange at node granularity (node-aware staging dedups the
   per-rank copies): remote fraction of per-node distinct ghost entries over
   the NIC, plus the system's message latency; intra-node ghosts ride shared
   memory. *)
let exchange machine b ~width ~latency =
  let nodes = Machine.nodes machine in
  let elt_bytes = 8. *. width *. ghost_density_correction in
  let remote_frac = float_of_int (nodes - 1) /. float_of_int nodes in
  Array.fold_left
    (fun acc g ->
      let bytes = float_of_int g *. elt_bytes in
      Float.max acc
        (if nodes = 1 then bytes /. machine.Machine.params.cpu_mem_bw
         else latency +. (bytes *. remote_frac /. machine.Machine.params.net_bw)))
    0.
    (row_block_ghosts b ~blocks:nodes)

let spmv_compute machine lay ~rows counts =
  balance_time machine lay
    (fun n ->
      ( 2. *. float_of_int n,
        (24. *. float_of_int n) +. (8. *. float_of_int (rows / lay.ranks)) ))
    counts

let spmm_compute machine lay ~rows ~cols counts =
  balance_time machine lay
    (fun n ->
      let nf = float_of_int n in
      ( 2. *. nf *. cols,
        (16. *. nf) +. (8. *. nf *. cols)
        +. (16. *. float_of_int (rows / lay.ranks) *. cols) ))
    counts

(* --- sequential kernels ------------------------------------------------ *)

let seq_spmv (b : Tensor.t) (x : Dense.vec) (y : Dense.vec) =
  let pos = (Tensor.pos_of b 1).Region.data in
  let crd = (Tensor.crd_of b 1).Region.data in
  let vals = b.Tensor.vals.Region.F.data in
  let xd = x.Dense.data and yd = y.Dense.data in
  for r = 0 to b.Tensor.dims.(0) - 1 do
    let lo, hi = pos.(r) in
    let acc = ref 0. in
    for p = lo to hi do
      acc := !acc +. (A1.get vals p *. xd.(crd.(p)))
    done;
    yd.(r) <- yd.(r) +. !acc
  done

let seq_spmm (b : Tensor.t) (c : Dense.mat) (a : Dense.mat) =
  let pos = (Tensor.pos_of b 1).Region.data in
  let crd = (Tensor.crd_of b 1).Region.data in
  let vals = b.Tensor.vals.Region.F.data in
  let cols = c.Dense.cols in
  for r = 0 to b.Tensor.dims.(0) - 1 do
    let lo, hi = pos.(r) in
    for p = lo to hi do
      let k = crd.(p) and v = A1.get vals p in
      for j = 0 to cols - 1 do
        a.Dense.data.((r * cols) + j) <-
          a.Dense.data.((r * cols) + j) +. (v *. c.Dense.data.((k * cols) + j))
      done
    done
  done

let seq_add3 ~name (b : Tensor.t) (c : Tensor.t) (d : Tensor.t) =
  let rows = b.Tensor.dims.(0) and cols = b.Tensor.dims.(1) in
  let ops =
    List.map
      (fun (t : Tensor.t) ->
        ((Tensor.pos_of t 1).Region.data, (Tensor.crd_of t 1).Region.data, t.Tensor.vals.Region.F.data))
      [ b; c; d ]
  in
  let merge_row r emit =
    let cursors =
      List.map
        (fun (pos, crd, vals) ->
          let lo, hi = pos.(r) in
          (ref lo, hi, crd, vals))
        ops
    in
    let rec step () =
      let mincol =
        List.fold_left
          (fun m (i, hi, crd, _) -> if !i <= hi then min m crd.(!i) else m)
          max_int cursors
      in
      if mincol < max_int then begin
        let sum = ref 0. in
        List.iter
          (fun (i, hi, crd, vals) ->
            while !i <= hi && crd.(!i) = mincol do
              sum := !sum +. A1.get vals !i;
              incr i
            done)
          cursors;
        emit mincol !sum;
        step ()
      end
    in
    step ()
  in
  let counts = Array.make rows 0 in
  for r = 0 to rows - 1 do
    merge_row r (fun _ _ -> counts.(r) <- counts.(r) + 1)
  done;
  let st = Assemble.stage ~rows ~count:(fun r -> counts.(r)) in
  Assemble.fill st
    ~row_fill:(fun r emit -> merge_row r emit)
    ~name ~dims:[| rows; cols |]

let pairwise_add3 machine lay ~insert_flops ~name b c d =
  let sum = seq_add3 ~name:("A_" ^ name) b c d in
  (* tmp = B + C (adding [c] twice only perturbs values, not pattern). *)
  let tmp = seq_add3 ~name:(name ^ "_tmp") b c c in
  let counts t1 t2 =
    Array.map2 ( + ) (row_block_nnz t1 ~blocks:lay.ranks) (row_block_nnz t2 ~blocks:lay.ranks)
  in
  let pass counts_in (out : Tensor.t) =
    balance_time machine lay (fun n -> (float_of_int n, 32. *. float_of_int n)) counts_in
    +. share_time machine ~den:1
         ~flops:
           (insert_flops *. float_of_int (Tensor.nnz out)
           /. float_of_int (Machine.pieces machine))
         ~bytes:0.
    +. barrier machine lay
  in
  (sum, tmp, pass (counts b c) tmp +. pass (counts tmp d) sum)

let seq_sddmm (b : Tensor.t) (c : Dense.mat) (d : Dense.mat) (a : Tensor.t) =
  let pos = (Tensor.pos_of b 1).Region.data in
  let crd = (Tensor.crd_of b 1).Region.data in
  let vals = b.Tensor.vals.Region.F.data in
  let av = a.Tensor.vals.Region.F.data in
  let kk = c.Dense.cols in
  for r = 0 to b.Tensor.dims.(0) - 1 do
    let lo, hi = pos.(r) in
    for p = lo to hi do
      let j = crd.(p) in
      let acc = ref 0. in
      for k = 0 to kk - 1 do
        acc := !acc +. (c.Dense.data.((r * kk) + k) *. d.Dense.data.((k * d.Dense.cols) + j))
      done;
      A1.set av p (A1.get av p +. (A1.get vals p *. !acc))
    done
  done

let seq_spttv (b : Tensor.t) (c : Dense.vec) (a : Tensor.t) =
  (* b is (Dense, Compressed, Compressed); a shares the first two levels. *)
  let pos2 = (Tensor.pos_of b 2).Region.data in
  let crd2 = (Tensor.crd_of b 2).Region.data in
  let vals = b.Tensor.vals.Region.F.data in
  let av = a.Tensor.vals.Region.F.data in
  let cd = c.Dense.data in
  for q = 0 to Array.length pos2 - 1 do
    let lo, hi = pos2.(q) in
    let acc = ref 0. in
    for p = lo to hi do
      acc := !acc +. (A1.get vals p *. cd.(crd2.(p)))
    done;
    A1.set av q (A1.get av q +. !acc)
  done

let seq_mttkrp (b : Tensor.t) (c : Dense.mat) (d : Dense.mat) (a : Dense.mat) =
  let cols = a.Dense.cols in
  Tensor.iter_nnz b (fun coords _ v ->
      let i = coords.(0) and j = coords.(1) and k = coords.(2) in
      for l = 0 to cols - 1 do
        a.Dense.data.((i * cols) + l) <-
          a.Dense.data.((i * cols) + l)
          +. (v *. c.Dense.data.((j * cols) + l) *. d.Dense.data.((k * cols) + l))
      done)
