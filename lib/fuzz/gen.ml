(* Random well-formed case generation.  Everything is driven by one splitmix64
   stream seeded from [seed + index * 1000003], so a (seed, index) pair fully
   determines the case.  The sampler only emits cases inside the leaf-fragment
   the compiler supports (one sparse driver per product, pure sums for merges,
   at most one non-driver variable); the checker treats compile-time rejects
   of generated cases as generator bugs. *)

open Spdistal_runtime
open Spdistal_formats

type params = {
  max_dim : int;  (** index-variable dimensions drawn from 1..max_dim *)
  max_pieces : int;  (** 1-D machine grids drawn from 1..max_pieces *)
  fault_prob : float;  (** probability a case carries a fault schedule *)
  gpu_prob : float;  (** probability the machine is a GPU machine *)
}

let default_params =
  { max_dim = 8; max_pieces = 6; fault_prob = 0.25; gpu_prob = 0.15 }

let pick r xs = List.nth xs (Srng.int r (List.length xs))

let chance r p = Srng.float r < p

(* Driver format pools: (level kinds, mode order).  Mode orders other than
   the identity (e.g. CSC) preclude pattern-sharing sparse outputs. *)
let formats2 =
  Level.
    [
      ([| Dense_k; Compressed_k |], [| 0; 1 |]);
      ([| Dense_k; Compressed_k |], [| 1; 0 |]);
      ([| Compressed_k; Compressed_k |], [| 0; 1 |]);
      ([| Dense_k; Dense_k |], [| 0; 1 |]);
      ([| Compressed_nonunique_k; Singleton_k |], [| 0; 1 |]);
      ([| Compressed_k; Dense_k |], [| 0; 1 |]);
    ]

let formats3 =
  Level.
    [
      ([| Dense_k; Compressed_k; Compressed_k |], [| 0; 1; 2 |]);
      ([| Compressed_k; Compressed_k; Compressed_k |], [| 0; 1; 2 |]);
      ([| Dense_k; Dense_k; Compressed_k |], [| 0; 1; 2 |]);
      ([| Compressed_nonunique_k; Singleton_k; Singleton_k |], [| 0; 1; 2 |]);
      ([| Dense_k; Compressed_k; Compressed_k |], [| 1; 0; 2 |]);
      ([| Dense_k; Compressed_nonunique_k; Singleton_k |], [| 0; 1; 2 |]);
    ]

let identity_mode mode = Array.to_list mode = List.init (Array.length mode) Fun.id

(* Data distributions valid for a given operand role. *)
let driver_tdns ~order ~identity =
  [ Spec.T_block 0; Spec.T_block 0; Spec.T_rep; Spec.T_fused ]
  @ (if order >= 2 then [ Spec.T_block (order - 1) ] else [])
  @ if identity then [ Spec.T_pos 0 ] else []

let dense_tdns = function
  | Spec.Dvec, _ -> [ Spec.T_rep; Spec.T_block 0 ]
  | Spec.Dmat, _ -> [ Spec.T_rep; Spec.T_block 0; Spec.T_block 1 ]

let sample_tdns r (spec : Spec.t) =
  let identity = identity_mode spec.driver_mode in
  let order = List.length spec.driver_vars in
  let for_out =
    match spec.out with
    | Spec.Out_dense { o_kind = Dvec; _ } -> [ Spec.T_rep; Spec.T_block 0 ]
    | Spec.Out_dense { o_kind = Dmat; _ } -> (
        match spec.sched with
        | Spec.S_batched _ -> [ Spec.T_block 0; Spec.T_tiled ]
        | _ -> [ Spec.T_rep; Spec.T_block 0; Spec.T_block 1 ])
    | Spec.Out_sparse_prefix { depth; _ } ->
        [ Spec.T_block 0; Spec.T_rep ] @ if depth >= 2 then [ Spec.T_fused ] else []
    | Spec.Out_sparse_merge _ -> [ Spec.T_block 0; Spec.T_rep ]
  in
  let entry name choices = (name, pick r choices) in
  entry (Spec.out_name spec) for_out
  :: entry spec.driver (driver_tdns ~order ~identity)
  :: (if Spec.is_merge spec then
        List.map
          (fun n -> entry n [ Spec.T_block 0; Spec.T_rep ])
          (Spec.merge_names spec)
      else
        List.map
          (fun (f : Spec.factor) -> entry f.f_name (dense_tdns (f.f_kind, f.f_vars)))
          spec.factors)

let sample_merge r ~params ~dseed =
  let max_dim = params.max_dim in
  let vars =
    [ ("i", 1 + Srng.int r max_dim); ("j", 1 + Srng.int r max_dim) ]
  in
  let merge_extra = 1 + Srng.int r 2 in
  let spec : Spec.t =
    {
      vars;
      driver = "B";
      driver_vars = [ "i"; "j" ];
      driver_kinds = [| Level.Dense_k; Level.Compressed_k |];
      driver_mode = [| 0; 1 |];
      density = 0.05 +. (0.45 *. Srng.float r);
      dseed;
      merge_extra;
      factors = [];
      lit = None;
      out = Spec.Out_sparse_merge { o_name = "A" };
      sched = Spec.S_universe { var = "i"; par = chance r 0.7 };
      tdns = [];
      gpu = false;
      grid = [| 1 + Srng.int r params.max_pieces |];
      domains = 1 + Srng.int r 3;
      faults = None;
      workspace = chance r 0.4;
      auto = chance r 0.3;
    }
  in
  { spec with tdns = sample_tdns r spec }

let var_names = [ "i"; "j"; "k" ]

let sample_product r ~params ~dseed =
  let max_dim = params.max_dim in
  let order = if chance r 0.35 then 3 else 2 in
  let driver_vars = List.filteri (fun i _ -> i < order) var_names in
  let vars = List.map (fun v -> (v, 1 + Srng.int r max_dim)) driver_vars in
  let driver_kinds, driver_mode =
    pick r (if order = 2 then formats2 else formats3)
  in
  let identity = identity_mode driver_mode in
  (* Optional extra variable beyond the driver's, either produced (batched
     dense dimension) or reduced (contraction with a dense factor). *)
  let extra =
    if chance r 0.4 then
      Some (("l", 1 + Srng.int r max_dim), chance r 0.5 (* true = output var *))
    else None
  in
  let vars =
    match extra with Some (vd, _) -> vars @ [ vd ] | None -> vars
  in
  let extra_var = Option.map (fun ((v, _), _) -> v) extra in
  let extra_is_out = match extra with Some (_, o) -> o | None -> false in
  (* Dense factors over driver vars plus the extra var.  A reduced extra var
     must be carried by at least one factor. *)
  let factor_names = [ "c"; "D"; "E" ] in
  let n_factors =
    match extra_var with
    | Some _ -> 1 + Srng.int r 2
    | None -> Srng.int r 3
  in
  let factor_vars i =
    match extra_var with
    | Some l when i = 0 ->
        (* carry the extra var; pair with a random driver var half the time *)
        if chance r 0.5 then [ pick r driver_vars; l ] else [ l ]
    | Some l when i = 1 && (not extra_is_out) && chance r 0.5 ->
        (* a second factor over the reduced var, as SDDMM's D(k,j) is: the
           inner reduction of a dot-shaped leaf *)
        let v = pick r driver_vars in
        if chance r 0.5 then [ l; v ] else [ v; l ]
    | _ ->
        if chance r 0.5 then [ pick r driver_vars ]
        else
          let a = pick r driver_vars in
          let b = pick r (List.filter (fun v -> v <> a) driver_vars) in
          [ a; b ]
  in
  let factors =
    List.init n_factors (fun i ->
        let f_vars = factor_vars i in
        {
          Spec.f_name = List.nth factor_names i;
          f_kind = (if List.length f_vars = 1 then Spec.Dvec else Spec.Dmat);
          f_vars;
        })
  in
  let lit =
    if chance r 0.25 then Some (float_of_int (1 + Srng.int r 4) /. 2.) else None
  in
  let out =
    if extra_is_out then
      (* the extra var must appear in the output *)
      let l = Option.get extra_var in
      match Srng.int r 3 with
      | 0 -> Spec.Out_dense { o_name = "a"; o_kind = Spec.Dvec; o_vars = [ l ] }
      | 1 ->
          Spec.Out_dense
            { o_name = "A"; o_kind = Spec.Dmat; o_vars = [ pick r driver_vars; l ] }
      | _ ->
          Spec.Out_dense
            { o_name = "A"; o_kind = Spec.Dmat; o_vars = [ l; pick r driver_vars ] }
    else if identity && chance r 0.3 then
      Spec.Out_sparse_prefix { o_name = "A"; depth = 1 + Srng.int r order }
    else
      match Srng.int r 3 with
      | 0 ->
          Spec.Out_dense
            { o_name = "a"; o_kind = Spec.Dvec; o_vars = [ pick r driver_vars ] }
      | _ ->
          let v1 = pick r driver_vars in
          let v2 = pick r (List.filter (fun v -> v <> v1) driver_vars) in
          Spec.Out_dense { o_name = "A"; o_kind = Spec.Dmat; o_vars = [ v1; v2 ] }
  in
  let out_vs =
    match out with
    | Spec.Out_dense { o_vars; _ } -> o_vars
    | Spec.Out_sparse_prefix { depth; _ } ->
        List.filteri (fun i _ -> i < depth) driver_vars
    | Spec.Out_sparse_merge _ -> driver_vars
  in
  let batched_ok =
    (* batched 2-D distribution: dense matrix output whose last var is the
       extra (dense) variable *)
    match (out, extra_var) with
    | Spec.Out_dense { o_kind = Spec.Dmat; o_vars; _ }, Some l ->
        extra_is_out && List.nth o_vars 1 = l
    | _ -> false
  in
  let sparse_out = match out with Spec.Out_dense _ -> false | _ -> true in
  let sched =
    if batched_ok && chance r 0.5 then Spec.S_batched { par = chance r 0.7 }
    else if chance r 0.6 then
      (* universe distribution; with a sparse prefix output only output vars
         may be distributed (no reduction aliasing) *)
      let candidates = if sparse_out then out_vs else driver_vars in
      Spec.S_universe { var = pick r candidates; par = chance r 0.7 }
    else
      Spec.S_nnz { fuse = 1 + Srng.int r order; par = chance r 0.7 }
  in
  let grid =
    match sched with
    | Spec.S_batched _ -> [| 1 + Srng.int r 3; 1 + Srng.int r 3 |]
    | _ -> [| 1 + Srng.int r params.max_pieces |]
  in
  let spec : Spec.t =
    {
      vars;
      driver = "B";
      driver_vars;
      driver_kinds;
      driver_mode;
      density = 0.05 +. (0.45 *. Srng.float r);
      dseed;
      merge_extra = 0;
      factors;
      lit;
      out;
      sched;
      tdns = [];
      gpu = chance r params.gpu_prob;
      grid;
      domains = 1 + Srng.int r 3;
      faults = None;
      workspace = false;
      auto = chance r 0.3;
    }
  in
  { spec with tdns = sample_tdns r spec }

(* Every draw below needs a non-empty range and a probability. *)
let check_params p =
  let at_least_one what n =
    if n < 1 then Error.fail Error.Config "fuzz: %s must be >= 1, got %d" what n
  and probability what x =
    if not (x >= 0. && x <= 1.) then
      Error.fail Error.Config "fuzz: %s must be in [0, 1], got %g" what x
  in
  at_least_one "max_dim" p.max_dim;
  at_least_one "max_pieces" p.max_pieces;
  probability "fault_prob" p.fault_prob;
  probability "gpu_prob" p.gpu_prob

let case ?(params = default_params) ~seed index =
  check_params params;
  let r = Srng.create (seed + (index * 1000003)) in
  let dseed = Srng.int r 1_000_000 in
  let spec =
    if chance r 0.2 then sample_merge r ~params ~dseed
    else sample_product r ~params ~dseed
  in
  let faults =
    if chance r params.fault_prob then
      Some (Srng.int r 100_000, 0.02 +. (0.1 *. Srng.float r))
    else None
  in
  { spec with faults }
