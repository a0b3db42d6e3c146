open Spdistal_runtime

(* The CSR matrix of paper Fig. 7:
   rows:  0 -> cols {0, 2}; 1 -> {}; 2 -> {1} (a 3x3 example). *)
let pos = Region.of_array "pos" [| (0, 1); (2, 1); (2, 2) |]
let crd = Region.of_array "crd" [| 0; 2; 1 |]

let test_image_ranges () =
  (* Partition rows {0} | {1,2}; image through pos colors crd positions. *)
  let rows = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let p = Dependent.image_ranges pos rows (Iset.range 3) in
  Alcotest.(check (list int)) "row 0 owns crd 0,1" [ 0; 1 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "rows 1-2 own crd 2" [ 2 ]
    (Iset.elements (Partition.subset p 1));
  Alcotest.(check bool) "disjoint" true p.Partition.disjoint

let test_preimage_ranges () =
  (* Partition crd positions {0} | {1,2}; row 0 spans both colors. *)
  let crdp = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let p = Dependent.preimage_ranges pos crdp in
  Alcotest.(check (list int)) "color 0 = row 0" [ 0 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "color 1 = rows 0 and 2" [ 0; 2 ]
    (Iset.elements (Partition.subset p 1));
  Alcotest.(check bool) "aliased (paper Fig. 6b)" false p.Partition.disjoint

let test_image_values () =
  let crdp = Partition.by_bounds (Iset.range 3) [| (0, 1); (2, 2) |] in
  let p = Dependent.image_values crd crdp (Iset.range 3) in
  Alcotest.(check (list int)) "values of positions 0,1" [ 0; 2 ]
    (Iset.elements (Partition.subset p 0));
  Alcotest.(check (list int)) "value of position 2" [ 1 ]
    (Iset.elements (Partition.subset p 1))

(* Property: image/preimage soundness on random CSR structures. *)
let arb_csr_parts =
  let open QCheck in
  let gen =
    Gen.(
      let* coo = QCheck.gen Helpers.arb_coo_matrix in
      let* pieces = int_range 1 4 in
      Gen.return (Spdistal_formats.Tensor.csr ~name:"B" coo, pieces))
  in
  make ~print:(fun (t, p) ->
      Printf.sprintf "%d nnz csr, %d pieces" (Spdistal_formats.Tensor.nnz t) p)
    gen

let prop_image_covers_children =
  Helpers.qtest ~count:100 "image of complete row partition covers all crd"
    arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let rows = Partition.equal_blocks pos.Region.ispace pieces in
        let p = Dependent.image_ranges pos rows crd.Region.ispace in
        Partition.is_complete p && p.Partition.disjoint
      end)

let prop_preimage_sound =
  Helpers.qtest ~count:100
    "preimage contains exactly the rows whose ranges intersect" arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let crdp = Partition.equal_cardinality crd.Region.ispace pieces in
        let p = Dependent.preimage_ranges pos crdp in
        let ok = ref true in
        for c = 0 to pieces - 1 do
          Region.iter
            (fun r (lo, hi) ->
              let expected =
                lo <= hi
                && Iset.intersects_interval (Partition.subset crdp c) lo hi
              in
              if expected <> Iset.mem r (Partition.subset p c) then ok := false)
            pos
        done;
        !ok
      end)

let prop_galois =
  Helpers.qtest ~count:100
    "image of preimage covers the original subsets (Galois-style)"
    arb_csr_parts
    (fun (t, pieces) ->
      let open Spdistal_formats in
      if Tensor.nnz t = 0 then true
      else begin
        let pos = Tensor.pos_of t 1 and crd = Tensor.crd_of t 1 in
        let crdp = Partition.equal_cardinality crd.Region.ispace pieces in
        let rowp = Dependent.preimage_ranges pos crdp in
        let back = Dependent.image_ranges pos rowp crd.Region.ispace in
        Array.for_all2
          (fun orig img -> Iset.subset orig img)
          crdp.Partition.subsets back.Partition.subsets
      end)

(* A source subset that escapes the region fails with a typed error. *)
let expect_partition_eval name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Error.Error")
  | exception Error.Error e ->
      Alcotest.(check string) (name ^ " phase") "partition-eval"
        (Error.phase_name e.Error.phase)

let test_escape_is_typed () =
  let rows = Partition.by_bounds (Iset.range 3) [| (0, 0); (1, 2) |] in
  let pos2 = Region.subregion pos (Iset.range 2) in
  let crd2 = Region.subregion crd (Iset.range 2) in
  expect_partition_eval "image_ranges" (fun () ->
      Dependent.image_ranges pos2 rows (Iset.range 3));
  expect_partition_eval "image_values" (fun () ->
      Dependent.image_values crd2 rows (Iset.range 3));
  expect_partition_eval "by_value_ranges" (fun () ->
      Partition.by_value_ranges ~values:crd2 (Iset.range 3) [| (0, 9) |])

(* Per-element definitions of the operators: each conses one tuple per
   element and sorts, and the preimage walks each color's interval list
   per element.  They are the reference model for the differential
   properties below. *)
module Model = struct
  let image_ranges (pos : (int * int) Region.t) (p : Partition.t) target =
    let subsets =
      Array.map
        (fun src ->
          let ivals =
            Iset.fold
              (fun i acc ->
                let lo, hi = Region.get pos i in
                if hi < lo then acc else (lo, hi) :: acc)
              src []
          in
          Iset.inter target (Iset.of_intervals ivals))
        p.Partition.subsets
    in
    Partition.make ~axis:p.Partition.axis target subsets

  let preimage_ranges (pos : (int * int) Region.t) (p : Partition.t) =
    let buckets = Array.map (fun _ -> ref []) p.Partition.subsets in
    Region.iter
      (fun i (lo, hi) ->
        if lo <= hi then
          Array.iteri
            (fun c dst ->
              if Iset.intersects_interval dst lo hi then
                buckets.(c) := (i, i) :: !(buckets.(c)))
            p.Partition.subsets)
      pos;
    let subsets = Array.map (fun b -> Iset.of_intervals !b) buckets in
    Partition.make ~axis:p.Partition.axis pos.Region.ispace subsets

  let image_values (crd : int Region.t) (p : Partition.t) target =
    let subsets =
      Array.map
        (fun src ->
          let vals = Iset.fold (fun i acc -> Region.get crd i :: acc) src [] in
          Iset.inter target (Iset.of_list vals))
        p.Partition.subsets
    in
    Partition.make ~axis:p.Partition.axis target subsets

  let by_value_ranges ~(values : int Region.t) is ranges =
    let buckets = Array.map (fun _ -> ref []) ranges in
    Iset.iter
      (fun i ->
        let v = Region.get values i in
        Array.iteri
          (fun c (lo, hi) ->
            if v >= lo && v <= hi then buckets.(c) := i :: !(buckets.(c)))
          ranges)
      is;
    Partition.make is (Array.map (fun b -> Iset.of_list !b) buckets)
end

(* A random pointer structure: [pos] ranges point into [0, np), [crd] values
   into [0, nv).  It is a CSR level, a level of a 3-tensor, or synthetic
   arrays whose ranges are out of order, inverted or overlapping and whose
   values stray outside [0, nv).  Either region may be restricted to a
   scattered index space. *)
type structure = {
  kind : string;
  spos : (int * int) Region.t;
  np : int;
  scrd : int Region.t;
  nv : int;
}

let random_iset st u =
  (* Scattered, a block, empty, or everything: the shapes partitions take. *)
  let int = Random.State.int st in
  if u <= 0 then Iset.empty
  else
    match int 4 with
    | 0 -> Iset.of_list (List.init (int (u + 1)) (fun _ -> int u))
    | 1 ->
        let lo = int u in
        Iset.interval lo (lo + int (u - lo))
    | 2 -> Iset.empty
    | _ -> Iset.range u

let random_coo st dims n =
  Spdistal_formats.Coo.make dims
    (List.init n (fun _ ->
         (Array.map (fun d -> Random.State.int st d) dims, 1.)))

let gen_structure st =
  let open Spdistal_formats in
  let int = Random.State.int st in
  let restrict r =
    if int 3 > 0 then r
    else
      Region.subregion r
        (Iset.inter r.Region.ispace (random_iset st (Region.extent r)))
  in
  let base =
    match int 3 with
    | 0 ->
        let rows = 1 + int 12 and cols = 1 + int 12 in
        let t = Tensor.csr ~name:"B" (random_coo st [| rows; cols |] (int 40)) in
        {
          kind = "csr";
          spos = Tensor.pos_of t 1;
          np = Tensor.nnz t;
          scrd = Tensor.crd_of t 1;
          nv = cols;
        }
    | 1 ->
        let dims = Array.init 3 (fun _ -> 1 + int 6) in
        let t =
          Tensor.of_coo ~name:"T"
            ~formats:[| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |]
            (random_coo st dims (int 60))
        in
        let k = 1 + int 2 in
        let crd = Tensor.crd_of t k in
        {
          kind = Printf.sprintf "3-tensor level %d" k;
          spos = Tensor.pos_of t k;
          np = Region.extent crd;
          scrd = crd;
          nv = dims.(k);
        }
    | _ ->
        let n = int 20 and np = 1 + int 30 and nv = 1 + int 30 in
        let range _ =
          let lo = int np in
          (lo, min (np - 1) (lo + int 8 - 2))
        in
        {
          kind = "synthetic";
          spos = Region.of_array "pos" (Array.init n range);
          np;
          scrd = Region.of_array "crd" (Array.init n (fun _ -> int (nv + 4) - 2));
          nv;
        }
  in
  { base with spos = restrict base.spos; scrd = restrict base.scrd }

(* A random partition of [space] (aliased colors allowed), with the colors'
   subsets drawn from a universe of [u] elements. *)
let gen_partition st space u =
  Partition.make space
    (Array.init
       (1 + Random.State.int st 4)
       (fun _ -> Iset.inter space (random_iset st u)))

(* A compressed level as [Tensor.of_coo] stores it, the only [pos] the
   preimage accepts: a level of a CSR, DCSR, CSF or DCSF tensor, sparse
   enough that some parents are empty, with its [pos] restricted to a
   scattered index space a third of the time. *)
let gen_stored st =
  let open Spdistal_formats in
  let int = Random.State.int st in
  let name, formats =
    match int 4 with
    | 0 -> ("csr", [| Level.Dense_k; Level.Compressed_k |])
    | 1 -> ("dcsr", [| Level.Compressed_k; Level.Compressed_k |])
    | 2 -> ("csf", [| Level.Dense_k; Level.Compressed_k; Level.Compressed_k |])
    | _ ->
        ( "dcsf",
          [| Level.Compressed_k; Level.Compressed_k; Level.Compressed_k |] )
  in
  let dims = Array.map (fun _ -> 1 + int 12) formats in
  let t = Tensor.of_coo ~name:"T" ~formats (random_coo st dims (int 60)) in
  let compressed =
    List.filter (fun k -> formats.(k) = Level.Compressed_k)
      (List.init (Array.length formats) Fun.id)
  in
  let k = List.nth compressed (int (List.length compressed)) in
  let pos = Tensor.pos_of t k and crd = Tensor.crd_of t k in
  let spos =
    if int 3 > 0 then pos
    else
      Region.subregion pos
        (Iset.inter pos.Region.ispace (random_iset st (Region.extent pos)))
  in
  {
    kind = Printf.sprintf "%s level %d" name k;
    spos;
    np = Region.extent crd;
    scrd = crd;
    nv = dims.(k);
  }

(* The shape of a scattered column block: a larger CSR level whose crd is
   value-range partitioned into 2-8 colors, so every color holds many
   fragments, then pulled back to rows through pos.  The ranges are either
   a block split of the columns (disjoint) or drawn at random (overlapping
   ones make the partition aliased). *)
type csr_ranges = {
  cpos : (int * int) Region.t;
  ccrd : int Region.t;
  ranges : (int * int) array;
}

let gen_csr_ranges st =
  let open Spdistal_formats in
  let int = Random.State.int st in
  let rows = 5 + int 40 and cols = 8 + int 40 in
  let t = Tensor.csr ~name:"B" (random_coo st [| rows; cols |] (int 400)) in
  let colors = 2 + int 7 in
  let ranges =
    if Random.State.bool st then
      Array.init colors (fun c -> (c * cols / colors, ((c + 1) * cols / colors) - 1))
    else
      Array.init colors (fun _ ->
          let lo = int cols in
          (lo, lo + int (cols - lo)))
  in
  { cpos = Tensor.pos_of t 1; ccrd = Tensor.crd_of t 1; ranges }

let list pp = Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_char f ' ') pp
let pair f (a, b) = Format.fprintf f "(%d,%d)" a b

let target st u = if Random.State.bool st then Iset.range u else random_iset st u

(* Arbitrary pointers for the operators that assume nothing of the values
   they read: [image_ranges], [image_values] and [by_value_ranges]. *)
let arb_dependent_case =
  let gen st =
    let s = gen_structure st in
    ( s,
      gen_partition st s.spos.Region.ispace (Region.extent s.spos),
      gen_partition st s.scrd.Region.ispace (Region.extent s.scrd),
      gen_partition st (Iset.range s.nv) s.nv,
      (target st s.np, target st s.nv),
      gen_csr_ranges st )
  in
  let print (s, pos_p, crd_p, nv_p, (np_target, nv_target), v) =
    Format.asprintf
      "@[<v>%s@,pos %a over %a@,crd %a over %a@,pos source %a@,crd source %a@,\
       crd destination %a@,targets %a %a@,\
       csr crd %a@,value ranges %a@]"
      s.kind (list pair)
      (Array.to_list s.spos.Region.data) Iset.pp s.spos.Region.ispace
      (list Format.pp_print_int) (Array.to_list s.scrd.Region.data)
      Iset.pp s.scrd.Region.ispace Partition.pp pos_p Partition.pp crd_p
      Partition.pp nv_p Iset.pp np_target Iset.pp nv_target
      (list Format.pp_print_int) (Array.to_list v.ccrd.Region.data)
      (list pair) (Array.to_list v.ranges)
  in
  QCheck.make ~print gen

let same (a : Partition.t) (b : Partition.t) =
  Iset.equal a.Partition.parent b.Partition.parent
  && a.Partition.disjoint = b.Partition.disjoint
  && Array.length a.Partition.subsets = Array.length b.Partition.subsets
  && Array.for_all2 Iset.equal a.Partition.subsets b.Partition.subsets

let prop_sweeps_equal_model =
  Helpers.qtest ~count:500 "linear sweeps = per-element model"
    arb_dependent_case
    (fun (s, pos_p, crd_p, nv_p, (np_target, nv_target), v) ->
      same (Dependent.image_ranges s.spos pos_p np_target)
        (Model.image_ranges s.spos pos_p np_target)
      && same (Dependent.image_values s.scrd crd_p nv_target)
           (Model.image_values s.scrd crd_p nv_target)
      &&
      let ranges =
        Array.map (fun sub ->
            if Iset.is_empty sub then (1, 0) else (Iset.min_elt sub, Iset.max_elt sub))
          nv_p.Partition.subsets
      in
      let is = Partition.union_of_colors crd_p in
      same (Partition.by_value_ranges ~values:s.scrd is ranges)
        (Model.by_value_ranges ~values:s.scrd is ranges)
      &&
      let crd_space = v.ccrd.Region.ispace in
      same
        (Partition.by_value_ranges ~values:v.ccrd crd_space v.ranges)
        (Model.by_value_ranges ~values:v.ccrd crd_space v.ranges))

(* A hypersparse crd: a few values per color spread over a hull of a
   million, some outside it, imaged into the whole hull or into a few
   scattered intervals of it.  The emission scan must keep to each color's
   marked span. *)
type hypersparse = { hcrd : int Region.t; hpart : Partition.t; htarget : Iset.t }

let gen_hypersparse st =
  let int = Random.State.int st in
  let u = 1_000_000 in
  let n = 1 + int 40 in
  let hcrd =
    Region.of_array "crd"
      (Array.init n (fun _ -> if int 10 = 0 then u + int 7 - 3 else int u))
  in
  let htarget =
    if Random.State.bool st then Iset.range u
    else
      Iset.of_intervals
        (List.init (1 + int 5) (fun _ ->
             let lo = int u in
             (lo, lo + int (u / 10))))
  in
  { hcrd; hpart = gen_partition st hcrd.Region.ispace n; htarget }

(* Value ranges that give every color at least 1,000 runs: the odd
   positions cycle through the colors, each a value in its color's range
   and block of [w], and the even ones hold a value in no range.  The ranges rise,
   each a block less its last value, which is left in no range; or each
   block is widened over the next one, so the ranges overlap. *)
type many_runs = { mcrd : int Region.t; mranges : (int * int) array }

let gen_many_runs st =
  let int = Random.State.int st in
  let colors = 2 + int 4 and w = 2 + int 19 in
  let rising = Random.State.bool st in
  let wide = if rising then w - 1 else 2 * w in
  let mranges = Array.init colors (fun c -> (c * w, (c * w) + wide - 1)) in
  let outside () =
    if rising && int 4 = 0 then (int colors * w) + w - 1 else (colors + 1) * w
  in
  let mcrd =
    Region.of_array "crd"
      (Array.init (2_000 * colors) (fun i ->
           if i mod 2 = 0 then outside ()
           else fst mranges.(i / 2 mod colors) + int (Int.min w wide)))
  in
  { mcrd; mranges }

(* The range operators on stored levels.  The preimage's destination is a
   random partition of the level's positions (aliased colors allowed) or,
   as SDDMM's [row:j] derives it, a value-range partition of a CSR [crd],
   whose colors hold one fragment per row.  A hypersparse image of values
   and value ranges of many runs per color stress the two operators'
   emission. *)
let arb_stored_case =
  let gen st =
    let s = gen_stored st in
    ( s,
      gen_partition st s.spos.Region.ispace (Region.extent s.spos),
      gen_partition st (Iset.range s.np) s.np,
      target st s.np,
      gen_csr_ranges st,
      gen_hypersparse st,
      gen_many_runs st )
  in
  let print (s, pos_p, np_p, np_target, v, h, m) =
    Format.asprintf
      "@[<v>%s@,pos %a over %a@,pos source %a@,pos destination %a@,target %a@,\
       csr pos %a@,csr crd %a@,value ranges %a@,\
       hypersparse crd %a@,its source %a@,its target %a@,\
       many-runs ranges %a over %d values@]"
      s.kind (list pair)
      (Array.to_list s.spos.Region.data) Iset.pp s.spos.Region.ispace
      Partition.pp pos_p Partition.pp np_p Iset.pp np_target (list pair)
      (Array.to_list v.cpos.Region.data)
      (list Format.pp_print_int) (Array.to_list v.ccrd.Region.data)
      (list pair) (Array.to_list v.ranges)
      (list Format.pp_print_int) (Array.to_list h.hcrd.Region.data)
      Partition.pp h.hpart Iset.pp h.htarget (list pair) (Array.to_list m.mranges)
      (Region.extent m.mcrd)
  in
  QCheck.make ~print gen

let prop_ranges_equal_model =
  Helpers.qtest ~count:500 "range operators on stored levels = per-element model"
    arb_stored_case
    (fun (s, pos_p, np_p, np_target, v, h, m) ->
      same (Dependent.image_ranges s.spos pos_p np_target)
        (Model.image_ranges s.spos pos_p np_target)
      && same (Dependent.preimage_ranges s.spos np_p)
           (Model.preimage_ranges s.spos np_p)
      && (let by_ranges =
            Partition.by_value_ranges ~values:v.ccrd v.ccrd.Region.ispace v.ranges
          in
          same (Dependent.preimage_ranges v.cpos by_ranges)
            (Model.preimage_ranges v.cpos by_ranges))
      && same (Dependent.image_values h.hcrd h.hpart h.htarget)
           (Model.image_values h.hcrd h.hpart h.htarget)
      &&
      let runs =
        Partition.by_value_ranges ~values:m.mcrd m.mcrd.Region.ispace m.mranges
      in
      Array.for_all (fun sub -> Iset.interval_count sub >= 1_000) runs.Partition.subsets
      && same runs (Model.by_value_ranges ~values:m.mcrd m.mcrd.Region.ispace m.mranges))

(* A [pos] whose ranges overlap, or whose empty entry is not [(c, c - 1)],
   fails the preimage with a typed error rather than a wrong answer. *)
let test_unordered_pos_is_typed () =
  let all = Partition.by_bounds (Iset.range 6) [| (0, 5) |] in
  expect_partition_eval "overlapping ranges" (fun () ->
      Dependent.preimage_ranges
        (Region.of_array "pos" [| (0, 3); (2, 5) |])
        all);
  expect_partition_eval "inverted empty range" (fun () ->
      Dependent.preimage_ranges
        (Region.of_array "pos" [| (0, 1); (4, 1); (2, 5) |])
        all)

let suite =
  [
    Alcotest.test_case "image of ranges" `Quick test_image_ranges;
    Alcotest.test_case "preimage of ranges" `Quick test_preimage_ranges;
    Alcotest.test_case "image of values" `Quick test_image_values;
    prop_image_covers_children;
    prop_preimage_sound;
    prop_galois;
    Alcotest.test_case "escaping source is a typed error" `Quick
      test_escape_is_typed;
    Alcotest.test_case "unordered pos is a typed error" `Quick
      test_unordered_pos_is_typed;
    prop_sweeps_equal_model;
    prop_ranges_equal_model;
  ]
