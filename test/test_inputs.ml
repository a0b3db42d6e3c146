(* Operand construction against its reference models: the shifted SpAdd3
   operands ([Kernels.shift_last_dim], a rotation of the stored last level)
   against the COO round trip, and [Coo.sort_dedup] (a sort on int keys)
   against the closure-compare sort.  Both must agree bit for bit. *)

open Spdistal_runtime
open Spdistal_formats

(* --- Reference models ----------------------------------------------------- *)

(* Lower to COO, shift the last coordinate, assemble again. *)
let shift_model ~name ~by (t : Tensor.t) =
  let coo = Tensor.to_coo t in
  let last = Coo.order coo - 1 in
  let d = coo.Coo.dims.(last) in
  let coords =
    Array.mapi
      (fun dim a -> if dim = last then Array.map (fun c -> (c + by) mod d) a else a)
      coo.Coo.coords
  in
  Tensor.of_coo ~name
    ~formats:(Array.map Level.kind t.Tensor.levels)
    { coo with Coo.coords }

(* Heapsort of the entry indices on a lexicographic closure compare, then a
   walk that sums each run of equal coordinates in sorted order. *)
let sort_dedup_model ?(drop_zeros = false) (t : Coo.t) =
  let n = Coo.nnz t and order = Coo.order t in
  let compare_at i j =
    let rec go d =
      if d = order then 0
      else
        let c = compare t.Coo.coords.(d).(i) t.Coo.coords.(d).(j) in
        if c <> 0 then c else go (d + 1)
    in
    go 0
  in
  let idx = Array.init n Fun.id in
  Array.sort compare_at idx;
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let k = idx.(!i) in
    let acc = ref t.Coo.vals.(k) in
    incr i;
    while !i < n && compare_at k idx.(!i) = 0 do
      acc := !acc +. t.Coo.vals.(idx.(!i));
      incr i
    done;
    if not (drop_zeros && !acc = 0.) then out := (k, !acc) :: !out
  done;
  let out = Array.of_list (List.rev !out) in
  {
    Coo.dims = t.Coo.dims;
    coords = Array.map (fun a -> Array.map (fun (k, _) -> a.(k)) out) t.Coo.coords;
    vals = Array.map snd out;
  }

(* --- Bit-level views ------------------------------------------------------ *)

let bits a = Array.map Int64.bits_of_float a

let level_sig = function
  | Level.Dense { dim } -> `Dense dim
  | Level.Compressed { pos; crd } ->
      `Compressed (pos.Region.name, pos.Region.data, crd.Region.name, crd.Region.data)
  | Level.Singleton { crd } -> `Singleton (crd.Region.name, crd.Region.data)

let tensor_sig (t : Tensor.t) =
  ( t.Tensor.name,
    t.Tensor.dims,
    t.Tensor.mode_order,
    Array.map level_sig t.Tensor.levels,
    t.Tensor.vals.Region.F.name,
    bits (Region.F.to_array t.Tensor.vals) )

let coo_sig (t : Coo.t) = (t.Coo.dims, t.Coo.coords, bits t.Coo.vals)

(* --- Generators ----------------------------------------------------------- *)

let layouts =
  Level.
    [
      ("CSR", [| Dense_k; Compressed_k |]);
      ("DCSR", [| Compressed_k; Compressed_k |]);
      ("CSF", [| Dense_k; Compressed_k; Compressed_k |]);
      ("CCC", [| Compressed_k; Compressed_k; Compressed_k |]);
    ]

(* Values whose sums depend on the order they are added in, signed zeros
   and cancelling pairs. *)
let gen_value =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0.; -0.; 1.; -1.; 0.1; 0.2; 0.3; 1e16; -1e16 ]; float_range (-9.) 9. ])

(* Entries over [dims] (none when a dim is 0); small dims force duplicate
   runs. *)
let gen_entries ~max_n dims =
  QCheck.Gen.(
    if Array.exists (( = ) 0) dims then return []
    else
      let* n = int_bound max_n in
      list_repeat n
        (pair (flatten_a (Array.map (fun d -> int_bound (d - 1)) dims)) gen_value))

let show_dims dims = String.concat "x" (Array.to_list (Array.map string_of_int dims))

let arb_shift =
  let gen =
    QCheck.Gen.(
      let* layout, formats = oneofl layouts in
      let* dims = array_repeat (Array.length formats) (int_bound 6) in
      let* entries = gen_entries ~max_n:30 dims in
      let* by = int_bound ((2 * dims.(Array.length dims - 1)) + 2) in
      return (layout, formats, dims, entries, by))
  in
  QCheck.make
    ~print:(fun (layout, _, dims, entries, by) ->
      Printf.sprintf "%s %s, %d entries, by %d" layout (show_dims dims)
        (List.length entries) by)
    gen

let arb_coo =
  let gen =
    QCheck.Gen.(
      let* order = int_range 1 3 in
      let* dims = array_repeat order (int_range 1 4) in
      let* entries = gen_entries ~max_n:40 dims in
      let* drop_zeros = bool in
      return (Coo.make dims entries, drop_zeros))
  in
  QCheck.make
    ~print:(fun (c, drop_zeros) ->
      Printf.sprintf "%s coo, %d entries, drop_zeros %b" (show_dims c.Coo.dims)
        (Coo.nnz c) drop_zeros)
    gen

(* --- The rotation ---------------------------------------------------------- *)

let shift_agrees ~formats ~by coo =
  let t = Tensor.of_coo ~name:"B" ~formats coo in
  tensor_sig (Core.Kernels.shift_last_dim ~name:"C" ~by t)
  = tensor_sig (shift_model ~name:"C" ~by t)

let prop_shift_is_rotation =
  Helpers.qtest ~count:500 "shift_last_dim = COO-route model, bit for bit"
    arb_shift (fun (_, formats, dims, entries, by) ->
      shift_agrees ~formats ~by (Coo.make dims entries))

let test_shift_edges () =
  let csr = Level.[| Dense_k; Compressed_k |] in
  let check what ~formats ~by coo =
    Alcotest.(check bool) what true (shift_agrees ~formats ~by coo)
  in
  let column = Coo.make [| 6; 1 |] [ ([| 1; 0 |], 2.); ([| 4; 0 |], -0.) ] in
  check "a 6x1 matrix shifted by 2" ~formats:csr ~by:2 column;
  check "a 6x1 matrix shifted by 7" ~formats:csr ~by:7 column;
  check "a dimension of 0" ~formats:csr ~by:3 (Coo.make [| 4; 0 |] []);
  check "nnz 0" ~formats:Level.[| Compressed_k; Compressed_k |] ~by:1
    (Coo.make [| 3; 5 |] []);
  (* [of_coo] never stores -0.0, so write one in. *)
  let t = Tensor.csr ~name:"B" column in
  Region.F.set t.Tensor.vals 1 (-0.);
  Alcotest.(check bool) "a stored -0.0" true
    (tensor_sig (Core.Kernels.shift_last_dim ~name:"C" ~by:2 t)
    = tensor_sig (shift_model ~name:"C" ~by:2 t));
  let c = Core.Kernels.shift_last_dim ~name:"C" ~by:2 t in
  Alcotest.(check (list int))
    "columns stay in range" [ 0; 0 ]
    (Array.to_list (Tensor.crd_of c 1).Region.data);
  Alcotest.(check int64)
    "-0.0 is stored as +0.0" 0L
    (Int64.bits_of_float (Region.F.get c.Tensor.vals 1))

let test_shift_refusals () =
  let coo = Coo.make [| 3; 4 |] [ ([| 0; 1 |], 1.); ([| 2; 3 |], 2.) ] in
  List.iter
    (fun (what, t) ->
      match Core.Kernels.shift_last_dim ~name:"C" ~by:1 t with
      | exception Error.Error { Error.phase = Error.Config; _ } -> ()
      | _ -> Alcotest.failf "%s: expected a Config error" what)
    [
      ("non-identity mode order", Tensor.csc ~name:"B" coo);
      ("singleton last level", Tensor.coo_matrix ~name:"B" coo);
      ("dense last level", Tensor.dense_of_coo ~name:"B" coo);
    ]

(* --- The keyed sort --------------------------------------------------------- *)

let prop_sort_dedup_model =
  Helpers.qtest ~count:500 "Coo.sort_dedup = closure-compare model, bit for bit"
    arb_coo (fun (coo, drop_zeros) ->
      coo_sig (Coo.sort_dedup ~drop_zeros coo)
      = coo_sig (sort_dedup_model ~drop_zeros coo))

let test_sort_dedup_runs () =
  (* A run of four duplicates whose sum depends on the order of addition,
     a -0.0, and a run that cancels to zero. *)
  let coo =
    Coo.make [| 3; 3 |]
      [
        ([| 2; 1 |], 1e16); ([| 0; 0 |], -0.); ([| 2; 1 |], 1.); ([| 1; 2 |], 1.);
        ([| 2; 1 |], -1e16); ([| 1; 2 |], -1.); ([| 2; 1 |], 1.); ([| 1; 2 |], 0.);
      ]
  in
  List.iter
    (fun drop_zeros ->
      Alcotest.(check bool)
        (Printf.sprintf "drop_zeros %b" drop_zeros)
        true
        (coo_sig (Coo.sort_dedup ~drop_zeros coo)
        = coo_sig (sort_dedup_model ~drop_zeros coo)))
    [ false; true ]

let test_sort_dedup_key_overflow () =
  match Coo.sort_dedup (Coo.make [| 1 lsl 40; 1 lsl 40 |] []) with
  | exception Error.Error { Error.phase = Error.Config; _ } -> ()
  | _ -> Alcotest.fail "expected a Config error"

let suite =
  [
    prop_shift_is_rotation;
    Alcotest.test_case "shift: edge shapes" `Quick test_shift_edges;
    Alcotest.test_case "shift: typed refusals" `Quick test_shift_refusals;
    prop_sort_dedup_model;
    Alcotest.test_case "sort_dedup: duplicate runs and signed zeros" `Quick
      test_sort_dedup_runs;
    Alcotest.test_case "sort_dedup: key overflow refused" `Quick
      test_sort_dedup_key_overflow;
  ]
