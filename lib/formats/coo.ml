open Spdistal_runtime

type t = { dims : int array; coords : int array array; vals : float array }

let order t = Array.length t.dims
let nnz t = Array.length t.vals

let make dims entries =
  let order = Array.length dims in
  let n = List.length entries in
  let coords = Array.init order (fun _ -> Array.make n 0) in
  let vals = Array.make n 0. in
  List.iteri
    (fun k (c, v) ->
      if Array.length c <> order then
        Error.fail Error.Config "Coo.make: arity mismatch";
      Array.iteri
        (fun d cd ->
          if cd < 0 || cd >= dims.(d) then
            Error.fail Error.Config
              "Coo.make: coord %d out of bounds [0,%d) in dim %d" cd dims.(d) d;
          coords.(d).(k) <- cd)
        c;
      vals.(k) <- v)
    entries;
  { dims; coords; vals }

(* Each entry's rank in lexicographic order, [Σ coord·stride] over
   row-major strides: exact while the product of the dims fits an int. *)
let keys t =
  let n = nnz t in
  let keys = Array.make n 0 and stride = ref 1 in
  for d = order t - 1 downto 0 do
    let dim = t.dims.(d) and cd = t.coords.(d) in
    if dim > 0 && !stride > max_int / dim then
      Error.fail Error.Config "Coo.sort_dedup: dims %s overflow an int key"
        (String.concat "x" (Array.to_list (Array.map string_of_int t.dims)));
    for k = 0 to n - 1 do
      let c = cd.(k) in
      if c < 0 || c >= dim then
        Error.fail Error.Config
          "Coo.sort_dedup: coord %d out of bounds [0,%d) in dim %d" c dim d;
      keys.(k) <- keys.(k) + (c * !stride)
    done;
    stride := !stride * dim
  done;
  keys

let sort_dedup ?(drop_zeros = false) t =
  let n = nnz t in
  let keys = keys t in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> Int.compare keys.(i) keys.(j)) idx;
  (* Walk sorted entries, summing runs of equal keys. *)
  let coords = Array.map (fun _ -> Array.make n 0) t.coords in
  let vals = Array.make n 0. in
  let m = ref 0 and i = ref 0 in
  while !i < n do
    let k = idx.(!i) in
    let acc = ref t.vals.(k) in
    incr i;
    while !i < n && keys.(idx.(!i)) = keys.(k) do
      acc := !acc +. t.vals.(idx.(!i));
      incr i
    done;
    if not (drop_zeros && !acc = 0.) then begin
      Array.iteri (fun d out -> out.(!m) <- t.coords.(d).(k)) coords;
      vals.(!m) <- !acc;
      incr m
    end
  done;
  let trim a = if !m = n then a else Array.sub a 0 !m in
  { dims = t.dims; coords = Array.map trim coords; vals = trim vals }

let permute t perm =
  if Array.length perm <> order t then Error.fail Error.Config "Coo.permute";
  {
    dims = Array.map (fun d -> t.dims.(d)) perm;
    coords = Array.map (fun d -> t.coords.(d)) perm;
    vals = t.vals;
  }

let iter f t =
  let ord = order t in
  let c = Array.make ord 0 in
  for k = 0 to nnz t - 1 do
    for d = 0 to ord - 1 do
      c.(d) <- t.coords.(d).(k)
    done;
    f c t.vals.(k)
  done

let to_alist t =
  let acc = ref [] in
  iter (fun c v -> acc := (Array.to_list c, v) :: !acc) t;
  List.rev !acc

let equal a b =
  a.dims = b.dims
  && to_alist (sort_dedup a) = to_alist (sort_dedup b)
