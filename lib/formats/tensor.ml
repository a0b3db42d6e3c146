open Spdistal_runtime

type t = {
  name : string;
  dims : int array;
  mode_order : int array;
  levels : Level.t array;
  vals : Region.F.t;
}

let order t = Array.length t.dims
let nnz t = Region.F.extent t.vals

let bytes t =
  Array.fold_left (fun n l -> n + Level.bytes l) 0 t.levels
  + Region.F.bytes t.vals

let level_extent t k =
  let e = ref 1 in
  for i = 0 to k do
    e := Level.extent ~parent_extent:!e t.levels.(i)
  done;
  !e

let identity n = Array.init n (fun i -> i)

let of_coo ~name ~formats ?mode_order ?(assume_sorted = false) coo =
  let ord = Coo.order coo in
  if Array.length formats <> ord then invalid_arg "Tensor.of_coo: format arity";
  let mode_order = match mode_order with Some p -> p | None -> identity ord in
  let coo =
    let permuted = Coo.permute coo mode_order in
    if assume_sorted then permuted else Coo.sort_dedup permuted
  in
  let n = Coo.nnz coo in
  let dims_storage = coo.Coo.dims in
  (* [pp.(i)] is non-zero [i]'s position at the level under construction. *)
  let pp = Array.make (max n 1) 0 in
  let parent_extent = ref 1 in
  let levels =
    Array.init ord (fun k ->
        let coord i = coo.Coo.coords.(k).(i) in
        match formats.(k) with
        | Level.Dense_k ->
            let dim = dims_storage.(k) in
            for i = 0 to n - 1 do
              pp.(i) <- (pp.(i) * dim) + coord i
            done;
            parent_extent := !parent_extent * dim;
            Level.Dense { dim }
        | Level.Singleton_k ->
            (* One coordinate per parent position: positions pass through.
               Requires unique parent positions (a COO-style non-unique
               ancestor). *)
            for i = 1 to n - 1 do
              if pp.(i) = pp.(i - 1) then
                invalid_arg
                  "Tensor.of_coo: Singleton level under shared parent \
                   positions"
            done;
            (* Exactly one slot per parent position — notably zero slots for
               an empty parent level.  A [max 1] guard here used to mint a
               phantom position on empty tensors, whose partitions then
               escaped the sibling crd regions (found by the fuzzer). *)
            let crd = Array.make !parent_extent 0 in
            for i = 0 to n - 1 do
              crd.(pp.(i)) <- coord i
            done;
            Level.Singleton { crd = Region.of_array (name ^ ".crd") crd }
        | Level.Compressed_k | Level.Compressed_nonunique_k ->
            (* Distinct (parent position, coordinate) pairs appear as
               consecutive runs because the COO is lexicographically sorted
               and parent positions are monotone in sorted order.  The
               non-unique variant (COO row levels) keeps every entry as its
               own position instead of collapsing runs. *)
            let unique = formats.(k) = Level.Compressed_k in
            let firsts = Array.make !parent_extent (-1) in
            let lasts = Array.make !parent_extent (-1) in
            let crd = Array.make n 0 and count = ref 0 in
            let cur_parent = ref (-1) and cur_coord = ref (-1) in
            for i = 0 to n - 1 do
              let p = pp.(i) and c = coord i in
              if (not unique) || p <> !cur_parent || c <> !cur_coord then begin
                let j = !count in
                incr count;
                crd.(j) <- c;
                if firsts.(p) < 0 then firsts.(p) <- j;
                lasts.(p) <- j;
                cur_parent := p;
                cur_coord := c
              end;
              pp.(i) <- !count - 1
            done;
            let crd = if !count = n then crd else Array.sub crd 0 !count in
            (* Normalize empty parents to monotone empty ranges so that
               position lookups can binary search. *)
            let pos = Array.make !parent_extent (0, -1) in
            let cursor = ref 0 in
            for p = 0 to !parent_extent - 1 do
              if firsts.(p) < 0 then pos.(p) <- (!cursor, !cursor - 1)
              else begin
                pos.(p) <- (firsts.(p), lasts.(p));
                cursor := lasts.(p) + 1
              end
            done;
            parent_extent := !count;
            Level.Compressed
              {
                pos = Region.of_array (name ^ ".pos") pos;
                crd = Region.of_array (name ^ ".crd") crd;
              })
  in
  let vals = Array.make !parent_extent 0. in
  for i = 0 to n - 1 do
    vals.(pp.(i)) <- vals.(pp.(i)) +. coo.Coo.vals.(i)
  done;
  let dims = Array.make ord 0 in
  Array.iteri (fun k logical -> dims.(logical) <- dims_storage.(k)) mode_order;
  { name; dims; mode_order; levels; vals = Region.F.of_array (name ^ ".vals") vals }

let csr ~name coo =
  of_coo ~name ~formats:[| Level.Dense_k; Level.Compressed_k |] coo

let csc ~name coo =
  of_coo ~name
    ~formats:[| Level.Dense_k; Level.Compressed_k |]
    ~mode_order:[| 1; 0 |] coo

let dense_of_coo ~name coo =
  of_coo ~name ~formats:(Array.map (fun _ -> Level.Dense_k) coo.Coo.dims) coo

let coo_matrix ~name coo =
  let formats =
    Array.mapi
      (fun i _ ->
        if i = 0 then Level.Compressed_nonunique_k else Level.Singleton_k)
      coo.Coo.dims
  in
  of_coo ~name ~formats coo

let iter_nnz t f =
  let ord = order t in
  let coords = Array.make ord 0 in
  let rec go k parent_pos =
    if k = ord then f coords parent_pos (Region.F.get t.vals parent_pos)
    else
      match t.levels.(k) with
      | Level.Dense { dim } ->
          for c = 0 to dim - 1 do
            coords.(t.mode_order.(k)) <- c;
            go (k + 1) ((parent_pos * dim) + c)
          done
      | Level.Compressed { pos; crd } ->
          let lo, hi = Region.get pos parent_pos in
          for p = lo to hi do
            coords.(t.mode_order.(k)) <- Region.get crd p;
            go (k + 1) p
          done
      | Level.Singleton { crd } ->
          coords.(t.mode_order.(k)) <- Region.get crd parent_pos;
          go (k + 1) parent_pos
  in
  if nnz t > 0 then go 0 0

let to_coo t =
  let acc = ref [] in
  iter_nnz t (fun c _ v -> acc := (Array.copy c, v) :: !acc);
  Coo.make t.dims (List.rev !acc)

let get t coords =
  let ord = order t in
  if Array.length coords <> ord then invalid_arg "Tensor.get";
  let rec go k parent_pos =
    if k = ord then Region.F.get t.vals parent_pos
    else
      let c = coords.(t.mode_order.(k)) in
      match t.levels.(k) with
      | Level.Dense { dim } ->
          if c < 0 || c >= dim then invalid_arg "Tensor.get: out of bounds"
          else go (k + 1) ((parent_pos * dim) + c)
      | Level.Compressed { pos; crd } -> (
          let lo, hi = Region.get pos parent_pos in
          (* Binary search for [c] in the sorted slice crd[lo..hi]. *)
          let rec bs lo hi =
            if lo > hi then None
            else
              let mid = (lo + hi) / 2 in
              let v = Region.get crd mid in
              if v = c then Some mid else if v < c then bs (mid + 1) hi else bs lo (mid - 1)
          in
          match bs lo hi with
          | None -> 0.
          | Some p ->
              (* Non-unique levels (COO rows) store duplicate coordinates:
                 descend through the whole run of equal values.  At most one
                 full path matches, so summing is exact. *)
              let first = ref p in
              while !first > lo && Region.get crd (!first - 1) = c do
                decr first
              done;
              let acc = ref 0. and q = ref !first in
              while !q <= hi && Region.get crd !q = c do
                acc := !acc +. go (k + 1) !q;
                incr q
              done;
              !acc)
      | Level.Singleton { crd } ->
          if Region.get crd parent_pos = c then go (k + 1) parent_pos else 0.
  in
  if nnz t = 0 then 0. else go 0 0

let pos_of t k =
  match t.levels.(k) with
  | Level.Compressed { pos; _ } -> pos
  | Level.Dense _ | Level.Singleton _ ->
      invalid_arg "Tensor.pos_of: level has no pos region"

let crd_of t k =
  match t.levels.(k) with
  | Level.Compressed { crd; _ } | Level.Singleton { crd } -> crd
  | Level.Dense _ -> invalid_arg "Tensor.crd_of: dense level"

let pp fmt t =
  Format.fprintf fmt "@[<v>tensor %s: dims %a, levels [%a], %d stored@]" t.name
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "x")
       Format.pp_print_int)
    (Array.to_list t.dims)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f "; ")
       Level.pp)
    (Array.to_list t.levels)
    (nnz t)
