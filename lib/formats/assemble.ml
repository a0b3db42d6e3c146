open Spdistal_runtime

type staged = { pos : (int * int) array; total : int }

let stage ~rows ~count =
  let pos = Array.make rows (0, -1) in
  let cursor = ref 0 in
  for r = 0 to rows - 1 do
    let c = count r in
    pos.(r) <- (!cursor, !cursor + c - 1);
    cursor := !cursor + c
  done;
  { pos; total = !cursor }

let fill st ~row_fill ~name ~dims =
  let crd = Array.make (max st.total 1) 0 in
  let vals = Array.make (max st.total 1) 0. in
  Array.iteri
    (fun r (lo, hi) ->
      let k = ref lo in
      let emit col v =
        if !k > hi then invalid_arg "Assemble.fill: row overflow";
        crd.(!k) <- col;
        vals.(!k) <- v;
        incr k
      in
      row_fill r emit;
      if !k <> hi + 1 then invalid_arg "Assemble.fill: row underflow")
    st.pos;
  {
    Tensor.name;
    dims;
    mode_order = [| 0; 1 |];
    levels =
      [|
        Level.Dense { dim = Array.length st.pos };
        Level.Compressed
          {
            pos = Region.of_array (name ^ ".pos") st.pos;
            crd = Region.of_array (name ^ ".crd") (Array.sub crd 0 (max st.total 1));
          };
      |];
    vals = Region.F.of_array (name ^ ".vals") (Array.sub vals 0 (max st.total 1));
  }

let copy_pattern ~name ?levels (src : Tensor.t) =
  let keep = match levels with Some k -> k | None -> Array.length src.levels in
  if keep <= 0 || keep > Array.length src.levels then
    Error.fail ~kernel:src.name Error.Config
      "copy_pattern: cannot keep %d of %d levels" keep (Array.length src.levels);
  let levels = Array.sub src.levels 0 keep in
  let mode_order = Array.sub src.mode_order 0 keep in
  (* The kept modes must form a prefix permutation so logical dims make
     sense on their own. *)
  Array.iter
    (fun m ->
      if m >= keep then
        Error.fail ~kernel:src.name Error.Config
          "copy_pattern: the first %d storage levels hold logical dimension %d, \
           so their mode order is not a prefix permutation"
          keep m)
    mode_order;
  let dims = Array.init keep (fun d -> src.dims.(d)) in
  let extent =
    Array.fold_left
      (fun e l -> Level.extent ~parent_extent:e l)
      1 levels
  in
  {
    Tensor.name;
    dims;
    mode_order;
    levels;
    vals = Region.F.create (name ^ ".vals") (max extent 1) 0.;
  }
