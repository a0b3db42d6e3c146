type vec = { name : string; n : int; data : float array }
type mat = { name : string; rows : int; cols : int; data : float array }

let vec_create name n = { name; n; data = Array.make n 0. }
let vec_init name n f = { name; n; data = Array.init n f }
let vec_get (v : vec) i = v.data.(i)
let vec_set (v : vec) i x = v.data.(i) <- x
let vec_fill (v : vec) x = Array.fill v.data 0 v.n x
let vec_bytes (v : vec) = 8. *. float_of_int v.n

let vec_dist (a : vec) (b : vec) =
  if a.n <> b.n then invalid_arg "Dense.vec_dist";
  let d = ref 0. in
  for i = 0 to a.n - 1 do
    d := Float.max !d (Float.abs (a.data.(i) -. b.data.(i)))
  done;
  !d

let mat_create name rows cols = { name; rows; cols; data = Array.make (rows * cols) 0. }

let mat_init name rows cols f =
  { name; rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let mat_get m i j = m.data.((i * m.cols) + j)
let mat_bytes m = 8. *. float_of_int (m.rows * m.cols)

let mat_dist a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Dense.mat_dist";
  let d = ref 0. in
  for k = 0 to (a.rows * a.cols) - 1 do
    d := Float.max !d (Float.abs (a.data.(k) -. b.data.(k)))
  done;
  !d
