type 'a t = { name : string; id : int; ispace : Iset.t; data : 'a array }

let next_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

let create name n init =
  { name; id = next_id (); ispace = Iset.range n; data = Array.make (max n 0) init }

let of_array name a =
  { name; id = next_id (); ispace = Iset.range (Array.length a); data = a }

let subregion r is =
  if not (Iset.subset is r.ispace) then
    Error.fail ~kernel:r.name Error.Partition_eval
      "Region.subregion: not a subset";
  { r with ispace = is }

let get r i =
  assert (Iset.mem i r.ispace);
  r.data.(i)

(* Index regions hold sparse patterns (pos/crd), so a write through [set]
   may change a pattern in place; the stamp lets holders of anything derived
   from a pattern (cache keys) tell in O(1) that no such write happened
   since they derived it. *)
let generation_counter = Atomic.make 0
let generation () = Atomic.get generation_counter

let set r i v =
  assert (Iset.mem i r.ispace);
  r.data.(i) <- v;
  Atomic.incr generation_counter

let size r = Iset.cardinal r.ispace
let extent r = Array.length r.data
let iter f r = Iset.iter (fun i -> f i r.data.(i)) r.ispace
let fold f r init = Iset.fold (fun i acc -> f i r.data.(i) acc) r.ispace init
let bytes ~elt_bytes r = elt_bytes * size r

(* Float regions over Bigarray storage: unboxed, GC-opaque, C-layout value
   buffers for tensor values, matching the flat buffers a real runtime hands
   to compiled leaf tasks.  Index storage stays on ['a t] (OCaml int arrays
   are already unboxed). *)
module F = struct
  module A1 = Bigarray.Array1

  type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

  type t = { name : string; id : int; ispace : Iset.t; data : buf }

  let alloc n : buf = A1.create Bigarray.float64 Bigarray.c_layout (max n 0)

  let create name n init =
    let data = alloc n in
    A1.fill data init;
    { name; id = next_id (); ispace = Iset.range n; data }

  let of_array name (a : float array) =
    let n = Array.length a in
    let data = alloc n in
    for i = 0 to n - 1 do
      A1.unsafe_set data i (Array.unsafe_get a i)
    done;
    { name; id = next_id (); ispace = Iset.range n; data }

  let to_array r = Array.init (A1.dim r.data) (A1.get r.data)

  let copy r =
    let data = alloc (A1.dim r.data) in
    A1.blit r.data data;
    { r with id = next_id (); data }

  let get r i =
    assert (Iset.mem i r.ispace);
    A1.get r.data i

  let set r i v =
    assert (Iset.mem i r.ispace);
    A1.set r.data i v

  let size r = Iset.cardinal r.ispace
  let extent r = A1.dim r.data
  let iter f r = Iset.iter (fun i -> f i (A1.get r.data i)) r.ispace
  let fold f r init = Iset.fold (fun i acc -> f i (A1.get r.data i) acc) r.ispace init
  let bytes r = 8 * size r
end
