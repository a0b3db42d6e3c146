(* Host speed calibration.

   A shared host speeds up and slows down under its neighbours' load by
   tens of percent over minutes, more than the regressions the benchmark
   must catch.  So a fixed kernel runs between ops: a dependent random walk over 8 MB
   and a streaming pass over 16 MB, both in Bigarrays outside the OCaml
   heap, so neither the garbage collector nor the code under test can
   change its cost.  An op's wall time times [reference_s] over the
   kernel's time around that op is the op's time on a host running at the
   reference speed: the speed at which the kernel takes [reference_s]. *)

open Bigarray

let reference_s = 0.006
let chase_len = 1 lsl 20

(* A full-period linear congruential walk: every slot is visited once per
   [chase_len] steps, in an order the prefetcher cannot follow. *)
let chase =
  Array1.init int c_layout chase_len (fun i ->
      ((i * 1103515245) + 12345) land (chase_len - 1))

let stream = Array1.init float64 c_layout (2 * 1024 * 1024) (fun _ -> 1.0)

let kernel () =
  let j = ref 0 in
  for _ = 1 to 30_000 do
    j := Array1.unsafe_get chase !j
  done;
  let s = ref 0. in
  for i = 0 to Array1.dim stream - 1 do
    s := !s +. Array1.unsafe_get stream i
  done;
  ignore (Sys.opaque_identity (!j, !s))

(* The kernel speeds up over its first few runs while the host settles the
   buffers' pages; [warm_up] runs it past that before any measurement. *)
let warm_up () =
  for _ = 1 to 30 do
    kernel ()
  done

let measure () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [scale kernels i] is the factor for the op timed between [kernels.(i)]
   and [kernels.(i + 1)]: the median of the six kernel times nearest to it,
   which follows the host's speed without taking on one kernel run's
   jitter. *)
let scale kernels i =
  let lo = max 0 (i - 2) and hi = min (Array.length kernels - 1) (i + 3) in
  reference_s /. median (Array.to_list (Array.sub kernels lo (hi - lo + 1)))

(* [around f] runs [f] between three kernel runs on each side; returns its
   result, its wall seconds and its scaled seconds. *)
let around f =
  let kernels () = Array.init 3 (fun _ -> measure ()) in
  let before = kernels () in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let k = Array.append before (kernels ()) in
  (v, dt, dt *. reference_s /. median (Array.to_list k))
