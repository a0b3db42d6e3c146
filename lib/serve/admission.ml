(* Admission control: the bounded front door of the serve loop.

   Two structured rejection reasons, both cheap to compute at arrival time
   so a shed job costs the server nothing:

   - [Admission] — the queue is full.  The bound is the backpressure
     mechanism: beyond it, latency grows without helping throughput, so
     excess jobs are rejected immediately instead of queuing into an
     unbounded-latency (and unbounded-memory) backlog.

   - [Deadline] — the job cannot meet its deadline even if admitted: the
     current backlog plus the estimated service time (an EWMA of past
     simulated costs of the same query, priced by the cost clock) already
     exceeds it.  Running it would waste capacity on an answer nobody can
     use, which under load is what collapses a server.

   Degradation ladder: admission tightens as the cluster shrinks.  When
   nodes are blacklisted the service scale (total/alive) inflates every
   estimate and the queue bound contracts proportionally, so a degraded
   server sheds more and promises less instead of missing deadlines it can
   no longer meet. *)

open Spdistal_runtime
module Metrics = Spdistal_obs.Metrics

type t = {
  base_bound : int;
  mutable bound : int;  (* current queue bound (degradation-scaled) *)
  mutable scale : float;  (* service-time inflation, total/alive nodes *)
  estimates : (string, float) Hashtbl.t;  (* per-query EWMA, sim seconds *)
}

let ewma_alpha = 0.3

let create ~queue_bound =
  if queue_bound < 1 then
    Error.fail Error.Config "admission queue bound %d must be >= 1" queue_bound;
  {
    base_bound = queue_bound;
    bound = queue_bound;
    scale = 1.;
    estimates = Hashtbl.create 16;
  }

let estimate t query =
  Option.map (fun e -> e *. t.scale) (Hashtbl.find_opt t.estimates query)

(* Feed one observed service time (simulated seconds, from the cost clock)
   back into the per-query estimate.  Observations are recorded at scale 1
   (the estimate is per-node-count-adjusted on read). *)
let observe t query seconds =
  let seconds = seconds /. t.scale in
  (match Hashtbl.find_opt t.estimates query with
  | None -> Hashtbl.replace t.estimates query seconds
  | Some e ->
      Hashtbl.replace t.estimates query
        (((1. -. ewma_alpha) *. e) +. (ewma_alpha *. seconds)));
  Metrics.set (Metrics.default ())
    ~labels:[ ("query", query) ]
    ~help:"per-query EWMA service-time estimate (scale-1 sim seconds)"
    "spdistal_serve_estimate_seconds"
    (Hashtbl.find t.estimates query)

(* One rung down the degradation ladder: [alive] of [total] nodes remain.
   The queue bound contracts with capacity (floored at 1 so the server
   keeps answering), and estimates inflate by the lost parallelism. *)
let degrade t ~alive ~total =
  if alive < 1 || total < alive then
    Error.fail Error.Config "degrade: alive %d of total %d" alive total;
  t.scale <- float_of_int total /. float_of_int alive;
  t.bound <-
    max 1 (t.base_bound * alive / total)

type decision = Admit | Reject of Error.t

let reject job_what phase fmt =
  Printf.ksprintf
    (fun what ->
      let reason =
        match phase with
        | Error.Admission -> "queue_full"
        | _ -> "hopeless_deadline"
      in
      Metrics.inc (Metrics.default ())
        ~labels:[ ("reason", reason) ]
        ~help:"jobs shed at admission by reason" "spdistal_serve_shed_total";
      Reject
        { Error.phase; kernel = Some job_what; piece = None; node = None; what })
    fmt

let bound t = t.bound

let decide t ~query ~depth ~backlog ~deadline =
  let m = Metrics.default () in
  Metrics.set m ~help:"admitted jobs in flight at the last arrival"
    "spdistal_serve_queue_depth" (float_of_int depth);
  Metrics.set m ~help:"current admission queue bound (degradation-scaled)"
    "spdistal_serve_queue_bound" (float_of_int t.bound);
  if depth >= t.bound then
    reject query Error.Admission
      "queue full: depth %d >= bound %d (backlog %.4f s); retry later" depth
      t.bound backlog
  else
    match estimate t query with
    | Some est when backlog +. est > deadline ->
        reject query Error.Deadline
          "cannot meet deadline %.4f s: backlog %.4f s + estimated service \
           %.4f s"
          deadline backlog est
    | _ -> Admit
