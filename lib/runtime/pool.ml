type t = {
  mutex : Mutex.t;
  pending : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  nworkers : int;
  mutable jobs_run : int;  (** jobs dequeued over the pool's lifetime *)
  mutable peak_queue : int;  (** deepest the shared queue has ever been *)
}

type stats = { st_jobs_run : int; st_peak_queue : int }

let workers t = t.nworkers

(* Must be called with [t.mutex] held. *)
let note_dequeue t = t.jobs_run <- t.jobs_run + 1

let stats t =
  Mutex.lock t.mutex;
  let s = { st_jobs_run = t.jobs_run; st_peak_queue = t.peak_queue } in
  Mutex.unlock t.mutex;
  s

let worker_loop t () =
  let rec take () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.stopping then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match Queue.take_opt t.queue with
        | Some job ->
            note_dequeue t;
            Mutex.unlock t.mutex;
            Some job
        | None ->
            Condition.wait t.pending t.mutex;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some job ->
        (* Jobs enqueued by [map] capture their own exceptions, but a worker
           domain must never die of one that escapes anyway: a dead worker
           silently shrinks the pool for every later launch and poisons
           [shutdown]'s join with a stale exception.  Swallow as a last
           resort — the error surfaces through [map]'s capture path. *)
        (try job () with _ -> ());
        take ()
  in
  take ()

let create n =
  let n = max 0 n in
  let t =
    {
      mutex = Mutex.create ();
      pending = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      domains = [];
      nworkers = n;
      jobs_run = 0;
      peak_queue = 0;
    }
  in
  t.domains <- List.init n (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.pending;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Evaluate [f 0 .. f (n-1)] strictly in index order on the calling domain.
   [Array.init]'s evaluation order is unspecified, and callers rely on the
   sequential path being the ascending-order reference execution. *)
let seq_init n f =
  if n = 0 then [||]
  else begin
    let r0 = f 0 in
    let a = Array.make n r0 in
    for i = 1 to n - 1 do
      a.(i) <- f i
    done;
    a
  end

let run_map t f n =
  if n <= 0 then [||]
  else if t.nworkers = 0 || n = 1 then seq_init n f
  else begin
    let results = Array.make n None in
    let done_m = Mutex.create () and done_c = Condition.create () in
    let remaining = ref n in
    (* Exactly one exception (the smallest-index failure, with its original
       backtrace) is re-raised on the calling domain, and only after every
       job has drained — the pool is left reusable. *)
    let first_error = ref None in
    let job i () =
      let r =
        try Ok (f i) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock done_m;
      (match r with
      | Ok v -> results.(i) <- Some v
      | Error err -> (
          match !first_error with
          | Some (j, _) when j < i -> ()
          | _ -> first_error := Some (i, err)));
      decr remaining;
      if !remaining = 0 then Condition.broadcast done_c;
      Mutex.unlock done_m
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (job i) t.queue
    done;
    t.peak_queue <- max t.peak_queue (Queue.length t.queue);
    Condition.broadcast t.pending;
    Mutex.unlock t.mutex;
    (* The caller works the queue too instead of sitting idle, so a pool of
       [w] workers computes with [w + 1] domains. *)
    let rec help () =
      Mutex.lock t.mutex;
      let j = Queue.take_opt t.queue in
      if Option.is_some j then note_dequeue t;
      Mutex.unlock t.mutex;
      match j with
      | Some job ->
          job ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock done_m;
    while !remaining > 0 do
      Condition.wait done_c done_m
    done;
    Mutex.unlock done_m;
    match !first_error with
    | Some (_, (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.mapi
          (fun i -> function
            | Some v -> v
            | None ->
                Error.fail ~piece:i Error.Launch
                  "domain pool: piece job %d of %d finished without a result"
                  i n)
          results
  end

(* Ambient metrics, noted on the calling domain after the launch drains so
   the counters are deterministic (piece counts don't depend on --domains).
   Worker count and queue depth are configuration/wall facts, so those two
   gauges are wall-flagged out of the deterministic snapshot. *)
let note_metrics t n =
  let open Spdistal_obs in
  let m = Metrics.default () in
  Metrics.inc m ~by:(float_of_int n)
    ~help:"pieces mapped through the domain pool" "spdistal_pool_jobs_total";
  Metrics.set m
    ~help:"pieces in flight in the most recent pool launch"
    "spdistal_pool_occupancy" (float_of_int n);
  Metrics.set m ~wall:true "spdistal_pool_workers" (float_of_int t.nworkers);
  Metrics.set m ~wall:true "spdistal_pool_queue_peak"
    (float_of_int (stats t).st_peak_queue)

let map t f n =
  let r = run_map t f n in
  if n > 0 then note_metrics t n;
  r

(* ------------------------------------------------------------------ *)
(* Profiled mapping: worker occupancy for the observability layer.      *)
(* ------------------------------------------------------------------ *)

type job_prof = { pj_domain : int; pj_start : float; pj_stop : float }

let map_prof t f n =
  map t
    (fun i ->
      let start = Unix.gettimeofday () in
      let v = f i in
      ( v,
        {
          pj_domain = (Domain.self () :> int);
          pj_start = start;
          pj_stop = Unix.gettimeofday ();
        } ))
    n

(* ------------------------------------------------------------------ *)
(* Shared pools, keyed by worker count.                                 *)
(* ------------------------------------------------------------------ *)

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()

let get n =
  let n = max 0 n in
  Mutex.lock registry_mutex;
  let p =
    match Hashtbl.find_opt registry n with
    | Some p -> p
    | None ->
        let p = create n in
        Hashtbl.add registry n p;
        p
  in
  Mutex.unlock registry_mutex;
  p

let shutdown_all () =
  Mutex.lock registry_mutex;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex;
  List.iter shutdown pools

let () = at_exit shutdown_all

let effective_workers requested =
  if requested <= 1 then 0
  else
    (* The reducing domain participates, so [requested] parallel pieces need
       [requested - 1] extra domains; cap at the host's recommendation but
       keep at least one worker so the parallel path stays exercisable (and
       testable) on single-core hosts. *)
    min (requested - 1) (max 1 (Domain.recommended_domain_count () - 1))
