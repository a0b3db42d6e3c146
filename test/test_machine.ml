open Spdistal_runtime

let m_cpu = Machine.make ~kind:Machine.Cpu [| 4 |]
let m_gpu = Machine.make ~kind:Machine.Gpu [| 8 |]

let test_shape () =
  Alcotest.(check int) "pieces" 4 (Machine.pieces m_cpu);
  Alcotest.(check int) "cpu nodes" 4 (Machine.nodes m_cpu);
  Alcotest.(check int) "gpu nodes (4/node)" 2 (Machine.nodes m_gpu);
  Alcotest.(check int) "gpu node of piece 5" 1 (Machine.node_of_piece m_gpu 5);
  let m2 = Machine.make ~kind:Machine.Cpu [| 2; 3 |] in
  Alcotest.(check int) "2-D grid pieces" 6 (Machine.pieces m2);
  Alcotest.check_raises "bad grid"
    (Error.Error
       {
         Error.phase = Error.Config;
         kernel = None;
         piece = None;
         node = None;
         what = "machine grid dimensions must be positive";
       })
    (fun () -> ignore (Machine.make ~kind:Machine.Cpu [| 0 |]))

let test_compute_time () =
  (* Memory-bound: bytes dominate. *)
  let t = Machine.compute_time m_cpu ~flops:1. ~bytes:340e9 in
  Helpers.check_float "bw-bound 1s" 1. t;
  (* Flop-bound. *)
  let t = Machine.compute_time m_cpu ~flops:1e12 ~bytes:1. in
  Helpers.check_float "flop-bound 1s" 1. t;
  (* A GPU node (4 pieces in parallel) outperforms a CPU node, though a
     single GPU's effective sparse throughput is below the 40-core node
     aggregate (see the Machine.lassen comment / paper Fig. 12). *)
  Alcotest.(check bool) "gpu node faster than cpu node" true
    (Machine.compute_time m_gpu ~flops:0. ~bytes:1e9
    < 4. *. Machine.compute_time m_cpu ~flops:0. ~bytes:1e9)

let test_p2p () =
  Helpers.check_float "zero bytes free" 0.
    (Machine.p2p_time m_cpu ~intra_node:false ~bytes:0.);
  Helpers.check_float "cpu intra-node free" 0.
    (Machine.p2p_time m_cpu ~intra_node:true ~bytes:1e6);
  Alcotest.(check bool) "gpu intra-node rides nvlink" true
    (Machine.p2p_time m_gpu ~intra_node:true ~bytes:1e6 > 0.);
  Alcotest.(check bool) "network includes latency" true
    (Machine.p2p_time m_cpu ~intra_node:false ~bytes:1.
    >= Machine.lassen.Machine.net_alpha)

let test_collectives () =
  Helpers.check_float "bcast on 1 piece free" 0.
    (Machine.bcast_time (Machine.make ~kind:Machine.Cpu [| 1 |]) ~bytes:1e6);
  Alcotest.(check bool) "reduce costs twice the bandwidth of bcast" true
    (Machine.reduce_time m_cpu ~bytes:1e8 > Machine.bcast_time m_cpu ~bytes:1e8)

let test_overheads () =
  Alcotest.(check bool) "launch overhead grows with pieces" true
    (Machine.launch_overhead (Machine.make ~kind:Machine.Cpu [| 64 |])
    > Machine.launch_overhead m_cpu);
  Helpers.check_float "barrier on 1 piece free" 0.
    (Machine.barrier_time (Machine.make ~kind:Machine.Cpu [| 1 |]))

let test_scaling () =
  let s = Machine.scale_params 100. Machine.lassen in
  Helpers.check_float "rates scale" (Machine.lassen.Machine.cpu_flops /. 100.)
    s.Machine.cpu_flops;
  Helpers.check_float "capacity scales" (Machine.lassen.Machine.gpu_mem /. 100.)
    s.Machine.gpu_mem;
  Helpers.check_float "latency does not scale" Machine.lassen.Machine.net_alpha
    s.Machine.net_alpha;
  (* Scale invariance: workload scaled with the machine keeps its time. *)
  let m1 = Machine.make ~kind:Machine.Cpu [| 2 |] in
  let m2 = Machine.make ~params:s ~kind:Machine.Cpu [| 2 |] in
  Helpers.check_float "scaled run = full-size run"
    (Machine.compute_time m1 ~flops:1e10 ~bytes:1e10)
    (Machine.compute_time m2 ~flops:1e8 ~bytes:1e8)

let test_cost_accounting () =
  let c = Cost.create () in
  Cost.add_compute c 1.;
  Cost.add_comm c ~bytes:10. ~messages:2 0.5;
  Cost.add_overhead c 0.25;
  Helpers.check_float "total" 1.75 (Cost.total c);
  Alcotest.(check int) "messages" 2 c.Cost.messages;
  Cost.record_launch_split c ~machine:m_cpu ~comm_times:[| 0.; 0.5; 0.; 0. |]
    ~leaf_times:[| 0.1; 0.; 0.2; 0.05 |];
  Helpers.check_float "critical path added" (1.75 +. 0.5 +. Machine.launch_overhead m_cpu)
    (Cost.total c);
  Alcotest.(check int) "launches" 1 c.Cost.launches;
  Cost.reset c;
  Helpers.check_float "reset" 0. (Cost.total c)

let test_task_work () =
  let open Task in
  let w = { flops = 11.; bytes_read = 22.; bytes_written = 33.; atomics = true } in
  (* Atomic penalty applies on CPU. *)
  let base = leaf_time m_cpu { w with atomics = false } in
  let pen = leaf_time m_cpu w in
  Helpers.check_float "cpu atomic penalty"
    (base *. Machine.lassen.Machine.atomic_penalty_cpu) pen

let test_memstate () =
  let small =
    Machine.make
      ~params:{ Machine.lassen with Machine.gpu_mem = 100. }
      ~kind:Machine.Gpu [| 2 |]
  in
  let ms = Memstate.create small ~uvm:false in
  (match Memstate.ensure ms ~piece:0 ~key:"a" ~bytes:60. with
  | Memstate.Miss b -> Helpers.check_float "miss bytes" 60. b
  | _ -> Alcotest.fail "expected miss");
  (match Memstate.ensure ms ~piece:0 ~key:"a" ~bytes:60. with
  | Memstate.Hit -> ()
  | _ -> Alcotest.fail "expected hit");
  Helpers.check_float "resident" 60. (Memstate.resident_bytes ms ~piece:0);
  (try
     ignore (Memstate.ensure ms ~piece:0 ~key:"b" ~bytes:60.);
     Alcotest.fail "expected OOM"
   with Memstate.Oom _ -> ());
  (* Other piece unaffected. *)
  (match Memstate.ensure ms ~piece:1 ~key:"b" ~bytes:60. with
  | Memstate.Miss _ -> ()
  | _ -> Alcotest.fail "expected miss on piece 1");
  (* UVM pages instead of failing. *)
  let uvm = Memstate.create small ~uvm:true in
  ignore (Memstate.ensure uvm ~piece:0 ~key:"a" ~bytes:80.);
  match Memstate.ensure uvm ~piece:0 ~key:"b" ~bytes:50. with
  | Memstate.Paged over -> Helpers.check_float "paged overflow" 30. over
  | _ -> Alcotest.fail "expected paging"

let suite =
  [
    Alcotest.test_case "machine shape" `Quick test_shape;
    Alcotest.test_case "compute roofline" `Quick test_compute_time;
    Alcotest.test_case "p2p" `Quick test_p2p;
    Alcotest.test_case "collectives" `Quick test_collectives;
    Alcotest.test_case "overheads" `Quick test_overheads;
    Alcotest.test_case "scaled params" `Quick test_scaling;
    Alcotest.test_case "cost accounting" `Quick test_cost_accounting;
    Alcotest.test_case "task work" `Quick test_task_work;
    Alcotest.test_case "memstate" `Quick test_memstate;
  ]
