type work = {
  flops : float;
  bytes_read : float;
  bytes_written : float;
  atomics : bool;
}

let leaf_time machine w =
  let base =
    Machine.compute_time machine ~flops:w.flops
      ~bytes:(w.bytes_read +. w.bytes_written)
  in
  if w.atomics then
    let penalty =
      match machine.Machine.kind with
      | Machine.Cpu -> machine.Machine.params.atomic_penalty_cpu
      | Machine.Gpu -> machine.Machine.params.atomic_penalty_gpu
    in
    base *. penalty
  else base
