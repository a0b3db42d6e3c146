exception Oom of string

type fetch = Hit | Miss of float | Paged of float

type t = {
  capacity : float;
  uvm : bool;
  resident : float array;  (** bytes per piece *)
  tables : (string, float) Hashtbl.t array;  (** key -> bytes, per piece *)
}

let create machine ~uvm =
  let n = Machine.pieces machine in
  {
    capacity = Machine.piece_mem machine;
    uvm;
    resident = Array.make n 0.;
    tables = Array.init n (fun _ -> Hashtbl.create 16);
  }

let ensure t ~piece ~key ~bytes =
  let tbl = t.tables.(piece) in
  match Hashtbl.find_opt tbl key with
  | Some _ -> Hit
  | None ->
      let after = t.resident.(piece) +. bytes in
      if after > t.capacity && not t.uvm then
        raise
          (Oom
             (Printf.sprintf
                "piece %d: %.2e B requested for %s, %.2e/%.2e B resident"
                piece bytes key t.resident.(piece) t.capacity));
      Hashtbl.replace tbl key bytes;
      t.resident.(piece) <- after;
      if after > t.capacity then Paged (after -. t.capacity) else Miss bytes

let resident_bytes t ~piece = t.resident.(piece)
