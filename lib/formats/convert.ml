let csr_to_csc t =
  Tensor.csc ~name:(t.Tensor.name ^ "_csc") (Tensor.to_coo t)

let csc_to_csr t =
  Tensor.csr ~name:(t.Tensor.name ^ "_csr") (Tensor.to_coo t)

let transpose ~name t =
  if Tensor.order t <> 2 then invalid_arg "Convert.transpose: order <> 2";
  let coo = Tensor.to_coo t in
  let swapped = Coo.permute coo [| 1; 0 |] in
  Tensor.of_coo ~name
    ~formats:(Array.map Level.kind t.Tensor.levels)
    swapped
