module Error = Spdistal_runtime.Error

type access = { tensor : string; indices : string list }

type expr =
  | Access of access
  | Add of expr * expr
  | Mul of expr * expr
  | Lit of float

type stmt = { lhs : access; rhs : expr }

let access tensor indices = Access { tensor; indices }
let ( + ) a b = Add (a, b)
let ( * ) a b = Mul (a, b)
let assign tensor indices rhs = { lhs = { tensor; indices }; rhs }

let rec expr_accesses = function
  | Access a -> [ a ]
  | Add (a, b) | Mul (a, b) -> expr_accesses a @ expr_accesses b
  | Lit _ -> []

let rhs_accesses s = expr_accesses s.rhs

let index_vars s =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      out := v :: !out
    end
  in
  List.iter note s.lhs.indices;
  List.iter (fun a -> List.iter note a.indices) (rhs_accesses s);
  List.rev !out

let reduction_vars s =
  List.filter (fun v -> not (List.mem v s.lhs.indices)) (index_vars s)

let is_pure_addition s =
  let rec go = function
    | Access _ | Lit _ -> true
    | Add (a, b) -> go a && go b
    | Mul _ -> false
  in
  go s.rhs

let validate ~order_of s =
  let check a =
    let expected = order_of a.tensor in
    if List.length a.indices <> expected then
      Error.fail Error.Compile
        "Tin.validate: %s accessed with %d indices, order %d" a.tensor
        (List.length a.indices) expected
  in
  check s.lhs;
  List.iter check (rhs_accesses s);
  let rhs_vars =
    List.concat_map (fun a -> a.indices) (rhs_accesses s)
  in
  List.iter
    (fun v ->
      if not (List.mem v rhs_vars) then
        Error.fail Error.Compile
          "Tin.validate: lhs var %s not bound on the rhs" v)
    s.lhs.indices

let pp_access fmt a =
  Format.fprintf fmt "%s(%s)" a.tensor (String.concat "," a.indices)

let rec pp_expr fmt = function
  | Access a -> pp_access fmt a
  | Add (a, b) -> Format.fprintf fmt "%a + %a" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf fmt "%a * %a" pp_mul a pp_mul b
  | Lit f -> Format.fprintf fmt "%g" f

and pp_mul fmt = function
  | Add _ as e -> Format.fprintf fmt "(%a)" pp_expr e
  | e -> pp_expr fmt e

let pp fmt s = Format.fprintf fmt "%a = %a" pp_access s.lhs pp_expr s.rhs
let to_string s = Format.asprintf "%a" pp s

(* Recursive-descent parser, the inverse of [pp] ([*] and [+] parse
   left-associative, matching the builders).  Fuzzer reproducers round-trip
   statements through this. *)
let of_string str =
  let ( + ) = Stdlib.( + ) in
  let n = String.length str in
  let pos = ref 0 in
  let exception Fail of string in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip () =
    while
      !pos < n
      &&
      let c = str.[!pos] in
      c = ' ' || c = '\t' || c = '\n' || c = '\r'
    do
      pos := !pos + 1
    done
  in
  let peek () =
    skip ();
    if !pos < n then Some str.[!pos] else None
  in
  let eat c =
    match peek () with
    | Some d when d = c -> pos := !pos + 1
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let ident () =
    skip ();
    let start = !pos in
    while !pos < n && is_ident str.[!pos] do
      pos := !pos + 1
    done;
    if !pos = start then fail "expected identifier";
    String.sub str start (!pos - start)
  in
  let number () =
    skip ();
    let start = !pos in
    if !pos < n && str.[!pos] = '-' then pos := !pos + 1;
    let digits () =
      while !pos < n && str.[!pos] >= '0' && str.[!pos] <= '9' do
        pos := !pos + 1
      done
    in
    digits ();
    if !pos < n && str.[!pos] = '.' then begin
      pos := !pos + 1;
      digits ()
    end;
    if !pos < n && (str.[!pos] = 'e' || str.[!pos] = 'E') then begin
      pos := !pos + 1;
      if !pos < n && (str.[!pos] = '+' || str.[!pos] = '-') then pos := !pos + 1;
      digits ()
    end;
    match float_of_string_opt (String.sub str start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let access_p () =
    let tensor = ident () in
    eat '(';
    let rec vars acc =
      let v = ident () in
      match peek () with
      | Some ',' ->
          eat ',';
          vars (v :: acc)
      | _ ->
          eat ')';
          List.rev (v :: acc)
    in
    { tensor; indices = vars [] }
  in
  let rec atom () =
    match peek () with
    | Some '(' ->
        eat '(';
        let e = expr_p () in
        eat ')';
        e
    | Some c when c = '-' || c = '.' || (c >= '0' && c <= '9') -> Lit (number ())
    | _ -> Access (access_p ())
  and term () =
    let rec go acc =
      match peek () with
      | Some '*' ->
          eat '*';
          go (Mul (acc, atom ()))
      | _ -> acc
    in
    go (atom ())
  and expr_p () =
    let rec go acc =
      match peek () with
      | Some '+' ->
          eat '+';
          go (Add (acc, term ()))
      | _ -> acc
    in
    go (term ())
  in
  try
    let lhs = access_p () in
    eat '=';
    let rhs = expr_p () in
    skip ();
    if !pos <> n then fail "trailing input";
    Ok { lhs; rhs }
  with Fail msg -> Error ("Tin.of_string: " ^ msg)

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> Error.fail Error.Compile "%s" m

let spmv = assign "a" [ "i" ] (access "B" [ "i"; "j" ] * access "c" [ "j" ])

let spmm =
  assign "A" [ "i"; "j" ] (access "B" [ "i"; "k" ] * access "C" [ "k"; "j" ])

let spadd3 =
  assign "A" [ "i"; "j" ]
    (access "B" [ "i"; "j" ] + access "C" [ "i"; "j" ] + access "D" [ "i"; "j" ])

let sddmm =
  assign "A" [ "i"; "j" ]
    (access "B" [ "i"; "j" ] * access "C" [ "i"; "k" ] * access "D" [ "k"; "j" ])

let spttv =
  assign "A" [ "i"; "j" ] (access "B" [ "i"; "j"; "k" ] * access "c" [ "k" ])

let spmttkrp =
  assign "A" [ "i"; "l" ]
    (access "B" [ "i"; "j"; "k" ] * access "C" [ "j"; "l" ] * access "D" [ "k"; "l" ])
