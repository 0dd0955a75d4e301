(* Recursive-descent parser for the generic IR form emitted by {!Printer}.
   Round-tripping print -> parse -> print is the identity on the text, a
   property the test suite checks with qcheck. *)

open Lexer

type t = {
  lx : Lexer.t;
  values : (string, Ir.value) Hashtbl.t; (* printed name -> value *)
}

let error_at loc fmt =
  Format.kasprintf
    (fun msg ->
      (* the location renders through the diagnostic; keep the message bare *)
      Err.raise_error ~loc "parse error: %s" msg)
    fmt

let error p fmt = error_at (Lexer.tok_loc p.lx) fmt

(* [loc]: where the use is written *)
let lookup_value p ~loc name =
  match Hashtbl.find_opt p.values name with
  | Some v -> v
  | None -> error_at loc "use of undefined value %%%s" name

let define_value p name v =
  if Hashtbl.mem p.values name then error p "redefinition of %%%s" name;
  Hashtbl.add p.values name v

(* ------------------------------------------------------------------ *)
(* Types *)

let scalar_of_ident = function
  | "f16" -> Some Ty.F16
  | "f32" -> Some Ty.F32
  | "f64" -> Some Ty.F64
  | "i1" -> Some Ty.I1
  | "i8" -> Some Ty.I8
  | "i16" -> Some Ty.I16
  | "i32" -> Some Ty.I32
  | "i64" -> Some Ty.I64
  | "index" -> Some Ty.Index
  | "none" -> Some Ty.None_ty
  | _ -> None

let rec parse_ty p : Ty.t =
  match Lexer.token p.lx with
  | IDENT "memref" ->
    consume p.lx;
    expect p.lx LT;
    let shape, elem = parse_shape_elems p in
    expect p.lx GT;
    Ty.Memref (shape, elem)
  | BANG_IDENT "!stencil.field" ->
    consume p.lx;
    expect p.lx LT;
    let bounds, elem = parse_bounds_elems p in
    expect p.lx GT;
    Ty.Field (bounds, elem)
  | BANG_IDENT "!stencil.temp" ->
    consume p.lx;
    expect p.lx LT;
    let ty =
      match Lexer.token p.lx with
      | QUESTION ->
        consume p.lx;
        expect p.lx (IDENT "x");
        Ty.Temp (None, parse_ty p)
      | _ ->
        let bounds, elem = parse_bounds_elems p in
        Ty.Temp (Some bounds, elem)
    in
    expect p.lx GT;
    ty
  | BANG_IDENT "!hls.stream" ->
    consume p.lx;
    expect p.lx LT;
    let elem = parse_ty p in
    expect p.lx GT;
    Ty.Stream elem
  | BANG_IDENT "!llvm.struct" ->
    consume p.lx;
    expect p.lx LT;
    expect p.lx LPAREN;
    let tys = parse_ty_list p in
    expect p.lx RPAREN;
    expect p.lx GT;
    Ty.Struct tys
  | BANG_IDENT "!llvm.array" ->
    consume p.lx;
    expect p.lx LT;
    let n =
      match Lexer.token p.lx with
      | INT n ->
        consume p.lx;
        n
      | tok -> error p "expected array size, found %s" (token_to_string tok)
    in
    expect p.lx (IDENT "x");
    let elem = parse_ty p in
    expect p.lx GT;
    Ty.Array (n, elem)
  | BANG_IDENT "!llvm.ptr" ->
    consume p.lx;
    expect p.lx LT;
    let elem = parse_ty p in
    expect p.lx GT;
    Ty.Ptr elem
  | LPAREN ->
    let args, results = parse_fn_ty p in
    Ty.Func (args, results)
  | IDENT id -> (
    match scalar_of_ident id with
    | Some ty ->
      consume p.lx;
      ty
    | None -> error p "unknown type %s" id)
  | tok -> error p "expected type, found %s" (token_to_string tok)

and parse_ty_list p =
  match Lexer.token p.lx with
  | RPAREN -> []
  | _ ->
    let rec go acc =
      let ty = parse_ty p in
      match Lexer.token p.lx with
      | COMMA ->
        consume p.lx;
        go (ty :: acc)
      | _ -> List.rev (ty :: acc)
    in
    go []

and parse_fn_ty p =
  expect p.lx LPAREN;
  let args = parse_ty_list p in
  expect p.lx RPAREN;
  expect p.lx ARROW;
  expect p.lx LPAREN;
  let results = parse_ty_list p in
  expect p.lx RPAREN;
  (args, results)

and parse_shape_elems p =
  (* ([INT | ?] x)* elem-type *)
  let rec go dims =
    match Lexer.token p.lx with
    | INT n ->
      consume p.lx;
      expect p.lx (IDENT "x");
      go (n :: dims)
    | QUESTION ->
      consume p.lx;
      expect p.lx (IDENT "x");
      go (-1 :: dims)
    | _ ->
      let elem = parse_ty p in
      (List.rev dims, elem)
  in
  go []

and parse_bounds_elems p =
  (* ([l,u] x)+ elem-type *)
  let rec go lbs ubs =
    match Lexer.token p.lx with
    | LBRACKET ->
      consume p.lx;
      let l = parse_int p in
      expect p.lx COMMA;
      let u = parse_int p in
      expect p.lx RBRACKET;
      expect p.lx (IDENT "x");
      go (l :: lbs) (u :: ubs)
    | _ ->
      let elem = parse_ty p in
      ({ Ty.lb = List.rev lbs; ub = List.rev ubs }, elem)
  in
  go [] []

and parse_int p =
  match Lexer.token p.lx with
  | INT n ->
    consume p.lx;
    n
  | tok -> error p "expected integer, found %s" (token_to_string tok)

(* ------------------------------------------------------------------ *)
(* Attributes *)

let rec parse_attr p : Attr.t =
  match Lexer.token p.lx with
  | IDENT "unit" ->
    consume p.lx;
    Attr.Unit
  | IDENT "true" ->
    consume p.lx;
    Attr.Bool true
  | IDENT "false" ->
    consume p.lx;
    Attr.Bool false
  | INT n ->
    consume p.lx;
    Attr.Int n
  | FLOAT f ->
    consume p.lx;
    Attr.Float f
  | STRING s ->
    consume p.lx;
    Attr.Str s
  | AT_ID s ->
    consume p.lx;
    Attr.Sym s
  | LT ->
    consume p.lx;
    expect p.lx LBRACKET;
    let rec go acc =
      match Lexer.token p.lx with
      | RBRACKET ->
        consume p.lx;
        List.rev acc
      | COMMA ->
        consume p.lx;
        go acc
      | _ -> go (parse_int p :: acc)
    in
    let ints = go [] in
    expect p.lx GT;
    Attr.Ints ints
  | LBRACKET ->
    consume p.lx;
    let rec go acc =
      match Lexer.token p.lx with
      | RBRACKET ->
        consume p.lx;
        List.rev acc
      | COMMA ->
        consume p.lx;
        go acc
      | _ -> go (parse_attr p :: acc)
    in
    Attr.Arr (go [])
  | LBRACE ->
    consume p.lx;
    let rec go acc =
      match Lexer.token p.lx with
      | RBRACE ->
        consume p.lx;
        List.rev acc
      | COMMA ->
        consume p.lx;
        go acc
      | IDENT key ->
        consume p.lx;
        expect p.lx EQUAL;
        go ((key, parse_attr p) :: acc)
      | tok -> error p "expected attribute key, found %s" (token_to_string tok)
    in
    Attr.Dict (go [])
  | IDENT _ | BANG_IDENT _ | LPAREN -> Attr.Ty (parse_ty p)
  | tok -> error p "expected attribute, found %s" (token_to_string tok)

let parse_attr_dict p =
  expect p.lx LBRACE;
  let rec go acc =
    match Lexer.token p.lx with
    | RBRACE ->
      consume p.lx;
      List.rev acc
    | COMMA ->
      consume p.lx;
      go acc
    | IDENT key ->
      consume p.lx;
      expect p.lx EQUAL;
      go ((key, parse_attr p) :: acc)
    | tok -> error p "expected attribute key, found %s" (token_to_string tok)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Locations *)

(* The body of a trailing [loc(...)] annotation:
     unknown | "file":L:C | "pass"(loc) | fused[loc, ...] *)
let rec parse_loc_body p : Loc.t =
  match Lexer.token p.lx with
  | IDENT "unknown" ->
    consume p.lx;
    Loc.Unknown
  | IDENT "fused" ->
    consume p.lx;
    expect p.lx LBRACKET;
    let rec go acc =
      match Lexer.token p.lx with
      | RBRACKET ->
        consume p.lx;
        List.rev acc
      | COMMA ->
        consume p.lx;
        go acc
      | _ -> go (parse_loc_body p :: acc)
    in
    Loc.Fused (go [])
  | STRING s -> (
    consume p.lx;
    match Lexer.token p.lx with
    | COLON ->
      consume p.lx;
      let line = parse_int p in
      expect p.lx COLON;
      let col = parse_int p in
      Loc.File (s, line, col)
    | LPAREN ->
      consume p.lx;
      let inner = parse_loc_body p in
      expect p.lx RPAREN;
      Loc.Pass_derived (s, inner)
    | tok ->
      error p "expected ':' or '(' after location string, found %s"
        (token_to_string tok))
  | tok -> error p "expected location, found %s" (token_to_string tok)

(* ------------------------------------------------------------------ *)
(* Operations, blocks, regions *)

let rec parse_op p : Ir.op =
  (* Ops are stamped with the position of their first token unless an
     explicit trailing loc(...) overrides it. *)
  let auto_loc = Lexer.tok_loc p.lx in
  (* optional result list: %0, %1 = *)
  let result_names =
    match Lexer.token p.lx with
    | PCT_ID name ->
      consume p.lx;
      let rec go acc =
        match Lexer.token p.lx with
        | COMMA ->
          consume p.lx;
          (match Lexer.token p.lx with
          | PCT_ID n ->
            consume p.lx;
            go (n :: acc)
          | tok -> error p "expected %%name, found %s" (token_to_string tok))
        | EQUAL ->
          consume p.lx;
          List.rev acc
        | tok -> error p "expected ',' or '=', found %s" (token_to_string tok)
      in
      go [ name ]
    | _ -> []
  in
  let op_name =
    match Lexer.token p.lx with
    | STRING s ->
      consume p.lx;
      s
    | tok -> error p "expected op name string, found %s" (token_to_string tok)
  in
  expect p.lx LPAREN;
  (* (name, value, loc) per operand, resolved where it is written *)
  let operands =
    let rec go acc =
      match Lexer.token p.lx with
      | RPAREN ->
        consume p.lx;
        List.rev acc
      | COMMA ->
        consume p.lx;
        go acc
      | PCT_ID n ->
        let loc = Lexer.tok_loc p.lx in
        let v = lookup_value p ~loc n in
        consume p.lx;
        go ((n, v, loc) :: acc)
      | tok -> error p "expected operand, found %s" (token_to_string tok)
    in
    go []
  in
  let regions =
    match Lexer.token p.lx with
    | LPAREN ->
      consume p.lx;
      let rec go acc =
        match Lexer.token p.lx with
        | RPAREN ->
          consume p.lx;
          List.rev acc
        | COMMA ->
          consume p.lx;
          go acc
        | LBRACE -> go (parse_region p :: acc)
        | tok -> error p "expected region, found %s" (token_to_string tok)
      in
      go []
    | _ -> []
  in
  let attrs =
    match Lexer.token p.lx with LBRACE -> parse_attr_dict p | _ -> []
  in
  expect p.lx COLON;
  let operand_tys, result_tys = parse_fn_ty p in
  if List.length operand_tys <> List.length operands then
    error p "op %s: %d operands but %d operand types" op_name
      (List.length operands) (List.length operand_tys);
  if List.length result_tys <> List.length result_names then
    error p "op %s: %d results named but %d result types" op_name
      (List.length result_names) (List.length result_tys);
  List.iter2
    (fun (name, v, loc) ty ->
      if not (Ty.equal (Ir.Value.ty v) ty) then
        error_at loc "op %s: operand %%%s has type %s, expected %s" op_name
          name
          (Ty.to_string (Ir.Value.ty v))
          (Ty.to_string ty))
    operands operand_tys;
  let operands = List.map (fun (_, v, _) -> v) operands in
  let loc =
    match Lexer.token p.lx with
    | IDENT "loc" ->
      consume p.lx;
      expect p.lx LPAREN;
      let l = parse_loc_body p in
      expect p.lx RPAREN;
      l
    | _ -> auto_loc
  in
  let op =
    Ir.Op.create ~name:op_name ~operands ~result_tys ~attrs ~regions ~loc ()
  in
  List.iteri
    (fun i name -> define_value p name (Ir.Op.result op i))
    result_names;
  op

and parse_region p : Ir.region =
  expect p.lx LBRACE;
  let parse_block_header () =
    match Lexer.token p.lx with
    | CARET_ID _ ->
      consume p.lx;
      expect p.lx LPAREN;
      let rec go acc =
        match Lexer.token p.lx with
        | RPAREN ->
          consume p.lx;
          List.rev acc
        | COMMA ->
          consume p.lx;
          go acc
        | PCT_ID name ->
          consume p.lx;
          expect p.lx COLON;
          let ty = parse_ty p in
          go ((name, ty) :: acc)
        | tok -> error p "expected block arg, found %s" (token_to_string tok)
      in
      let args = go [] in
      expect p.lx COLON;
      Some args
    | _ -> None
  in
  let parse_block_body block =
    let rec go () =
      match Lexer.token p.lx with
      | RBRACE | CARET_ID _ -> ()
      | _ ->
        Ir.Block.append block (parse_op p);
        go ()
    in
    go ()
  in
  let rec parse_blocks acc =
    match Lexer.token p.lx with
    | RBRACE ->
      consume p.lx;
      List.rev acc
    | _ ->
      let block =
        match parse_block_header () with
        | Some args ->
          let b = Ir.Block.create ~arg_tys:(List.map snd args) () in
          List.iteri (fun i (name, _) -> define_value p name (Ir.Block.arg b i)) args;
          b
        | None -> Ir.Block.create ()
      in
      parse_block_body block;
      parse_blocks (block :: acc)
  in
  let blocks =
    match Lexer.token p.lx with
    | RBRACE ->
      (* empty region still owns one empty block *)
      consume p.lx;
      [ Ir.Block.create () ]
    | _ -> parse_blocks []
  in
  Ir.Region.create ~blocks ()

let parse_string ?file src =
  let p = { lx = Lexer.create ?file src; values = Hashtbl.create 64 } in
  let op = parse_op p in
  (match Lexer.token p.lx with
  | EOF -> ()
  | tok -> error p "trailing input: %s" (token_to_string tok));
  op

let parse_module ?file src =
  let op = parse_string ?file src in
  if Ir.Op.name op <> "builtin.module" then
    Err.raise_error "expected builtin.module at top level, found %s"
      (Ir.Op.name op);
  op
