(* A Fortran-flavoured textual kernel language — the PSyclone stand-in.

   The paper drives its pipeline from PSyclone; here a small declarative
   language produces the same {!Ast.kernel} values as the OCaml eDSL, so
   kernels can live in plain text files.  Syntax by example:

     kernel pw_advection
     rank 3
     input u
     input v
     output su
     small tzc1 axis 2
     param dt
     ! comments start with '!' (Fortran style) or '#'
     su = 0.5 * (u[-1,0,0] + u[1,0,0]) * tzc1(0) - dt * v[0,0,0]
     end

   Statement lines are `target = expr`, in execution order.  Expressions:
   field refs `name[o1,...,orank]`, small-array refs `name(offset)`,
   parameters and intermediates by bare name, float literals, `+ - * /`,
   unary `-`, and the functions min, max, sqrt, exp, abs. *)

type token =
  | TInt of int
  | TFloat of float
  | TName of string
  | TPlus
  | TMinus
  | TStar
  | TSlash
  | TLParen
  | TRParen
  | TLBracket
  | TRBracket
  | TComma
  | TEqual
  | TEnd

let fail_at loc fmt = Err.raise_error ~loc fmt

(* Tokens are paired with their 1-based starting column so every parse
   error (and every stencil definition) can name an exact position. *)
let tokenize ~loc_of_col line =
  let n = String.length line in
  let rec go i acc =
    if i >= n then List.rev ((TEnd, i + 1) :: acc)
    else
      let tok1 t = go (i + 1) ((t, i + 1) :: acc) in
      match line.[i] with
      | ' ' | '\t' -> go (i + 1) acc
      | '!' | '#' -> List.rev ((TEnd, i + 1) :: acc)
      | '+' -> tok1 TPlus
      | '-' -> tok1 TMinus
      | '*' -> tok1 TStar
      | '/' -> tok1 TSlash
      | '(' -> tok1 TLParen
      | ')' -> tok1 TRParen
      | '[' -> tok1 TLBracket
      | ']' -> tok1 TRBracket
      | ',' -> tok1 TComma
      | '=' -> tok1 TEqual
      | c when (c >= '0' && c <= '9') || c = '.' ->
        let j = ref i in
        let seen_dot = ref false and seen_exp = ref false in
        let continue_num () =
          !j < n
          &&
          match line.[!j] with
          | '0' .. '9' -> true
          | '.' when not !seen_dot ->
            seen_dot := true;
            true
          | ('e' | 'E') when not !seen_exp ->
            seen_exp := true;
            seen_dot := true;
            (* consume optional sign *)
            if !j + 1 < n && (line.[!j + 1] = '+' || line.[!j + 1] = '-') then
              incr j;
            true
          | _ -> false
        in
        while continue_num () do
          incr j
        done;
        let text = String.sub line i (!j - i) in
        let tok =
          if String.contains text '.' || String.contains text 'e'
             || String.contains text 'E'
          then Option.map (fun f -> TFloat f) (float_of_string_opt text)
          else Option.map (fun i -> TInt i) (int_of_string_opt text)
        in
        let tok =
          match tok with
          | Some t -> t
          | None -> fail_at (loc_of_col (i + 1)) "bad number %S" text
        in
        go !j ((tok, i + 1) :: acc)
      | c
        when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' ->
        let j = ref i in
        while
          !j < n
          &&
          match line.[!j] with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
          | _ -> false
        do
          incr j
        done;
        go !j ((TName (String.sub line i (!j - i)), i + 1) :: acc)
      | c -> fail_at (loc_of_col (i + 1)) "unexpected character %C" c
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Expression parser (recursive descent with precedence) *)

type stream = {
  mutable toks : (token * int) list;
  s_loc_of_col : int -> Loc.t;
  mutable s_col : int; (* column of the most recently returned token *)
}

let peek s = match s.toks with [] -> TEnd | (t, _) :: _ -> t

(* Position of the lookahead (falls back to the last consumed token at
   end of line). *)
let cur_loc s =
  match s.toks with
  | (_, c) :: _ -> s.s_loc_of_col c
  | [] -> s.s_loc_of_col s.s_col

let next s =
  match s.toks with
  | [] -> TEnd
  | (t, c) :: rest ->
    s.toks <- rest;
    s.s_col <- c;
    t

let fail s fmt = fail_at (cur_loc s) fmt

let expect s tok what =
  if next s <> tok then fail_at (s.s_loc_of_col s.s_col) "expected %s" what

let parse_int s =
  match next s with
  | TInt i -> i
  | TMinus -> (
    match next s with TInt i -> -i | _ -> fail s "expected integer")
  | TPlus -> ( match next s with TInt i -> i | _ -> fail s "expected integer")
  | _ -> fail s "expected integer"

let functions = [ "min"; "max"; "sqrt"; "exp"; "abs" ]

let rec parse_expr s = parse_additive s

and parse_additive s =
  let lhs = parse_multiplicative s in
  let rec go lhs =
    match peek s with
    | TPlus ->
      ignore (next s);
      go (Ast.Binop (Ast.Add, lhs, parse_multiplicative s))
    | TMinus ->
      ignore (next s);
      go (Ast.Binop (Ast.Sub, lhs, parse_multiplicative s))
    | _ -> lhs
  in
  go lhs

and parse_multiplicative s =
  let lhs = parse_unary s in
  let rec go lhs =
    match peek s with
    | TStar ->
      ignore (next s);
      go (Ast.Binop (Ast.Mul, lhs, parse_unary s))
    | TSlash ->
      ignore (next s);
      go (Ast.Binop (Ast.Div, lhs, parse_unary s))
    | _ -> lhs
  in
  go lhs

and parse_unary s =
  match peek s with
  | TMinus -> (
    ignore (next s);
    (* fold negated literals so printing and parsing are inverses *)
    match parse_unary s with
    | Ast.Const v -> Ast.Const (-.v)
    | e -> Ast.Unop (Ast.Neg, e))
  | TPlus ->
    ignore (next s);
    parse_unary s
  | _ -> parse_primary s

and parse_primary s =
  match next s with
  | TFloat f -> Ast.Const f
  | TInt i -> Ast.Const (float_of_int i)
  | TLParen ->
    let e = parse_expr s in
    expect s TRParen ")";
    e
  | TName name when List.mem name functions -> (
    expect s TLParen "( after function";
    match name with
    | "min" | "max" ->
      let a = parse_expr s in
      expect s TComma ", in binary function";
      let b = parse_expr s in
      expect s TRParen ")";
      Ast.Binop ((if name = "min" then Ast.Min else Ast.Max), a, b)
    | "sqrt" | "exp" | "abs" ->
      let a = parse_expr s in
      expect s TRParen ")";
      let op =
        match name with
        | "sqrt" -> Ast.Sqrt
        | "exp" -> Ast.Exp
        | _ -> Ast.Abs
      in
      Ast.Unop (op, a)
    | _ -> assert false)
  | TName name -> (
    match peek s with
    | TLBracket ->
      ignore (next s);
      let rec offsets acc =
        let o = parse_int s in
        match next s with
        | TComma -> offsets (o :: acc)
        | TRBracket -> List.rev (o :: acc)
        | _ -> fail s "expected , or ] in offset list"
      in
      Ast.Field_ref (name, offsets [])
    | TLParen ->
      ignore (next s);
      let o = parse_int s in
      expect s TRParen ") after small-array offset";
      Ast.Small_ref (name, o)
    | _ -> Ast.Param_ref name)
  | TEnd -> fail s "unexpected end of expression"
  | _ -> fail s "unexpected token in expression"

(* ------------------------------------------------------------------ *)
(* Kernel parser *)

(* After parsing, bare names that are stencil targets or declared fields
   were parsed as Param_ref with no offsets — that is a user error (field
   reads need offsets); but bare references to *parameters* are fine.
   Resolve Param_refs that name fields/intermediates into zero-offset
   field refs for convenience. *)
let rec resolve_names ~rank ~field_like = function
  | Ast.Param_ref name when List.mem name field_like ->
    Ast.Field_ref (name, List.init rank (fun _ -> 0))
  | Ast.Binop (op, a, b) ->
    Ast.Binop
      (op, resolve_names ~rank ~field_like a, resolve_names ~rank ~field_like b)
  | Ast.Unop (op, a) -> Ast.Unop (op, resolve_names ~rank ~field_like a)
  | (Ast.Field_ref _ | Ast.Small_ref _ | Ast.Param_ref _ | Ast.Const _) as e ->
    e

let parse ?(file = "<psy>") (src : string) : Ast.kernel =
  let lines = String.split_on_char '\n' src in
  let name = ref "" in
  let name_loc = ref (Loc.file ~file ~line:1 ~col:1) in
  let rank = ref 3 in
  let fields = ref [] in
  let smalls = ref [] in
  let params = ref [] in
  let stencils = ref [] in
  let ended = ref false in
  let handle_line lineno raw =
    let loc_of_col col = Loc.file ~file ~line:lineno ~col in
    let s = { toks = tokenize ~loc_of_col raw; s_loc_of_col = loc_of_col; s_col = 1 } in
    match peek s with
    | TEnd -> ()
    | TName "kernel" ->
      let kloc = cur_loc s in
      ignore (next s);
      (match next s with
      | TName n ->
        name := n;
        name_loc := kloc
      | _ -> fail s "kernel: expected name")
    | TName "rank" ->
      ignore (next s);
      rank := parse_int s
    | TName (("input" | "output" | "inout") as role) ->
      ignore (next s);
      (match next s with
      | TName n ->
        let fd_role =
          match role with
          | "input" -> Ast.Input
          | "output" -> Ast.Output
          | _ -> Ast.Inout
        in
        fields := { Ast.fd_name = n; fd_role } :: !fields
      | _ -> fail s "%s: expected field name" role)
    | TName "small" ->
      ignore (next s);
      (match next s with
      | TName n ->
        expect s (TName "axis") "axis";
        let axis = parse_int s in
        smalls := { Ast.sd_name = n; sd_axis = axis } :: !smalls
      | _ -> fail s "small: expected name")
    | TName "param" ->
      ignore (next s);
      (match next s with
      | TName n -> params := n :: !params
      | _ -> fail s "param: expected name")
    | TName "end" -> ended := true
    | TName target -> (
      let sloc = cur_loc s in
      ignore (next s);
      match next s with
      | TEqual ->
        let expr = parse_expr s in
        (match peek s with
        | TEnd -> ()
        | _ -> fail s "trailing tokens after expression");
        stencils :=
          { Ast.sd_target = target; sd_expr = expr; sd_loc = sloc } :: !stencils
      | _ -> fail s "expected '=' after %s" target)
    | _ -> fail s "cannot parse line: %s" (String.trim raw)
  in
  List.iteri
    (fun idx raw -> if not !ended then handle_line (idx + 1) raw)
    lines;
  if !name = "" then
    fail_at
      (Loc.file ~file ~line:1 ~col:1)
      "missing 'kernel <name>' declaration";
  let fields = List.rev !fields in
  let stencils = List.rev !stencils in
  let field_like =
    List.map (fun fd -> fd.Ast.fd_name) fields
    @ List.map (fun (s : Ast.stencil_def) -> s.sd_target) stencils
  in
  let stencils =
    List.map
      (fun (s : Ast.stencil_def) ->
        { s with sd_expr = resolve_names ~rank:!rank ~field_like s.sd_expr })
      stencils
  in
  let kernel =
    {
      Ast.k_name = !name;
      k_rank = !rank;
      k_fields = fields;
      k_smalls = List.rev !smalls;
      k_params = List.rev !params;
      k_stencils = stencils;
      k_loc = !name_loc;
    }
  in
  (match Ast.validate kernel with
  | Ok () -> ()
  | Error e ->
    (* validation anchors at the offending stencil's sd_loc *)
    fail_at e.Diagnostic.d_loc "invalid kernel: %s" e.Diagnostic.d_message);
  kernel

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse ~file:path src
