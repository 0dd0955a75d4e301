(* A minimal JSON value with a printer and a recursive-descent parser:
   enough for BENCHMARK.json, the result records and the trace file.
   ([Shmls_support.Jsonl] only round-trips flat objects; the result
   format nests metric objects.) *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Integral values print without a fraction; everything else with all
   17 significant digits, so a measured value keeps every digit. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f ->
    if Float.is_finite f then Buffer.add_string b (number f)
    else Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Shmls_support.Jsonl.escape s);
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        to_buffer b (Str k);
        Buffer.add_string b ": ";
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

exception Syntax of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Syntax (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = string_lit () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            elements (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        elements []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f when !pos > start -> Num f
      | _ -> fail "bad value")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing characters";
  v

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function Num f -> f | _ -> raise (Syntax "expected a number")
let to_str = function Str s -> s | _ -> raise (Syntax "expected a string")
let to_list = function Arr l -> l | _ -> raise (Syntax "expected an array")
let to_obj = function Obj kvs -> kvs | _ -> raise (Syntax "expected an object")
