(* Minimal flat-JSON codec for the JSON Lines files the drivers emit
   (sweep rows, tune search state).  The repo carries no JSON library;
   this is NOT a general parser — it reads back exactly the object shape
   the emitters below produce: one object per line, string/number/bool
   scalars and arrays of integers, no nesting, no escaped quotes inside
   keys.  Field lookup scans for the literal ["name":] key pattern,
   which is unambiguous because emitted string VALUES escape the quote
   character, so a key pattern can never occur inside one. *)

let buf_add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  buf_add_escaped buf s;
  Buffer.contents buf

(* Floats print round-trippably; integral values keep a trailing ".0"
   so the field parses back as a float unambiguously. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Ints of int list

let obj fields =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      buf_add_escaped buf k;
      Buffer.add_string buf "\":";
      match v with
      | Str s ->
        Buffer.add_char buf '"';
        buf_add_escaped buf s;
        Buffer.add_char buf '"'
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f -> Buffer.add_string buf (float_repr f)
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Ints ns ->
        Buffer.add_char buf '[';
        List.iteri
          (fun j n ->
            if j > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf (string_of_int n))
          ns;
        Buffer.add_char buf ']')
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Field extraction *)

(* Position just after ["name":] in [line], if the key is present. *)
let after_key line name =
  let pat = Printf.sprintf "\"%s\":" name in
  let pl = String.length pat and ll = String.length line in
  let rec go i =
    if i + pl > ll then None
    else if String.sub line i pl = pat then Some (i + pl)
    else go (i + 1)
  in
  go 0

let find_string line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let ll = String.length line in
    if i >= ll || line.[i] <> '"' then None
    else begin
      let buf = Buffer.create 16 in
      let rec go j =
        if j >= ll then None
        else
          match line.[j] with
          | '"' -> Some (Buffer.contents buf)
          | '\\' when j + 1 < ll ->
            (match line.[j + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'u' when j + 5 < ll ->
              (match int_of_string_opt ("0x" ^ String.sub line (j + 2) 4) with
              | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
              | _ -> Buffer.add_string buf (String.sub line j 6))
            | c -> Buffer.add_char buf c);
            go (j + if line.[j + 1] = 'u' && j + 5 < ll then 6 else 2)
          | c ->
            Buffer.add_char buf c;
            go (j + 1)
      in
      go (i + 1)
    end

let scalar_end line i =
  let ll = String.length line in
  let rec go j =
    if j >= ll then j
    else match line.[j] with ',' | '}' | ']' | ' ' -> j | _ -> go (j + 1)
  in
  go i

let find_float line name =
  match after_key line name with
  | None -> None
  | Some i -> float_of_string_opt (String.sub line i (scalar_end line i - i))

let find_int line name =
  match after_key line name with
  | None -> None
  | Some i -> int_of_string_opt (String.sub line i (scalar_end line i - i))

let find_bool line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let s = String.sub line i (scalar_end line i - i) in
    (match s with "true" -> Some true | "false" -> Some false | _ -> None)

let find_ints line name =
  match after_key line name with
  | None -> None
  | Some i ->
    let ll = String.length line in
    if i >= ll || line.[i] <> '[' then None
    else
      let close =
        let rec go j =
          if j >= ll then None
          else if line.[j] = ']' then Some j
          else go (j + 1)
        in
        go (i + 1)
      in
      (match close with
      | None -> None
      | Some j ->
        let body = String.sub line (i + 1) (j - i - 1) in
        if String.trim body = "" then Some []
        else
          let parts = String.split_on_char ',' body in
          let ints = List.filter_map (fun p -> int_of_string_opt (String.trim p)) parts in
          if List.length ints = List.length parts then Some ints else None)

(* ------------------------------------------------------------------ *)
(* File helpers *)

(* The rows a resumed run starts from.  A final line with no trailing
   newline is an interrupted write: it is cut from the file, so the
   resumed run appends on a fresh line, and left out of the rows, so
   the work it recorded is done again. *)
let resume_lines path =
  if not (Sys.file_exists path) then []
  else begin
    let text = In_channel.with_open_bin path In_channel.input_all in
    let n = String.length text in
    let keep =
      if n = 0 || text.[n - 1] = '\n' then n
      else
        let keep =
          match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0
        in
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (String.sub text 0 keep));
        keep
    in
    String.split_on_char '\n' (String.sub text 0 keep)
    |> List.filter (fun line -> String.trim line <> "")
  end
