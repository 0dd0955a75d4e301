(* The structured diagnostic engine.

   A diagnostic carries a severity, a primary location, attached notes,
   the legacy context trail (innermost first), and provenance: which
   pass and/or rewrite pattern was running when it was produced.  Errors
   abort by raising {!Raised}; warnings/remarks flow through {!emit} to
   the innermost installed handler (or stderr).

   {!capture} installs a collecting handler — the basis of shmls-opt's
   --verify-diagnostics mode, whose expectation comments are parsed and
   checked by the {!Expected} submodule. *)

type severity = Error | Warning | Note | Remark

type note = { n_loc : Loc.t; n_msg : string }

type t = {
  d_severity : severity;
  d_loc : Loc.t;
  d_message : string;
  d_notes : note list;
  d_context : string list; (* innermost first *)
  d_pass : string option;
  d_pattern : string option;
}

exception Raised of t

let make ?(severity = Error) ?(loc = Loc.Unknown) ?(notes = []) ?(context = [])
    ?pass ?pattern message =
  {
    d_severity = severity;
    d_loc = loc;
    d_message = message;
    d_notes = notes;
    d_context = context;
    d_pass = pass;
    d_pattern = pattern;
  }

let note ?(loc = Loc.Unknown) n_msg = { n_loc = loc; n_msg }
let add_note ?loc msg d = { d with d_notes = d.d_notes @ [ note ?loc msg ] }
let add_context ctx d = { d with d_context = ctx :: d.d_context }
let set_loc loc d = { d with d_loc = loc }

let set_loc_if_unknown loc d =
  if Loc.is_known d.d_loc then d else { d with d_loc = loc }

(* Innermost pass/pattern wins: keep an existing attribution. *)
let set_pass pass d =
  match d.d_pass with Some _ -> d | None -> { d with d_pass = Some pass }

let set_pattern pat d =
  match d.d_pattern with Some _ -> d | None -> { d with d_pattern = Some pat }

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"
  | Remark -> "remark"

(* Rendering.  Diagnostics without a resolvable location keep the exact
   legacy Err format ("msg [in a < b]") so long-standing error-message
   assertions stay valid; located diagnostics gain a
   "file:line:col: severity:" prefix, MLIR/clang-style. *)
let to_string d =
  let head =
    if Loc.is_known d.d_loc then
      Printf.sprintf "%s: %s: %s" (Loc.describe d.d_loc)
        (severity_string d.d_severity)
        d.d_message
    else
      match d.d_severity with
      | Error -> d.d_message
      | s -> Printf.sprintf "%s: %s" (severity_string s) d.d_message
  in
  let ctx =
    match d.d_context with
    | [] -> ""
    | ctx -> Printf.sprintf " [in %s]" (String.concat " < " ctx)
  in
  let notes =
    List.map
      (fun n ->
        if Loc.is_known n.n_loc then
          Printf.sprintf "\n  %s: note: %s" (Loc.describe n.n_loc) n.n_msg
        else Printf.sprintf "\n  note: %s" n.n_msg)
      d.d_notes
  in
  head ^ ctx ^ String.concat "" notes

let pp ppf d = Format.pp_print_string ppf (to_string d)

(* An uncaught or generically reported [Raised] prints as its message,
   not as [Shmls_support.Diagnostic.Raised(_)]. *)
let () =
  Printexc.register_printer (function
    | Raised d -> Some (to_string d)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Emission and capture *)

let handlers : (t -> unit) list ref = ref []

(* Errors always abort the computation in flight; non-errors go to the
   innermost handler, or stderr when none is installed. *)
let emit d =
  if d.d_severity = Error then raise (Raised d)
  else
    match !handlers with
    | h :: _ -> h d
    | [] -> prerr_endline (to_string d)

let emitf ?severity ?loc ?notes ?context ?pass ?pattern fmt =
  Format.kasprintf
    (fun msg -> emit (make ?severity ?loc ?notes ?context ?pass ?pattern msg))
    fmt

(* Run [f], collecting every diagnostic it produces.  Returns the
   diagnostics in emission order and [Some result] if [f] returned
   normally ([None] if it aborted with an error diagnostic). *)
let capture f =
  let seen = ref [] in
  let record d = seen := d :: !seen in
  handlers := record :: !handlers;
  Fun.protect
    ~finally:(fun () ->
      match !handlers with _ :: rest -> handlers := rest | [] -> ())
    (fun () ->
      match f () with
      | v -> (List.rev !seen, Some v)
      | exception Raised d -> (List.rev (d :: !seen), None))

(* ------------------------------------------------------------------ *)
(* FileCheck-style expectation comments:

     // expected-error {{substring}}          same line
     // expected-error@12 {{substring}}       absolute line
     // expected-warning@+2 {{substring}}     relative line
     // expected-note@-1 {{substring}}

   The braces enclose a required substring of the diagnostic message. *)

module Expected = struct
  type exp = { x_severity : severity; x_line : int; x_msg : string }

  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    if m = 0 then true
    else
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0

  let index_from_opt s i sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
    go i

  let severities =
    [ ("error", Error); ("warning", Warning); ("note", Note); ("remark", Remark) ]

  let parse_error ~lineno fmt =
    Format.kasprintf
      (fun m ->
        raise
          (Raised (make (Printf.sprintf "expected-diagnostic comment (line %d): %s" lineno m))))
      fmt

  (* Parse one "expected-SEV[@N|@+N|@-N] {{msg}}" starting at [i] (just
     past "expected-"); returns the expectation and scan-resume index. *)
  let parse_one ~lineno line i =
    let sev, i =
      match
        List.find_opt
          (fun (w, _) ->
            let m = String.length w in
            i + m <= String.length line && String.sub line i m = w)
          severities
      with
      | Some (w, s) -> (s, i + String.length w)
      | None -> parse_error ~lineno "unknown severity"
    in
    let target, i =
      if i < String.length line && line.[i] = '@' then begin
        let j = ref (i + 1) in
        let sign =
          if !j < String.length line && (line.[!j] = '+' || line.[!j] = '-')
          then begin
            let c = line.[!j] in
            incr j;
            c
          end
          else ' '
        in
        let start = !j in
        while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        if !j = start then parse_error ~lineno "expected a line number after '@'";
        let n = int_of_string (String.sub line start (!j - start)) in
        let target =
          match sign with '+' -> lineno + n | '-' -> lineno - n | _ -> n
        in
        (target, !j)
      end
      else (lineno, i)
    in
    let i = ref i in
    while !i < String.length line && line.[!i] = ' ' do incr i done;
    match index_from_opt line !i "{{" with
    | Some b when b = !i -> (
      match index_from_opt line (b + 2) "}}" with
      | Some e ->
        ({ x_severity = sev; x_line = target; x_msg = String.sub line (b + 2) (e - b - 2) }, e + 2)
      | None -> parse_error ~lineno "unterminated {{...}}")
    | _ -> parse_error ~lineno "expected {{...}} after expected-%s" (severity_string sev)

  (* All expectations in [src], with relative lines resolved. *)
  let parse src =
    let lines = String.split_on_char '\n' src in
    let exps = ref [] in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          match index_from_opt line !i "expected-" with
          | None -> continue := false
          | Some j ->
            let e, next = parse_one ~lineno line (j + String.length "expected-") in
            exps := e :: !exps;
            i := next
        done)
      lines;
    List.rev !exps

  (* Flatten a diagnostic into checkable (severity, line, message)
     triples: the diagnostic itself plus each attached note. *)
  let flatten (d : t) =
    (d.d_severity, Loc.line d.d_loc, to_string { d with d_notes = [] })
    :: List.map (fun n -> (Note, Loc.line n.n_loc, n.n_msg)) d.d_notes

  let describe_exp e =
    Printf.sprintf "expected-%s@%d {{%s}}" (severity_string e.x_severity)
      e.x_line e.x_msg

  (* Match expectations against the diagnostics actually seen.  Every
     expectation must be met by a distinct diagnostic (same severity,
     same resolved source line, message contains the substring), and
     every seen error must be expected. *)
  let check ~expected ~seen =
    let items = ref (List.concat_map flatten seen) in
    let missing =
      List.filter
        (fun e ->
          let rec take acc = function
            | [] -> false
            | ((sev, line, msg) as it) :: rest ->
              if sev = e.x_severity && line = Some e.x_line && contains ~sub:e.x_msg msg
              then begin
                items := List.rev_append acc rest;
                true
              end
              else take (it :: acc) rest
          in
          not (take [] !items))
        expected
    in
    let unexpected =
      List.filter (fun (sev, _, _) -> sev = Error) !items
    in
    match (missing, unexpected) with
    | [], [] -> Ok ()
    | _ ->
      let b = Buffer.create 256 in
      List.iter
        (fun e ->
          Buffer.add_string b
            (Printf.sprintf "missing diagnostic: %s\n" (describe_exp e)))
        missing;
      List.iter
        (fun (sev, line, msg) ->
          Buffer.add_string b
            (Printf.sprintf "unexpected %s%s: %s\n" (severity_string sev)
               (match line with Some l -> Printf.sprintf " at line %d" l | None -> "")
               msg))
        unexpected;
      Result.error (String.trim (Buffer.contents b))
end
