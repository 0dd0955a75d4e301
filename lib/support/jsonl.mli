(** Minimal flat-JSON codec for the JSON Lines files the drivers emit
    (sweep rows, tune search state).

    This is not a general JSON parser: it round-trips exactly the
    object shape {!obj} produces — one object per line,
    string/number/bool scalars and arrays of integers, no nesting.
    Lookups scan for the literal ["name":] key pattern, which is
    unambiguous because emitted string values escape the quote
    character. *)

type field =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Ints of int list

(** One flat JSON object (no trailing newline), keys in list order. *)
val obj : (string * field) list -> string

(** JSON string-escape (quotes, backslashes, control characters). *)
val escape : string -> string

(** Round-trippable float literal: integral values keep [".0"]. *)
val float_repr : float -> string

val find_string : string -> string -> string option
val find_float : string -> string -> float option
val find_int : string -> string -> int option
val find_bool : string -> string -> bool option
val find_ints : string -> string -> int list option

(** Non-blank lines of [path] for a resumed run; [[]] if the file does
    not exist. A final line with no trailing newline is an interrupted
    write: it is removed from the file and left out of the result, so
    the resumed run does that row's work again. *)
val resume_lines : string -> string list
