(** A minimal textual LLVM-IR representation: typed instructions, CFG
    blocks with phis, declarations, metadata — enough to carry the
    lowered kernels to the HLS backend the way the paper does. *)

type ty =
  | Void
  | I1
  | I32
  | I64
  | Double
  | Ptr of ty
  | Array of int * ty
  | Struct of ty list

type operand = Reg of string | Global of string | CInt of int | CFloat of float | Undef

type instr =
  | Binop of string * string * ty * operand * operand
  | Icmp of string * string * ty * operand * operand
  | Fcmp of string * string * ty * operand * operand
  | Select of string * ty * operand * operand * operand
  | Alloca of string * ty
  | Load of string * ty * operand
  | Store of ty * operand * operand
  | Gep of string * ty * operand * operand list
  | Call of string option * ty * string * (ty * operand) list * string list
  | Br of string
  | CondBr of operand * string * string
  | BrLoop of string * string  (** latch branch carrying !llvm.loop md *)
  | Ret of ty * operand option
  | Phi of string * ty * (operand * string) list
  | Sitofp of string * ty * operand * ty
  | Comment of string

type block = { bl_label : string; mutable bl_instrs : instr list }

type func = {
  fn_name : string;
  fn_ret : ty;
  fn_args : (ty * string) list;
  mutable fn_blocks : block list;
  mutable fn_attrs : string list;
  fn_src : string option;
}

type metadata = { md_id : int; md_body : string }

type modul = {
  mutable m_funcs : func list;
  mutable m_decls : (string * ty * ty list) list;
  mutable m_metadata : metadata list;
  mutable m_next_md : int;
}

val create_module : unit -> modul

(** Idempotent declaration of an external function. *)
val declare : modul -> name:string -> ret:ty -> args:ty list -> unit

(** Append a metadata node; returns its id. *)
val add_metadata : modul -> string -> int

(** [src] names the source construct the function implements; it is
    printed as a [; source: ...] comment above the definition. *)
val create_func :
  ?src:string ->
  modul -> name:string -> ret:ty -> args:(ty * string) list -> attrs:string list -> func

val add_block : func -> string -> block
val emit : block -> instr -> unit

(** Print the whole module as .ll text. *)
val to_string : modul -> string

(** Map each instruction to a replacement list, in program order. *)
val rewrite_instrs : (instr -> instr list) -> func -> unit

val iter_instrs : (instr -> unit) -> func -> unit
