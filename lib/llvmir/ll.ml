(* A minimal textual LLVM-IR representation: enough to carry the lowered
   kernels to the AMD Xilinx HLS backend the way the paper does — typed
   instructions, CFG blocks with phis, declarations, metadata.

   This is deliberately a *syntactic* layer: the semantic work happens in
   the MLIR-style dialects; what matters here is that the emitted .ll is
   structurally faithful (marker functions, stream structs, the
   set-stream-depth intrinsic, loop metadata after f++). *)

type ty =
  | Void
  | I1
  | I32
  | I64
  | Double
  | Ptr of ty
  | Array of int * ty
  | Struct of ty list

(* Printing appends to one [Buffer.t]: every printer below takes the
   buffer first, and only float constants go through [Printf]. *)
let rec add_ty buf = function
  | Void -> Buffer.add_string buf "void"
  | I1 -> Buffer.add_string buf "i1"
  | I32 -> Buffer.add_string buf "i32"
  | I64 -> Buffer.add_string buf "i64"
  | Double -> Buffer.add_string buf "double"
  | Ptr t ->
    add_ty buf t;
    Buffer.add_char buf '*'
  | Array (n, t) ->
    Buffer.add_char buf '[';
    Buffer.add_string buf (string_of_int n);
    Buffer.add_string buf " x ";
    add_ty buf t;
    Buffer.add_char buf ']'
  | Struct ts ->
    Buffer.add_string buf "{ ";
    List.iteri
      (fun i t ->
        if i > 0 then Buffer.add_string buf ", ";
        add_ty buf t)
      ts;
    Buffer.add_string buf " }"

type operand =
  | Reg of string (* %name *)
  | Global of string (* @name *)
  | CInt of int
  | CFloat of float
  | Undef

let add_operand buf = function
  | Reg r ->
    Buffer.add_char buf '%';
    Buffer.add_string buf r
  | Global g ->
    Buffer.add_char buf '@';
    Buffer.add_string buf g
  | CInt i -> Buffer.add_string buf (string_of_int i)
  | CFloat f ->
    Buffer.add_string buf
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.6e" f
       else Printf.sprintf "%.17e" f)
  | Undef -> Buffer.add_string buf "undef"

type instr =
  | Binop of string * string * ty * operand * operand (* %r = fadd double a, b *)
  | Icmp of string * string * ty * operand * operand
  | Fcmp of string * string * ty * operand * operand
  | Select of string * ty * operand * operand * operand
  | Alloca of string * ty
  | Load of string * ty * operand
  | Store of ty * operand * operand
  | Gep of string * ty * operand * operand list
  | Call of string option * ty * string * (ty * operand) list * string list
      (* result, ret ty, callee, args, metadata suffixes *)
  | Br of string
  | CondBr of operand * string * string
  | BrLoop of string * string (* latch branch carrying !llvm.loop metadata *)
  | Ret of ty * operand option
  | Phi of string * ty * (operand * string) list
  | Sitofp of string * ty * operand * ty
  | Comment of string

type block = { bl_label : string; mutable bl_instrs : instr list (* reversed *) }

type func = {
  fn_name : string;
  fn_ret : ty;
  fn_args : (ty * string) list;
  mutable fn_blocks : block list; (* reversed *)
  mutable fn_attrs : string list;
  fn_src : string option; (* source provenance, rendered as a comment *)
}

type metadata = { md_id : int; md_body : string }

type modul = {
  mutable m_funcs : func list; (* reversed *)
  mutable m_decls : (string * ty * ty list) list;
  mutable m_metadata : metadata list; (* reversed *)
  mutable m_next_md : int;
}

let create_module () =
  { m_funcs = []; m_decls = []; m_metadata = []; m_next_md = 0 }

let declare m ~name ~ret ~args =
  if not (List.exists (fun (n, _, _) -> n = name) m.m_decls) then
    m.m_decls <- (name, ret, args) :: m.m_decls

let add_metadata m body =
  let id = m.m_next_md in
  m.m_next_md <- id + 1;
  m.m_metadata <- { md_id = id; md_body = body } :: m.m_metadata;
  id

let create_func ?src m ~name ~ret ~args ~attrs =
  let f =
    {
      fn_name = name;
      fn_ret = ret;
      fn_args = args;
      fn_blocks = [];
      fn_attrs = attrs;
      fn_src = src;
    }
  in
  m.m_funcs <- f :: m.m_funcs;
  f

let add_block f label =
  let b = { bl_label = label; bl_instrs = [] } in
  f.fn_blocks <- b :: f.fn_blocks;
  b

let emit b instr = b.bl_instrs <- instr :: b.bl_instrs

(* ------------------------------------------------------------------ *)
(* Printing *)

let add_strings buf strings = List.iter (Buffer.add_string buf) strings

(* An instruction's text as the pieces it is printed from, in order. *)
type piece = S of string | T of ty | O of operand

let add_piece buf = function
  | S s -> Buffer.add_string buf s
  | T t -> add_ty buf t
  | O o -> add_operand buf o

let def r = [ S "%"; S r; S " = " ]

(* "ty a, b": the operands of a binary op or compare *)
let pair t a b = [ T t; S " "; O a; S ", "; O b ]

(* [ps] of each of [xs], separated by ", " *)
let commas ps xs = List.concat (List.mapi (fun i x -> if i = 0 then ps x else S ", " :: ps x) xs)

let pieces = function
  | Binop (r, op, t, a, b) -> def r @ (S op :: S " " :: pair t a b)
  | Icmp (r, pred, t, a, b) -> def r @ (S "icmp " :: S pred :: S " " :: pair t a b)
  | Fcmp (r, pred, t, a, b) -> def r @ (S "fcmp " :: S pred :: S " " :: pair t a b)
  | Select (r, t, c, a, b) ->
    def r @ [ S "select i1 "; O c; S ", "; T t; S " "; O a; S ", "; T t; S " "; O b ]
  | Alloca (r, t) -> def r @ [ S "alloca "; T t ]
  | Load (r, t, p) -> def r @ [ S "load "; T t; S ", "; T (Ptr t); S " "; O p ]
  | Store (t, v, p) -> [ S "store "; T t; S " "; O v; S ", "; T (Ptr t); S " "; O p ]
  | Gep (r, t, base, indices) ->
    def r
    @ [ S "getelementptr "; T t; S ", "; T (Ptr t); S " "; O base; S ", " ]
    @ commas (fun i -> [ S "i64 "; O i ]) indices
  | Call (res, ret, callee, args, mds) ->
    (match res with Some r -> def r | None -> [])
    @ [ S "call "; T ret; S " @"; S callee; S "(" ]
    @ commas (fun (t, o) -> [ T t; S " "; O o ]) args
    @ (S ")" :: List.concat_map (fun md -> [ S ", "; S md ]) mds)
  | Br label -> [ S "br label %"; S label ]
  | CondBr (c, t, f) -> [ S "br i1 "; O c; S ", label %"; S t; S ", label %"; S f ]
  | BrLoop (label, md) -> [ S "br label %"; S label; S ", !llvm.loop "; S md ]
  | Ret (_, None) -> [ S "ret void" ]
  | Ret (t, Some v) -> [ S "ret "; T t; S " "; O v ]
  | Phi (r, t, incoming) ->
    def r @ [ S "phi "; T t; S " " ]
    @ commas (fun (v, l) -> [ S "[ "; O v; S ", %"; S l; S " ]" ]) incoming
  | Sitofp (r, from_ty, v, to_ty) ->
    def r @ [ S "sitofp "; T from_ty; S " "; O v; S " to "; T to_ty ]
  | Comment c -> [ S "; "; S c ]

let add_pieces buf ps = List.iter (add_piece buf) ps

let print_func buf f =
  Option.iter (fun src -> add_strings buf [ "; source: "; src; "\n" ]) f.fn_src;
  add_pieces buf
    ([ S "define "; T f.fn_ret; S " @"; S f.fn_name; S "(" ]
    @ commas (fun (t, n) -> [ T t; S " %"; S n ]) f.fn_args
    @ (S ")" :: List.concat_map (fun a -> [ S " "; S a ]) f.fn_attrs));
  Buffer.add_string buf " {\n";
  List.iter
    (fun b ->
      add_strings buf [ b.bl_label; ":\n" ];
      List.iter
        (fun i ->
          Buffer.add_string buf "  ";
          add_pieces buf (pieces i);
          Buffer.add_char buf '\n')
        (List.rev b.bl_instrs))
    (List.rev f.fn_blocks);
  Buffer.add_string buf "}\n\n"

let to_string m =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "; ModuleID = 'stencil-hmls'\n";
  Buffer.add_string buf
    "target datalayout = \"e-m:e-i64:64-i128:128-n32:64-S128\"\n";
  Buffer.add_string buf "target triple = \"fpga64-xilinx-none\"\n\n";
  List.iter
    (fun (name, ret, args) ->
      add_pieces buf
        ([ S "declare "; T ret; S " @"; S name; S "(" ]
        @ commas (fun t -> [ T t ]) args
        @ [ S ")\n" ]))
    (List.rev m.m_decls);
  Buffer.add_char buf '\n';
  List.iter (print_func buf) (List.rev m.m_funcs);
  List.iter
    (fun md ->
      add_strings buf [ "!"; string_of_int md.md_id; " = "; md.md_body; "\n" ])
    (List.rev m.m_metadata);
  Buffer.contents buf

(* Iterate over all instructions of a function (in program order) with
   replacement: [f] maps each instruction to its replacement list. *)
let rewrite_instrs f fn =
  List.iter
    (fun b -> b.bl_instrs <- List.rev (List.concat_map f (List.rev b.bl_instrs)))
    fn.fn_blocks

let iter_instrs f fn =
  List.iter (fun b -> List.iter f (List.rev b.bl_instrs)) (List.rev fn.fn_blocks)
