(* Core IR data structures: SSA values, operations with nested regions,
   blocks.  The design mirrors MLIR: ops are generic records identified by a
   dotted name ("arith.addf"), with operands, results, attributes and
   regions; dialect-specific structure lives in the dialect modules and the
   verifier, not in the op representation.

   Mutation functions maintain use-def chains, so rewrites
   (replace_all_uses, erase, insertion) keep the graph consistent.  Blocks
   store their ops in an intrusive doubly-linked list (first/last on the
   block, prev/next on each op), so append/prepend/insert_before/
   insert_after/detach/erase are all O(1); [Block.ops] materialises a
   plain list on demand for consumers that want one. *)

type value = {
  v_id : int;
  mutable v_ty : Ty.t;
  mutable v_def : def;
  mutable v_uses : use list; (* unordered *)
}

and def =
  | Op_result of op * int
  | Block_arg of block * int

and use = { u_op : op; u_index : int }

and op = {
  o_id : int;
  mutable o_name : string;
  mutable o_operands : value array;
  mutable o_results : value array;
  mutable o_attrs : (string * Attr.t) list;
  mutable o_regions : region list;
  mutable o_parent : block option;
  mutable o_prev : op option; (* intrusive block list links *)
  mutable o_next : op option;
  mutable o_loc : Loc.t;
  mutable o_order : int; (* position in the parent block, see b_ordered *)
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_num_ops : int;
  mutable b_ordered : bool; (* every op's o_order is current *)
  mutable b_parent : region option;
}

and region = {
  r_id : int;
  mutable r_blocks : block list;
  mutable r_parent : op option;
}

let value_ids = Idgen.create ()
let op_ids = Idgen.create ()
let block_ids = Idgen.create ()
let region_ids = Idgen.create ()

let reset_ids () =
  Idgen.reset value_ids;
  Idgen.reset op_ids;
  Idgen.reset block_ids;
  Idgen.reset region_ids

(* Iterate the intrusive list.  The successor is captured before [f] runs,
   so [f] may detach or erase the op it is given. *)
let iter_block_ops b f =
  let rec go = function
    | None -> ()
    | Some op ->
      let next = op.o_next in
      f op;
      go next
  in
  go b.b_first

let iter_block_ops_rev b f =
  let rec go = function
    | None -> ()
    | Some op ->
      let prev = op.o_prev in
      f op;
      go prev
  in
  go b.b_last

(* Materialise the op list (walk backward so the list builds forward). *)
let block_op_list b =
  let rec go acc = function
    | None -> acc
    | Some op -> go (op :: acc) op.o_prev
  in
  go [] b.b_last

(* ------------------------------------------------------------------ *)
(* Values *)

module Value = struct
  type t = value

  let ty v = v.v_ty
  let id v = v.v_id
  let uses v = v.v_uses
  let has_uses v = v.v_uses <> []
  let num_uses v = List.length v.v_uses
  let equal a b = a.v_id = b.v_id
  let compare a b = Int.compare a.v_id b.v_id
  let hash v = v.v_id

  let defining_op v =
    match v.v_def with Op_result (op, _) -> Some op | Block_arg _ -> None

  let result_index v =
    match v.v_def with Op_result (_, i) -> Some i | Block_arg _ -> None

  let owner_block v =
    match v.v_def with
    | Op_result (op, _) -> op.o_parent
    | Block_arg (b, _) -> Some b

  let add_use v use = v.v_uses <- use :: v.v_uses

  let remove_use v ~op ~index =
    v.v_uses <-
      List.filter
        (fun u -> not (u.u_op == op && u.u_index = index))
        v.v_uses
end

module Value_set = Set.Make (Value)
module Value_map = Map.Make (Value)

(* ------------------------------------------------------------------ *)
(* Operations *)

module Op = struct
  type t = op

  let name op = op.o_name
  let operands op = Array.to_list op.o_operands
  let results op = Array.to_list op.o_results
  let attrs op = op.o_attrs
  let regions op = op.o_regions
  let parent op = op.o_parent
  let prev op = op.o_prev
  let next op = op.o_next
  let equal a b = a.o_id = b.o_id

  let operand op i =
    if i < 0 || i >= Array.length op.o_operands then
      Err.raise_error "op %s: operand index %d out of range" op.o_name i;
    op.o_operands.(i)

  let result op i =
    if i < 0 || i >= Array.length op.o_results then
      Err.raise_error "op %s: result index %d out of range" op.o_name i;
    op.o_results.(i)

  let num_operands op = Array.length op.o_operands
  let num_results op = Array.length op.o_results

  let get_attr op key = List.assoc_opt key op.o_attrs

  let get_attr_exn op key =
    match get_attr op key with
    | Some a -> a
    | None -> Err.raise_error "op %s: missing attribute %S" op.o_name key

  let set_attr op key attr =
    op.o_attrs <- (key, attr) :: List.remove_assoc key op.o_attrs

  let remove_attr op key = op.o_attrs <- List.remove_assoc key op.o_attrs
  let loc op = op.o_loc
  let set_loc op loc = op.o_loc <- loc

  let create ~name ?(operands = []) ?(result_tys = []) ?(attrs = [])
      ?(regions = []) ?(loc = Loc.Unknown) () =
    let op =
      {
        o_id = Idgen.fresh op_ids;
        o_name = name;
        o_operands = Array.of_list operands;
        o_results = [||];
        o_attrs = attrs;
        o_regions = regions;
        o_parent = None;
        o_prev = None;
        o_next = None;
        o_loc = loc;
        o_order = 0;
      }
    in
    op.o_results <-
      Array.of_list
        (List.mapi
           (fun i ty ->
             {
               v_id = Idgen.fresh value_ids;
               v_ty = ty;
               v_def = Op_result (op, i);
               v_uses = [];
             })
           result_tys);
    Array.iteri
      (fun i v -> Value.add_use v { u_op = op; u_index = i })
      op.o_operands;
    List.iter (fun r -> r.r_parent <- Some op) regions;
    op

  let set_operand op i v =
    let old = op.o_operands.(i) in
    if not (Value.equal old v) then begin
      Value.remove_use old ~op ~index:i;
      op.o_operands.(i) <- v;
      Value.add_use v { u_op = op; u_index = i }
    end

  let set_operands op vs =
    Array.iteri (fun i old -> Value.remove_use old ~op ~index:i) op.o_operands;
    op.o_operands <- Array.of_list vs;
    Array.iteri
      (fun i v -> Value.add_use v { u_op = op; u_index = i })
      op.o_operands

  (* Detach from parent block without touching operands/uses.  O(1): just
     unlink from the intrusive list. *)
  let detach op =
    match op.o_parent with
    | None -> ()
    | Some b ->
      (match op.o_prev with
      | None -> b.b_first <- op.o_next
      | Some p -> p.o_next <- op.o_next);
      (match op.o_next with
      | None -> b.b_last <- op.o_prev
      | Some n -> n.o_prev <- op.o_prev);
      b.b_num_ops <- b.b_num_ops - 1;
      op.o_prev <- None;
      op.o_next <- None;
      op.o_parent <- None

  let rec erase op =
    if Array.exists Value.has_uses op.o_results then
      Err.raise_error "cannot erase op %s: results still in use" op.o_name;
    List.iter
      (fun r -> List.iter (fun b -> erase_block_ops b) r.r_blocks)
      op.o_regions;
    Array.iteri (fun i v -> Value.remove_use v ~op ~index:i) op.o_operands;
    detach op

  and erase_block_ops b =
    (* Erase ops in reverse so uses disappear before defs. *)
    iter_block_ops_rev b (fun op ->
        Array.iteri (fun i v -> Value.remove_use v ~op ~index:i) op.o_operands;
        List.iter (fun r -> List.iter erase_block_ops r.r_blocks) op.o_regions;
        op.o_parent <- None;
        op.o_prev <- None;
        op.o_next <- None);
    b.b_first <- None;
    b.b_last <- None;
    b.b_num_ops <- 0

  (* Pre-order walk over this op and all nested ops. *)
  let rec walk op f =
    f op;
    List.iter
      (fun region ->
        List.iter
          (fun b -> iter_block_ops b (fun o -> walk o f))
          region.r_blocks)
      op.o_regions

  (* Walk with early collection: gather all nested ops satisfying [p]. *)
  let collect op p =
    let acc = ref [] in
    walk op (fun o -> if p o then acc := o :: !acc);
    List.rev !acc

  (* Like MLIR's isBeforeInBlock: a block numbers its ops on the first
     query after an insertion (removal keeps the order). *)
  let is_before_in_block a b =
    match (a.o_parent, b.o_parent) with
    | Some blk, Some blk' when blk == blk' ->
      if not blk.b_ordered then begin
        let i = ref 0 in
        iter_block_ops blk (fun o ->
            o.o_order <- !i;
            incr i);
        blk.b_ordered <- true
      end;
      a.o_order < b.o_order
    | _ -> false

  let is_terminator op =
    match op.o_name with
    | "func.return" | "scf.yield" | "stencil.return" | "cf.br" | "cf.cond_br"
    | "llvm.return" ->
      true
    | _ -> false
end

(* ------------------------------------------------------------------ *)
(* Blocks *)

module Block = struct
  type t = block

  let create ?(arg_tys = []) () =
    let b =
      {
        b_id = Idgen.fresh block_ids;
        b_args = [||];
        b_first = None;
        b_last = None;
        b_num_ops = 0;
        b_ordered = true;
        b_parent = None;
      }
    in
    b.b_args <-
      Array.of_list
        (List.mapi
           (fun i ty ->
             {
               v_id = Idgen.fresh value_ids;
               v_ty = ty;
               v_def = Block_arg (b, i);
               v_uses = [];
             })
           arg_tys);
    b

  let args b = Array.to_list b.b_args
  let arg b i = b.b_args.(i)
  let num_args b = Array.length b.b_args
  let ops b = block_op_list b
  let first_op b = b.b_first
  let last_op b = b.b_last
  let num_ops b = b.b_num_ops
  let iter_ops b f = iter_block_ops b f
  let iter_ops_rev b f = iter_block_ops_rev b f
  let equal a b = a.b_id = b.b_id

  let add_arg b ty =
    let i = Array.length b.b_args in
    let v =
      { v_id = Idgen.fresh value_ids; v_ty = ty; v_def = Block_arg (b, i); v_uses = [] }
    in
    b.b_args <- Array.append b.b_args [| v |];
    v

  let append b op =
    Op.detach op;
    op.o_parent <- Some b;
    op.o_prev <- b.b_last;
    op.o_next <- None;
    (match b.b_last with
    | None -> b.b_first <- Some op
    | Some l -> l.o_next <- Some op);
    b.b_last <- Some op;
    b.b_num_ops <- b.b_num_ops + 1;
    b.b_ordered <- false

  let prepend b op =
    Op.detach op;
    op.o_parent <- Some b;
    op.o_prev <- None;
    op.o_next <- b.b_first;
    (match b.b_first with
    | None -> b.b_last <- Some op
    | Some f -> f.o_prev <- Some op);
    b.b_first <- Some op;
    b.b_num_ops <- b.b_num_ops + 1;
    b.b_ordered <- false

  let check_anchor what b (anchor : op) =
    match anchor.o_parent with
    | Some p when p == b -> ()
    | _ -> Err.raise_error "%s: anchor not in block" what

  let insert_before b ~anchor op =
    check_anchor "insert_before" b anchor;
    Op.detach op;
    op.o_parent <- Some b;
    op.o_prev <- anchor.o_prev;
    op.o_next <- Some anchor;
    (match anchor.o_prev with
    | None -> b.b_first <- Some op
    | Some p -> p.o_next <- Some op);
    anchor.o_prev <- Some op;
    b.b_num_ops <- b.b_num_ops + 1;
    b.b_ordered <- false

  let insert_after b ~anchor op =
    check_anchor "insert_after" b anchor;
    Op.detach op;
    op.o_parent <- Some b;
    op.o_prev <- Some anchor;
    op.o_next <- anchor.o_next;
    (match anchor.o_next with
    | None -> b.b_last <- Some op
    | Some n -> n.o_prev <- Some op);
    anchor.o_next <- Some op;
    b.b_num_ops <- b.b_num_ops + 1;
    b.b_ordered <- false

  let terminator b =
    match b.b_last with
    | Some last when Op.is_terminator last -> Some last
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Regions *)

module Region = struct
  type t = region

  let create ?(blocks = []) () =
    let r = { r_id = Idgen.fresh region_ids; r_blocks = blocks; r_parent = None } in
    List.iter (fun b -> b.b_parent <- Some r) blocks;
    r

  let blocks r = r.r_blocks
  let parent r = r.r_parent

  let add_block r b =
    b.b_parent <- Some r;
    r.r_blocks <- r.r_blocks @ [ b ]

  let entry r =
    match r.r_blocks with
    | [] -> Err.raise_error "region has no entry block"
    | b :: _ -> b

  let entry_opt r = match r.r_blocks with [] -> None | b :: _ -> Some b
end

(* ------------------------------------------------------------------ *)
(* Graph rewriting helpers *)

let replace_all_uses ~from ~to_ =
  if not (Value.equal from to_) then begin
    let uses = from.v_uses in
    from.v_uses <- [];
    List.iter
      (fun { u_op; u_index } ->
        u_op.o_operands.(u_index) <- to_;
        Value.add_use to_ { u_op; u_index })
      uses
  end

(* Replace an op that has results with replacement values, then erase it. *)
let replace_op op values =
  if List.length values <> Array.length op.o_results then
    Err.raise_error "replace_op %s: result arity mismatch" op.o_name;
  List.iteri
    (fun i v -> replace_all_uses ~from:op.o_results.(i) ~to_:v)
    values;
  Op.erase op

(* ------------------------------------------------------------------ *)
(* Modules: a module is just a builtin.module op with one region/block. *)

module Module_ = struct
  type t = op

  let create () =
    let block = Block.create () in
    let region = Region.create ~blocks:[ block ] () in
    Op.create ~name:"builtin.module" ~regions:[ region ] ()

  let body m =
    match m.o_regions with
    | [ r ] -> Region.entry r
    | _ -> Err.raise_error "builtin.module must have exactly one region"

  let ops m = Block.ops (body m)

  let funcs m =
    List.filter (fun op -> op.o_name = "func.func") (ops m)

  let find_func m name =
    List.find_opt
      (fun op ->
        op.o_name = "func.func"
        && match Op.get_attr op "sym_name" with
           | Some (Attr.Str s) -> s = name
           | _ -> false)
      (ops m)

  let find_func_exn m name =
    match find_func m name with
    | Some f -> f
    | None -> Err.raise_error "module has no function %S" name
end

(* Number of ops in a subtree, for pass statistics. *)
let count_ops op =
  let n = ref 0 in
  Op.walk op (fun _ -> incr n);
  !n
