(* Structural IR verification.

   Generic checks, run over every op in the tree:
   - every op name is registered with some dialect;
   - terminators are last in their block, and only terminators are last
     where the parent op requires one (single-block region bodies);
   - SSA visibility: an operand of an op in block B is an argument of B,
     the result of an op before it in B, or any value of a block on B's
     enclosing chain (the block of B's parent op, of that op's parent,
     ...), which stops short of the block around the first
     Isolated_from_above op. "Any value" is a known deviation from MLIR
     dominance: it may be defined after the op whose region reads it.
     A later result of B is "used before definition"; a value of a block
     beyond the chain is "not visible here", naming the isolated op or
     the op whose region holds it;
   - use-def chain consistency (each operand records this use).

   One top-down walk carries the chain down. A use list longer than
   [short_uses] is read once into a table of (op, operand) slots;
   shorter ones are searched in place. The walk is linear in ops plus
   uses, times nesting depth.

   Dialect-specific invariants (operand counts, type agreement) live in
   the per-op verifiers stored in {!Dialect}. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let rec all f = function [] -> Ok () | x :: xs -> let* () = f x in all f xs

module Slots = Hashtbl.Make (struct
  type t = Ir.op * int
  let equal ((a : Ir.op), (i : int)) (b, j) = a == b && i = j
  let hash ((o : Ir.op), i) = (o.o_id * 31) + i
end)

(* Searching a use list this short costs less than indexing it. *)
let short_uses = 8
let long (v : Ir.value) = List.compare_length_with v.v_uses short_uses > 0

(* Index [v]'s use list in a table of its own, sized to fit (growing one
   shared table cost more than the rest of the walk). Entries that no
   longer point back at [v] stay out, so any hit is a use of the value
   now in the slot. *)
let record_uses uses (v : Ir.value) =
  if long v then begin
    let slots = Slots.create (List.length v.v_uses) in
    List.iter
      (fun (u : Ir.use) ->
        let ops = u.u_op.o_operands in
        if u.u_index < Array.length ops && ops.(u.u_index) == v then
          Slots.add slots (u.u_op, u.u_index) ())
      v.v_uses;
    Int_tbl.add uses v.v_id slots
  end

(* A value defined outside the walked op has no table and is searched. *)
let verify_use_def_consistency uses (op : Ir.op) =
  let recorded i (v : Ir.value) =
    long v
    && List.exists (fun s -> Slots.mem s (op, i)) (Int_tbl.find_all uses v.v_id)
    || List.exists (fun (u : Ir.use) -> u.u_op == op && u.u_index = i) v.v_uses
  in
  let rec go i =
    if i = Array.length op.o_operands then Ok ()
    else if recorded i op.o_operands.(i) then go (i + 1)
    else
      Err.fail ~loc:(Ir.Op.loc op)
        "op %s: operand %d not recorded in value's use list" op.o_name i
  in
  go 0

(* The registry entry of every op is looked up once per walk, by the
   walk of the block holding it, and handed to each check that needs it. *)
let traits = function Some (i : Dialect.op_info) -> i.traits | None -> []

let verify_terminator_position ((op : Ir.op), info) =
  if Option.is_some op.o_next && List.mem Dialect.Terminator (traits info)
  then
    Err.fail ~loc:(Ir.Op.loc op) "terminator %s is not last in its block"
      op.o_name
  else Ok ()

(* The blocks visible inside [op]'s regions, given [scope], the blocks
   visible from the block holding [op]. *)
let inner_scope (op : Ir.op) ~isolated scope =
  match op.o_parent with
  | Some b when not isolated -> b :: scope
  | _ -> []

let rec root_scope (op : Ir.op) =
  match op.o_parent with
  | Some { b_parent = Some { r_parent = Some p; _ }; _ } ->
    inner_scope p
      ~isolated:(Dialect.has_trait p.o_name Isolated_from_above)
      (root_scope p)
  | _ -> []

let visible scope (b : Ir.block) (op : Ir.op) (v : Ir.value) =
  match (v.v_def, Ir.Value.owner_block v) with
  | _, None -> false
  | Block_arg _, Some owner when owner == b -> true
  | Op_result (d, _), Some owner when owner == b ->
    Ir.Op.is_before_in_block d op
  | _, Some owner -> List.memq owner scope

(* Where [owner] sits relative to block [b]: [Some iso] when it is a
   block on [b]'s enclosing chain and [iso] the innermost
   Isolated_from_above op between them (visible blocks have none), [None]
   when the chain never reaches it. *)
let rec isolated_from (b : Ir.block) (owner : Ir.block) iso =
  match b.b_parent with
  | Some { r_parent = Some p; _ } -> (
    let iso =
      match iso with
      | None when Dialect.has_trait p.o_name Isolated_from_above -> Some p
      | iso -> iso
    in
    match p.o_parent with
    | Some pb when pb == owner -> Some iso
    | Some pb -> isolated_from pb owner iso
    | None -> None)
  | _ -> None

(* Why operand [v] of [op], in block [b], is not visible there. *)
let invisible_operand b (op : Ir.op) (v : Ir.value) =
  let fail fmt =
    Err.fail ~loc:(Ir.Op.loc op) ("op %s: operand %%v%d " ^^ fmt) op.o_name
      v.v_id
  in
  match Ir.Value.owner_block v with
  | Some owner when owner != b -> (
    match (isolated_from b owner None, owner.b_parent) with
    | Some (Some iso), _ ->
      fail "is not visible here: it is defined above %s, which is isolated \
            from above"
        iso.o_name
    | None, Some { r_parent = Some p; _ } ->
      fail "is not visible here: it is defined in a region of %s that does \
            not enclose this use"
        p.o_name
    | _ -> fail "is not visible here")
  | _ -> fail "used before definition"

let verify_ssa uses scope b ((op : Ir.op), _) =
  match Array.find_opt (fun v -> not (visible scope b op v)) op.o_operands with
  | Some v -> invisible_operand b op v
  | None -> Ok (Array.iter (record_uses uses) op.o_results)

(* [scope]: the blocks visible from the block holding [op]; [info]: its
   registry entry. *)
let rec verify_op_tree uses scope ((op : Ir.op), info) =
  let* () =
    match info with
    | None ->
      Err.fail ~loc:(Ir.Op.loc op) "unregistered operation %S" (Ir.Op.name op)
    | Some info -> (
      match info.Dialect.verify op with
      | Ok () -> Ok ()
      | Error e ->
        (* Anchor at the offending op so the failure carries its
           provenance chain all the way back to the frontend. *)
        Error
          (Err.add_context ("op " ^ Ir.Op.name op)
             (Err.set_loc_if_unknown (Ir.Op.loc op) e)))
  in
  let* () = verify_use_def_consistency uses op in
  let scope =
    match op.o_regions with
    | [] -> []
    | _ ->
      inner_scope op
        ~isolated:(List.mem Dialect.Isolated_from_above (traits info))
        scope
  in
  let block (b : Ir.block) =
    let rec entries acc = function
      | None -> acc
      | Some (o : Ir.op) -> entries ((o, Dialect.lookup o.o_name) :: acc) o.o_prev
    in
    let ops = entries [] b.b_last in
    let* () = all verify_terminator_position ops in
    Array.iter (record_uses uses) b.b_args;
    let* () = all (verify_ssa uses scope b) ops in
    all (verify_op_tree uses scope) ops
  in
  all (fun (r : Ir.region) -> all block r.r_blocks) op.o_regions

let verify op =
  verify_op_tree (Int_tbl.create 16) (root_scope op)
    (op, Dialect.lookup op.o_name)

let verify_exn op =
  match verify op with Ok () -> () | Error e -> raise (Err.Error e)
