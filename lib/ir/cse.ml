(* Common subexpression elimination.

   Within each block, two Pure ops with the same name, attributes,
   operands and result types compute the same values; the later one is
   replaced by the earlier.  The result types belong in the key: an
   `arith.constant 1 : index` and an `arith.constant 1 : i64` share name,
   attribute and (no) operands, yet are not interchangeable.  Ops with
   regions are skipped (their equivalence would require region
   isomorphism, which no current producer needs). *)

type key = {
  k_name : string;
  k_operands : int list; (* value ids *)
  k_attrs : (string * Attr.t) list; (* sorted by attribute name *)
  k_result_tys : Ty.t list;
}

let key ~name ~operands ~attrs ~result_tys =
  let k_operands = List.map Ir.Value.id operands in
  {
    k_name = name;
    k_operands =
      (if Dialect.has_trait name Dialect.Commutative then
         List.sort Int.compare k_operands
       else k_operands);
    k_attrs = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs;
    k_result_tys = result_tys;
  }

let key_of_op (op : Ir.op) =
  key ~name:op.o_name ~operands:(Ir.Op.operands op) ~attrs:op.o_attrs
    ~result_tys:(List.map Ir.Value.ty (Ir.Op.results op))

(* Attribute values match structurally, except that floats match by
   their bits: 0.0 and -0.0 are different constants. *)
let rec same_attr (a : Attr.t) (b : Attr.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Arr xs, Arr ys -> List.equal same_attr xs ys
  | Dict xs, Dict ys -> List.equal same_named_attr xs ys
  | _ -> Attr.equal a b

and same_named_attr (k, x) (l, y) = String.equal k l && same_attr x y

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    String.equal a.k_name b.k_name
    && List.equal Int.equal a.k_operands b.k_operands
    && List.equal Ty.equal a.k_result_tys b.k_result_tys
    && List.equal same_named_attr a.k_attrs b.k_attrs

  let hash = Hashtbl.hash
end)

let eligible (op : Ir.op) =
  Dialect.has_trait op.o_name Dialect.Pure
  && op.o_regions = []
  && Array.length op.o_results > 0

let run_on_block (b : Ir.block) =
  let seen : Ir.op Tbl.t = Tbl.create 16 in
  let replaced = ref 0 in
  List.iter
    (fun op ->
      if eligible op then begin
        let key = key_of_op op in
        match Tbl.find_opt seen key with
        | Some earlier ->
          Ir.replace_op op (Ir.Op.results earlier);
          incr replaced
        | None -> Tbl.add seen key op
      end)
    (Ir.Block.ops b);
  !replaced

let run_on_op root =
  let total = ref 0 in
  let rec walk_op (op : Ir.op) =
    List.iter
      (fun (r : Ir.region) ->
        List.iter
          (fun b ->
            total := !total + run_on_block b;
            Ir.Block.iter_ops b walk_op)
          r.Ir.r_blocks)
      op.o_regions
  in
  walk_op root;
  !total

let pass =
  Pass.make ~name:"cse"
    ~description:"deduplicate pure operations within each block"
    (fun module_op -> ignore (run_on_op module_op))

let () = Pass.register pass
