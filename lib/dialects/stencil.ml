(* The stencil dialect: the high-level representation of stencil
   computations that DSL frontends (PSyclone, Devito, Flang) emit, and the
   input to both the CPU lowering and the Stencil-HMLS FPGA lowering.

   Op set (after the open MLIR/xDSL stencil dialect):

     stencil.external_load : memref -> field     bind an external buffer
     stencil.load          : field -> temp       make a field readable
     stencil.apply         : temps/scalars -> temps, one region computing
                             a single grid point (args mirror operands)
     stencil.access        : temp -> elem, with a constant offset attr
     stencil.index         : -> index, current position along a dimension
     stencil.return        : terminator of apply, one value per result
     stencil.store         : temp into field over bounds
     stencil.external_store: field -> memref
     stencil.cast          : resize field bounds *)

open Shmls_ir

let external_load_op = "stencil.external_load"
let load_op = "stencil.load"
let apply_op = "stencil.apply"
let access_op = "stencil.access"
let dyn_access_op = "stencil.dyn_access"
let index_op = "stencil.index"
let return_op = "stencil.return"
let store_op = "stencil.store"
let external_store_op = "stencil.external_store"
let cast_op = "stencil.cast"

(* ------------------------------------------------------------------ *)
(* Verifiers *)

let verify_external_load (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.results op) with
  | [ src ], [ r ] -> (
    match (Ir.Value.ty src, Ir.Value.ty r) with
    | Ty.Memref (_, e1), Ty.Field (_, e2) when Ty.equal e1 e2 -> Ok ()
    | _ -> Err.fail "stencil.external_load: (memref<T>) -> field<T>")
  | _ -> Err.fail "stencil.external_load: one operand, one result"

let verify_load (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.results op) with
  | [ f ], [ r ] -> (
    match (Ir.Value.ty f, Ir.Value.ty r) with
    | Ty.Field (_, e1), Ty.Temp (_, e2) when Ty.equal e1 e2 -> Ok ()
    | _ -> Err.fail "stencil.load: (field<T>) -> temp<T>")
  | _ -> Err.fail "stencil.load: one operand, one result"

let verify_apply (op : Ir.op) =
  match Ir.Op.regions op with
  | [ r ] -> (
    let entry = Ir.Region.entry r in
    let args = Ir.Block.args entry in
    let operands = Ir.Op.operands op in
    if List.length args <> List.length operands then
      Err.fail "stencil.apply: region args must mirror operands"
    else if
      not
        (List.for_all2
           (fun a o -> Ty.equal (Ir.Value.ty a) (Ir.Value.ty o))
           args operands)
    then Err.fail "stencil.apply: region arg types must match operand types"
    else
      match Ir.Block.terminator entry with
      | Some term when Ir.Op.name term = return_op ->
        if Ir.Op.num_operands term <> Ir.Op.num_results op then
          Err.fail "stencil.apply: stencil.return arity must match results"
        else if
          not
            (List.for_all
               (fun res ->
                 match Ir.Value.ty res with Ty.Temp _ -> true | _ -> false)
               (Ir.Op.results op))
        then Err.fail "stencil.apply: results must be stencil.temp"
        else Ok ()
      | _ -> Err.fail "stencil.apply: region must end in stencil.return")
  | _ -> Err.fail "stencil.apply: exactly one region"

let verify_access (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.results op, Ir.Op.get_attr op "offset") with
  | [ t ], [ r ], Some (Attr.Ints offset) -> (
    match Ir.Value.ty t with
    | Ty.Temp (bounds, elem) ->
      let rank_ok =
        match bounds with
        | Some b -> List.length offset = Ty.bounds_rank b
        | None -> true
      in
      if not rank_ok then
        Err.fail "stencil.access: offset rank disagrees with temp rank"
      else if not (Ty.equal elem (Ir.Value.ty r)) then
        Err.fail "stencil.access: result must be the temp's element type"
      else Ok ()
    | _ -> Err.fail "stencil.access: operand must be a stencil.temp")
  | _ -> Err.fail "stencil.access: (temp) -> elem with offset attr"

let verify_dyn_access (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.results op) with
  | t :: indices, [ r ] -> (
    match Ir.Value.ty t with
    | Ty.Temp (bounds, elem) ->
      let rank_ok =
        match bounds with
        | Some b -> List.length indices = Ty.bounds_rank b
        | None -> indices <> []
      in
      if not rank_ok then
        Err.fail "stencil.dyn_access: index count disagrees with temp rank"
      else if
        not (List.for_all (fun i -> Ty.is_index (Ir.Value.ty i)) indices)
      then Err.fail "stencil.dyn_access: indices must have index type"
      else if not (Ty.equal elem (Ir.Value.ty r)) then
        Err.fail "stencil.dyn_access: result must be the temp's element type"
      else Ok ()
    | _ -> Err.fail "stencil.dyn_access: first operand must be a stencil.temp")
  | _ -> Err.fail "stencil.dyn_access: (temp, index...) -> elem"

let verify_index (op : Ir.op) =
  match (Ir.Op.get_attr op "dim", Ir.Op.results op) with
  | Some (Attr.Int _), [ r ] when Ty.is_index (Ir.Value.ty r) -> Ok ()
  | _ -> Err.fail "stencil.index: needs dim attr and index result"

let verify_store (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.get_attr op "lb", Ir.Op.get_attr op "ub") with
  | [ t; f ], Some (Attr.Ints _), Some (Attr.Ints _) -> (
    match (Ir.Value.ty t, Ir.Value.ty f) with
    | Ty.Temp (_, e1), Ty.Field (_, e2) when Ty.equal e1 e2 -> Ok ()
    | _ -> Err.fail "stencil.store: (temp<T>, field<T>)")
  | _ -> Err.fail "stencil.store: (temp, field) with lb/ub attrs"

let verify_external_store (op : Ir.op) =
  match Ir.Op.operands op with
  | [ f; dst ] -> (
    match (Ir.Value.ty f, Ir.Value.ty dst) with
    | Ty.Field (_, e1), Ty.Memref (_, e2) when Ty.equal e1 e2 -> Ok ()
    | _ -> Err.fail "stencil.external_store: (field<T>, memref<T>)")
  | _ -> Err.fail "stencil.external_store: two operands"

let verify_cast (op : Ir.op) =
  match (Ir.Op.operands op, Ir.Op.results op) with
  | [ f ], [ r ] -> (
    match (Ir.Value.ty f, Ir.Value.ty r) with
    | Ty.Field (_, e1), Ty.Field (_, e2) when Ty.equal e1 e2 -> Ok ()
    | _ -> Err.fail "stencil.cast: (field<T>) -> field<T>")
  | _ -> Err.fail "stencil.cast: one operand, one result"

let register () =
  Dialect.register external_load_op ~verify:verify_external_load;
  Dialect.register load_op ~verify:verify_load;
  Dialect.register apply_op ~verify:verify_apply;
  Dialect.register access_op ~verify:verify_access ~traits:[ Dialect.Pure ];
  Dialect.register dyn_access_op ~verify:verify_dyn_access
    ~traits:[ Dialect.Pure ];
  Dialect.register index_op ~verify:verify_index ~traits:[ Dialect.Pure ];
  Dialect.register return_op ~traits:[ Dialect.Terminator ];
  Dialect.register store_op ~verify:verify_store;
  Dialect.register external_store_op ~verify:verify_external_store;
  Dialect.register cast_op ~verify:verify_cast ~traits:[ Dialect.Pure ]

(* ------------------------------------------------------------------ *)
(* Builders *)

let load b field =
  let elem =
    match Ir.Value.ty field with
    | Ty.Field (_, elem) -> elem
    | t -> Err.raise_error "stencil.load of non-field %s" (Ty.to_string t)
  in
  Builder.insert_op1 b ~name:load_op ~operands:[ field ]
    ~result_ty:(Ty.Temp (None, elem))
    ()

let access b temp ~offset =
  let elem =
    match Ir.Value.ty temp with
    | Ty.Temp (_, elem) -> elem
    | t -> Err.raise_error "stencil.access of non-temp %s" (Ty.to_string t)
  in
  Builder.insert_op1 b ~name:access_op ~operands:[ temp ] ~result_ty:elem
    ~attrs:[ ("offset", Attr.Ints offset) ]
    ()

let dyn_access b temp ~indices =
  let elem =
    match Ir.Value.ty temp with
    | Ty.Temp (_, elem) -> elem
    | t -> Err.raise_error "stencil.dyn_access of non-temp %s" (Ty.to_string t)
  in
  Builder.insert_op1 b ~name:dyn_access_op ~operands:(temp :: indices)
    ~result_ty:elem ()

let index b ~dim =
  Builder.insert_op1 b ~name:index_op ~result_ty:Ty.Index
    ~attrs:[ ("dim", Attr.Int dim) ]
    ()

let return_ b values =
  ignore (Builder.insert_op b ~name:return_op ~operands:values ())

(* [apply b ~operands ~result_elems body]: [body] receives a builder inside
   the region and the block args (mirroring [operands]) and must return the
   per-point values, one per result. *)
let apply b ~operands ~result_elems body =
  let arg_tys = List.map Ir.Value.ty operands in
  let region =
    Builder.build_region ~arg_tys ~loc:(Builder.loc b) (fun bb args ->
        let results = body bb args in
        return_ bb results)
  in
  Builder.insert_op b ~name:apply_op ~operands
    ~result_tys:(List.map (fun e -> Ty.Temp (None, e)) result_elems)
    ~regions:[ region ] ()

let store b temp field ~lb ~ub =
  ignore
    (Builder.insert_op b ~name:store_op ~operands:[ temp; field ]
       ~attrs:[ ("lb", Attr.Ints lb); ("ub", Attr.Ints ub) ]
       ())

(* ------------------------------------------------------------------ *)
(* Accessors used by transforms *)

let apply_region (op : Ir.op) =
  match Ir.Op.regions op with
  | [ r ] -> r
  | _ -> Err.raise_error "stencil.apply: expected one region"

let apply_block op = Ir.Region.entry (apply_region op)

let access_offset (op : Ir.op) = Attr.ints_exn (Ir.Op.get_attr_exn op "offset")

let store_bounds (op : Ir.op) =
  Ty.make_bounds
    ~lb:(Attr.ints_exn (Ir.Op.get_attr_exn op "lb"))
    ~ub:(Attr.ints_exn (Ir.Op.get_attr_exn op "ub"))
