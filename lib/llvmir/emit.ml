(* Lowering the HLS-dialect kernel function to textual LLVM-IR —
   contribution (3) of the paper.

   Follows the Fortran-HLS approach the paper adopts: HLS directives are
   encoded as calls to void marker functions with no arguments (they do
   not perturb the IR structure), streams are pointers to single-field
   structs with an @llvm.fpga.set.stream.depth call on their first
   element (the backend's two stream-legality conditions, section 3.2),
   and each hls.dataflow region is outlined into its own function called
   from the kernel, as Vitis requires of dataflow stages.

   The f++ tool ({!Fplusplus}) later pattern-matches the marker calls and
   rewrites them into loop metadata / function attributes. *)

open Shmls_ir
open Shmls_dialects

(* source-provenance comment for an emitted function, from an op's loc *)
let src_of_op op =
  let loc = Ir.Op.loc op in
  if Loc.is_known loc then Some (Loc.describe loc) else None

let marker_pipeline ii = Printf.sprintf "_shmls_pipeline_ii_%d" ii
let marker_unroll f = Printf.sprintf "_shmls_unroll_%d" f

let marker_array_partition kind factor =
  Printf.sprintf "_shmls_array_partition_%s_%d" kind factor

let marker_dataflow = "_shmls_dataflow"

let marker_interface ~bundle ~bank =
  (* negative banks (shared small-data bundle) print as "S": LLVM
     identifiers cannot contain '-' *)
  if bank >= 0 then Printf.sprintf "_shmls_interface_%s_bank%d" bundle bank
  else Printf.sprintf "_shmls_interface_%s_bankS" bundle

let set_stream_depth = "llvm.fpga.set.stream.depth"

(* ------------------------------------------------------------------ *)

let rec ll_ty_of (t : Ty.t) : Ll.ty =
  match t with
  | Ty.F64 -> Ll.Double
  | Ty.F32 | Ty.F16 -> Ll.Double
  | Ty.I1 -> Ll.I1
  | Ty.I32 -> Ll.I32
  | Ty.I64 | Ty.Index -> Ll.I64
  | Ty.Ptr t -> Ll.Ptr (ll_ty_of t)
  | Ty.Struct ts -> Ll.Struct (List.map ll_ty_of ts)
  | Ty.Array (n, t) -> Ll.Array (n, ll_ty_of t)
  | Ty.Stream elem -> Ll.Ptr (Ll.Struct [ ll_ty_of elem ])
  | Ty.Memref (shape, elem) ->
    Ll.Ptr (Ll.Array (List.fold_left ( * ) 1 shape, ll_ty_of elem))
  | _ -> Err.raise_error "emit: cannot lower type %s" (Ty.to_string t)

type st = {
  m : Ll.modul;
  fn : Ll.func;
  mutable block : Ll.block;
  vals : Ll.operand Int_tbl.t; (* SSA value id -> operand *)
  names : Idgen.t;
  loop_ids : Idgen.t;
}

let fresh st prefix = prefix ^ string_of_int (Idgen.fresh st.names)

let bind st v operand = Int_tbl.replace st.vals (Ir.Value.id v) operand

let operand_of st v =
  match Int_tbl.find_opt st.vals (Ir.Value.id v) with
  | Some o -> o
  | None -> Err.raise_error "emit: unbound value %%v%d" (Ir.Value.id v)

let emit_marker st name =
  Ll.declare st.m ~name ~ret:Ll.Void ~args:[];
  Ll.emit st.block (Ll.Call (None, Ll.Void, name, [], []))

let new_block st label =
  let b = Ll.add_block st.fn label in
  st.block <- b;
  b

(* ------------------------------------------------------------------ *)

let binop_name = function
  | "arith.addf" -> Some ("fadd", Ll.Double)
  | "arith.subf" -> Some ("fsub", Ll.Double)
  | "arith.mulf" -> Some ("fmul", Ll.Double)
  | "arith.divf" -> Some ("fdiv", Ll.Double)
  | "arith.addi" -> Some ("add", Ll.I64)
  | "arith.subi" -> Some ("sub", Ll.I64)
  | "arith.muli" -> Some ("mul", Ll.I64)
  | "arith.divsi" -> Some ("sdiv", Ll.I64)
  | "arith.remsi" -> Some ("srem", Ll.I64)
  | _ -> None

let math_intrinsic = function
  | "math.sqrt" -> Some "llvm.sqrt.f64"
  | "math.exp" -> Some "llvm.exp.f64"
  | "math.log" -> Some "llvm.log.f64"
  | "math.absf" -> Some "llvm.fabs.f64"
  | "math.powf" -> Some "llvm.pow.f64"
  | "math.tanh" -> Some "tanh"
  | _ -> None

let rec emit_op st (op : Ir.op) =
  match Ir.Op.name op with
  | "arith.constant" -> (
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f -> bind st (Ir.Op.result op 0) (Ll.CFloat f)
    | Attr.Int i -> bind st (Ir.Op.result op 0) (Ll.CInt i)
    | _ -> Err.raise_error "emit: bad constant")
  | name when binop_name name <> None ->
    let opname, ty =
      match binop_name name with Some x -> x | None -> assert false
    in
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Binop
         (r, opname, ty, operand_of st (Ir.Op.operand op 0),
          operand_of st (Ir.Op.operand op 1)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.maximumf" | "arith.minimumf" ->
    let callee =
      if Ir.Op.name op = "arith.maximumf" then "llvm.maxnum.f64"
      else "llvm.minnum.f64"
    in
    Ll.declare st.m ~name:callee ~ret:Ll.Double ~args:[ Ll.Double; Ll.Double ];
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Call
         ( Some r,
           Ll.Double,
           callee,
           [
             (Ll.Double, operand_of st (Ir.Op.operand op 0));
             (Ll.Double, operand_of st (Ir.Op.operand op 1));
           ],
           [] ));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.negf" ->
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Binop (r, "fsub", Ll.Double, Ll.CFloat 0.0, operand_of st (Ir.Op.operand op 0)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.sitofp" ->
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Sitofp (r, Ll.I64, operand_of st (Ir.Op.operand op 0), Ll.Double));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.cmpi" ->
    let pred = Attr.str_exn (Ir.Op.get_attr_exn op "predicate") in
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Icmp
         (r, pred, Ll.I64, operand_of st (Ir.Op.operand op 0),
          operand_of st (Ir.Op.operand op 1)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.cmpf" ->
    let pred = Attr.str_exn (Ir.Op.get_attr_exn op "predicate") in
    let r = fresh st "v" in
    Ll.emit st.block
      (Ll.Fcmp
         (r, pred, Ll.Double, operand_of st (Ir.Op.operand op 0),
          operand_of st (Ir.Op.operand op 1)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "arith.select" ->
    let r = fresh st "v" in
    let ty = ll_ty_of (Ir.Value.ty (Ir.Op.result op 0)) in
    Ll.emit st.block
      (Ll.Select
         (r, ty, operand_of st (Ir.Op.operand op 0),
          operand_of st (Ir.Op.operand op 1),
          operand_of st (Ir.Op.operand op 2)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | name when math_intrinsic name <> None ->
    let callee = match math_intrinsic name with Some c -> c | None -> assert false in
    let args =
      List.map (fun v -> (Ll.Double, operand_of st v)) (Ir.Op.operands op)
    in
    Ll.declare st.m ~name:callee ~ret:Ll.Double
      ~args:(List.map (fun _ -> Ll.Double) args);
    let r = fresh st "v" in
    Ll.emit st.block (Ll.Call (Some r, Ll.Double, callee, args, []));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "hls.pipeline" -> emit_marker st (marker_pipeline (Hls.pipeline_ii op))
  | "hls.unroll" ->
    emit_marker st (marker_unroll (Attr.int_exn (Ir.Op.get_attr_exn op "factor")))
  | "hls.array_partition" ->
    let kind = Attr.str_exn (Ir.Op.get_attr_exn op "kind") in
    let factor = Attr.int_exn (Ir.Op.get_attr_exn op "factor") in
    emit_marker st (marker_array_partition kind factor)
  | "hls.create_stream" ->
    (* stream legality (paper 3.2): pointer to a single-element struct,
       plus @llvm.fpga.set.stream.depth on the first element *)
    let elem = ll_ty_of (Hls.stream_elem op) in
    let struct_ty = Ll.Struct [ elem ] in
    let s = fresh st "stream" in
    Ll.emit st.block (Ll.Alloca (s, struct_ty));
    let e = fresh st "stream_head" in
    Ll.emit st.block (Ll.Gep (e, struct_ty, Ll.Reg s, [ Ll.CInt 0; Ll.CInt 0 ]));
    Ll.declare st.m ~name:set_stream_depth ~ret:Ll.Void
      ~args:[ Ll.Ptr Ll.Double; Ll.I32 ];
    Ll.emit st.block
      (Ll.Call
         ( None,
           Ll.Void,
           set_stream_depth,
           [ (Ll.Ptr elem, Ll.Reg e); (Ll.I32, Ll.CInt (Hls.stream_depth op)) ],
           [] ));
    bind st (Ir.Op.result op 0) (Ll.Reg s)
  | "hls.read" -> (
    let stream = Ir.Op.operand op 0 in
    match Ir.Value.ty stream with
    | Ty.Stream (Ty.Array (n, _)) ->
      (* wide read: runtime writes the neighbourhood into a local buffer *)
      let buf = fresh st "nb" in
      Ll.emit st.block (Ll.Alloca (buf, Ll.Array (n, Ll.Double)));
      Ll.declare st.m ~name:"hls_stream_read_wide" ~ret:Ll.Void
        ~args:[ Ll.Ptr (Ll.Struct [ Ll.Array (n, Ll.Double) ]); Ll.Ptr (Ll.Array (n, Ll.Double)) ];
      Ll.emit st.block
        (Ll.Call
           ( None,
             Ll.Void,
             "hls_stream_read_wide",
             [
               ( Ll.Ptr (Ll.Struct [ Ll.Array (n, Ll.Double) ]),
                 operand_of st stream );
               (Ll.Ptr (Ll.Array (n, Ll.Double)), Ll.Reg buf);
             ],
             [] ));
      bind st (Ir.Op.result op 0) (Ll.Reg buf)
    | _ ->
      Ll.declare st.m ~name:"hls_stream_read_f64" ~ret:Ll.Double
        ~args:[ Ll.Ptr (Ll.Struct [ Ll.Double ]) ];
      let r = fresh st "v" in
      Ll.emit st.block
        (Ll.Call
           ( Some r,
             Ll.Double,
             "hls_stream_read_f64",
             [ (Ll.Ptr (Ll.Struct [ Ll.Double ]), operand_of st stream) ],
             [] ));
      bind st (Ir.Op.result op 0) (Ll.Reg r))
  | "hls.write" ->
    Ll.declare st.m ~name:"hls_stream_write_f64" ~ret:Ll.Void
      ~args:[ Ll.Double; Ll.Ptr (Ll.Struct [ Ll.Double ]) ];
    Ll.emit st.block
      (Ll.Call
         ( None,
           Ll.Void,
           "hls_stream_write_f64",
           [
             (Ll.Double, operand_of st (Ir.Op.operand op 0));
             (Ll.Ptr (Ll.Struct [ Ll.Double ]), operand_of st (Ir.Op.operand op 1));
           ],
           [] ))
  | "llvm.extractvalue" -> (
    (* neighbourhood pick from the wide-read buffer *)
    match Attr.ints_exn (Ir.Op.get_attr_exn op "indices") with
    | [ i ] ->
      let n =
        match Ir.Value.ty (Ir.Op.operand op 0) with
        | Ty.Array (n, _) -> n
        | _ -> 32
      in
      let p = fresh st "p" in
      Ll.emit st.block
        (Ll.Gep
           ( p,
             Ll.Array (n, Ll.Double),
             operand_of st (Ir.Op.operand op 0),
             [ Ll.CInt 0; Ll.CInt i ] ));
      let r = fresh st "v" in
      Ll.emit st.block (Ll.Load (r, Ll.Double, Ll.Reg p));
      bind st (Ir.Op.result op 0) (Ll.Reg r)
    | _ -> Err.raise_error "emit: multi-index extractvalue")
  | "llvm.getelementptr" ->
    let r = fresh st "p" in
    let indices =
      match
        (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
      with
      | [], 2 -> [ operand_of st (Ir.Op.operand op 1) ]
      | idx, _ -> List.map (fun i -> Ll.CInt i) idx
    in
    Ll.emit st.block
      (Ll.Gep (r, Ll.Double, operand_of st (Ir.Op.operand op 0), indices));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "llvm.load" ->
    let r = fresh st "v" in
    Ll.emit st.block (Ll.Load (r, Ll.Double, operand_of st (Ir.Op.operand op 0)));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "llvm.store" ->
    Ll.emit st.block
      (Ll.Store
         (Ll.Double, operand_of st (Ir.Op.operand op 0),
          operand_of st (Ir.Op.operand op 1)))
  | "llvm.call" | "func.call" ->
    let callee = Attr.sym_exn (Ir.Op.get_attr_exn op "callee") in
    let args =
      List.map
        (fun v -> (ll_ty_of (Ir.Value.ty v), operand_of st v))
        (Ir.Op.operands op)
    in
    Ll.declare st.m ~name:callee ~ret:Ll.Void ~args:(List.map fst args);
    Ll.emit st.block (Ll.Call (None, Ll.Void, callee, args, []))
  | "memref.alloca" | "memref.alloc" -> (
    match Ir.Value.ty (Ir.Op.result op 0) with
    | Ty.Memref (shape, _) ->
      let n = List.fold_left ( * ) 1 shape in
      let r = fresh st "local" in
      Ll.emit st.block (Ll.Alloca (r, Ll.Array (n, Ll.Double)));
      bind st (Ir.Op.result op 0) (Ll.Reg r)
    | _ -> Err.raise_error "emit: alloca of non-memref")
  | "memref.load" ->
    let n =
      match Ir.Value.ty (Ir.Op.operand op 0) with
      | Ty.Memref (shape, _) -> List.fold_left ( * ) 1 shape
      | _ -> 0
    in
    let p = fresh st "p" in
    Ll.emit st.block
      (Ll.Gep
         ( p,
           Ll.Array (n, Ll.Double),
           operand_of st (Ir.Op.operand op 0),
           [ Ll.CInt 0; operand_of st (Ir.Op.operand op 1) ] ));
    let r = fresh st "v" in
    Ll.emit st.block (Ll.Load (r, Ll.Double, Ll.Reg p));
    bind st (Ir.Op.result op 0) (Ll.Reg r)
  | "memref.store" ->
    let n =
      match Ir.Value.ty (Ir.Op.operand op 1) with
      | Ty.Memref (shape, _) -> List.fold_left ( * ) 1 shape
      | _ -> 0
    in
    let p = fresh st "p" in
    Ll.emit st.block
      (Ll.Gep
         ( p,
           Ll.Array (n, Ll.Double),
           operand_of st (Ir.Op.operand op 1),
           [ Ll.CInt 0; operand_of st (Ir.Op.operand op 2) ] ));
    Ll.emit st.block (Ll.Store (Ll.Double, operand_of st (Ir.Op.operand op 0), Ll.Reg p))
  | "scf.for" ->
    let label = "for" ^ string_of_int (Idgen.fresh st.loop_ids) in
    let header = label ^ ".header" in
    let body_l = label ^ ".body" in
    let latch = label ^ ".latch" in
    let exit = label ^ ".exit" in
    let lb = operand_of st (Ir.Op.operand op 0) in
    let ub = operand_of st (Ir.Op.operand op 1) in
    let step = operand_of st (Ir.Op.operand op 2) in
    let pre_label = st.block.Ll.bl_label in
    Ll.emit st.block (Ll.Br header);
    let hb = new_block st header in
    let iv = fresh st "iv" in
    let iv_next = fresh st "iv_next" in
    Ll.emit hb (Ll.Phi (iv, Ll.I64, [ (lb, pre_label); (Ll.Reg iv_next, latch) ]));
    let cmp = fresh st "cmp" in
    Ll.emit hb (Ll.Icmp (cmp, "slt", Ll.I64, Ll.Reg iv, ub));
    Ll.emit hb (Ll.CondBr (Ll.Reg cmp, body_l, exit));
    let bb = new_block st body_l in
    ignore bb;
    let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
    (match Ir.Block.args block with
    | a :: _ -> bind st a (Ll.Reg iv)
    | [] -> ());
    List.iter
      (fun (o : Ir.op) -> if Ir.Op.name o <> "scf.yield" then emit_op st o)
      (Ir.Block.ops block);
    Ll.emit st.block (Ll.Br latch);
    let lb_block = new_block st latch in
    Ll.emit lb_block (Ll.Binop (iv_next, "add", Ll.I64, Ll.Reg iv, step));
    Ll.emit lb_block (Ll.Br header);
    ignore (new_block st exit)
  | "stencil.index" | "scf.yield" | "hls.empty" | "hls.full" ->
    Err.raise_error "emit: unexpected op %s at LLVM emission" (Ir.Op.name op)
  | name -> Err.raise_error "emit: unsupported op %s" name

(* ------------------------------------------------------------------ *)
(* Outlining dataflow stages *)

(* Free values a dataflow region reads from the enclosing function, in
   first-use order.  One pre-order walk: every value is defined before
   its first use in that order (definitions dominate uses; an op's
   results and its regions' arguments are marked when the op is
   visited, before any op nested in it), so an operand not yet defined
   when it is first seen comes from outside. *)
let free_values (df : Ir.op) =
  let defined = Int_tbl.create 64 in
  let free = ref [] in
  Ir.Op.walk df (fun o ->
      Array.iter
        (fun (v : Ir.value) ->
          let id = Ir.Value.id v in
          if not (Int_tbl.mem defined id) then begin
            Int_tbl.add defined id ();
            free := v :: !free
          end)
        o.Ir.o_operands;
      Array.iter
        (fun (res : Ir.value) -> Int_tbl.replace defined (Ir.Value.id res) ())
        o.Ir.o_results;
      List.iter
        (fun r ->
          List.iter
            (fun b ->
              List.iter
                (fun (a : Ir.value) -> Int_tbl.replace defined (Ir.Value.id a) ())
                (Ir.Block.args b))
            (Ir.Region.blocks r))
        (Ir.Op.regions o));
  List.rev !free

(* [stages] numbers the outlined stage functions of one LLVM module, so
   the names depend only on the module being emitted. *)
let emit_dataflow_stage (m : Ll.modul) ~stages ~kernel_name (df : Ir.op)
    outer_st =
  let stage_name = Hls.dataflow_stage df in
  let clean =
    String.map (fun c -> if c = ':' then '_' else c) stage_name
  in
  let fname =
    kernel_name ^ "__" ^ clean ^ "_" ^ string_of_int (Idgen.fresh stages)
  in
  let frees = free_values df in
  let args =
    List.mapi (fun i v -> (ll_ty_of (Ir.Value.ty v), "a" ^ string_of_int i)) frees
  in
  let fn =
    Ll.create_func ?src:(src_of_op df) m ~name:fname ~ret:Ll.Void ~args
      ~attrs:[]
  in
  let entry = Ll.add_block fn "entry" in
  let st =
    {
      m;
      fn;
      block = entry;
      vals = Int_tbl.create 64;
      names = Idgen.create ();
      loop_ids = Idgen.create ();
    }
  in
  List.iter2 (fun v (_, a) -> bind st v (Ll.Reg a)) frees args;
  let body = Hls.dataflow_body df in
  List.iter (emit_op st) (Ir.Block.ops body);
  Ll.emit st.block (Ll.Ret (Ll.Void, None));
  (* the call in the kernel body *)
  let call_args =
    List.map (fun v -> (ll_ty_of (Ir.Value.ty v), operand_of outer_st v)) frees
  in
  Ll.emit outer_st.block (Ll.Call (None, Ll.Void, fname, call_args, []))

(* ------------------------------------------------------------------ *)

let emit_kernel (m : Ll.modul) ~stages (func : Ir.op) =
  let name = Func.sym_name func in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  let args =
    List.mapi
      (fun i v -> (ll_ty_of (Ir.Value.ty v), "arg" ^ string_of_int i))
      (Ir.Block.args body)
  in
  let fn =
    Ll.create_func ?src:(src_of_op func) m ~name ~ret:Ll.Void ~args ~attrs:[]
  in
  let entry = Ll.add_block fn "entry" in
  let st =
    {
      m;
      fn;
      block = entry;
      vals = Int_tbl.create 64;
      names = Idgen.create ();
      loop_ids = Idgen.create ();
    }
  in
  List.iter2 (fun v (_, a) -> bind st v (Ll.Reg a)) (Ir.Block.args body) args;
  emit_marker st marker_dataflow;
  List.iter
    (fun (op : Ir.op) ->
      match Ir.Op.name op with
      | "hls.interface" ->
        let bundle = Attr.str_exn (Ir.Op.get_attr_exn op "bundle") in
        let bank = Attr.int_exn (Ir.Op.get_attr_exn op "hbm_bank") in
        emit_marker st (marker_interface ~bundle ~bank)
      | "hls.dataflow" -> emit_dataflow_stage m ~stages ~kernel_name:name op st
      | "func.return" -> Ll.emit st.block (Ll.Ret (Ll.Void, None))
      | _ -> emit_op st op)
    (Ir.Block.ops body);
  fn

(* Emit every HLS kernel function of a module into one LLVM module. *)
let emit_module (ir_module : Ir.op) =
  let m = Ll.create_module () in
  let stages = Idgen.create () in
  List.iter
    (fun f ->
      match Ir.Op.get_attr f "hls_kernel" with
      | Some (Attr.Bool true) -> ignore (emit_kernel m ~stages f)
      | _ -> ())
    (Ir.Module_.funcs ir_module);
  m
