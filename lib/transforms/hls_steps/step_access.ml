(* Step 5: shift-buffer access mapping.  The hls.nb_access placeholders
   left by step 4 are lowered in one pre-order walk: accesses into a
   shifted source become llvm.extractvalue at the offset's
   row-major position inside the (2h+1)^d neighbourhood vector; accesses
   into a plain value stream must be offset-free and forward the element
   unchanged.

   The fused (no-split) variant adds a third, direct-memory form carrying
   an "extent" attribute: operands [ptr; idx_0..idx_{r-1}] and a composed
   "offset".  It lowers to clamped per-dimension address arithmetic, a
   row-major linearised gep + llvm.load, and per-dimension NaN selects
   outside the padded extent — mirroring the NaN a shift buffer yields
   out of range, so the fused design stays comparable to the split one.

   Contract with step 4: every index operand of a direct access is a
   loop index recovered from the flat induction variable, so it lies in
   [0, padded extent).  A dimension is therefore clamped and range-checked
   only on the side its offset can leave: below for a negative offset,
   above for a positive one, not at all for zero.  Every select left out
   would pick the same operand on every point of the loop, so values
   stay bit-for-bit the same and the flop count is unchanged.

   That form is lowered one fused loop body at a time, in one in-order
   walk, and value-numbered as it is built: each index constant, the NaN
   constant, each composed coordinate, its clamp and range compare, each
   stride product and partial address sum exist once per body and serve
   every access that needs them; only the gep, the load and the NaN
   selects are per access.
   The heat_3d no-split HLS module at 12x10x8 has 103 ops, 91 of them
   defining a value: 359 and 352 when every access built its own address
   arithmetic, 175 and 163 with value numbering but two-sided bounds
   checks.  No float op is merged, so the stage's flop count is
   unchanged. *)

open Shmls_ir
open Shmls_dialects
open Lowering_ctx

let name = "hls-map-accesses"

let description =
  "step 5: map access offsets onto shift-buffer neighbourhood vectors"

(* Value numbering for one fused loop body: every address op is built
   through [shared], which returns the body's existing op of the same
   name, operands, attributes and result type instead of a copy.  The
   table lives for one in-order walk of one body, so a shared value is
   always inserted before the first access that needs it and dominates
   every later user.

   [numbered] ops take part: region-free pure single-result ops typed
   index or i1, and constants of any type (step 4 clones a kernel's f64
   coefficients into every inlined apply instance; a constant is no
   flop).  The f64 selects and the stage's float arithmetic are never
   merged: Extract prices the stage from its flop count. *)
type numbering = Ir.value Cse.Tbl.t

let numbered (op : Ir.op) =
  Dialect.has_trait (Ir.Op.name op) Dialect.Pure
  && Ir.Op.regions op = []
  &&
  match Ir.Op.results op with
  | [ r ] -> (
    Ir.Op.name op = Arith.constant_op
    || match Ir.Value.ty r with Ty.Index | Ty.I1 -> true | _ -> false)
  | _ -> false

let shared (vn : numbering) b ~name ?(attrs = []) operands ty =
  let k = Cse.key ~name ~operands ~attrs ~result_tys:[ ty ] in
  match Cse.Tbl.find_opt vn k with
  | Some v -> v
  | None ->
    let v = Builder.insert_op1 b ~name ~operands ~result_ty:ty ~attrs () in
    Cse.Tbl.add vn k v;
    v

(* Direct external-memory access of the fused variant: clamp the
   composed position into the padded extent per dimension, load at the
   row-major linear address, and select NaN for any out-of-range
   dimension.  With every index in [0, ext) (the contract with step 4,
   see the header), [idx + o] lies in [o, ext - 1 + o]: the lower clamp
   and the [sge 0] check are built only for [o < 0], the upper clamp and
   the [slt ext] check only for [o > 0], and an unshifted coordinate is
   used as it is.

   Constants, composed coordinates, clamps, range compares, stride
   products and partial address sums are shared through [vn]; the gep,
   the load and the NaN selects are per access. *)
let lower_direct_access vn b (op : Ir.op) ~offset ~extent =
  let index name ?attrs operands = shared vn b ~name ?attrs operands Ty.Index in
  let const n = index Arith.constant_op ~attrs:[ ("value", Attr.Int n) ] [] in
  let cmpi predicate x y =
    shared vn b ~name:"arith.cmpi"
      ~attrs:[ ("predicate", Attr.Str predicate) ]
      [ x; y ] Ty.I1
  in
  let select c x y = index "arith.select" [ c; x; y ] in
  let ptr = Ir.Op.operand op 0 in
  let indices = List.tl (Ir.Op.operands op) in
  (* (composed coordinate, offset) per dimension *)
  let coords =
    List.map2
      (fun idx o ->
        ((if o = 0 then idx else index "arith.addi" [ idx; const o ]), o))
      indices offset
  in
  let clamped =
    List.map2
      (fun (c, o) ext ->
        if o < 0 then select (cmpi "slt" c (const 0)) (const 0) c
        else if o > 0 then
          let maxi = const (ext - 1) in
          select (cmpi "sgt" c maxi) maxi c
        else c)
      coords extent
  in
  let strides =
    let rec go = function
      | [] -> []
      | [ _ ] -> [ 1 ]
      | _ :: rest ->
        let s = go rest in
        (List.hd s * List.hd rest) :: s
    in
    go extent
  in
  let linear =
    List.fold_left2
      (fun acc c stride ->
        let term =
          if stride = 1 then c else index "arith.muli" [ c; const stride ]
        in
        match acc with
        | None -> Some term
        | Some a -> Some (index "arith.addi" [ a; term ]))
      None clamped strides
  in
  let linear = match linear with Some v -> v | None -> assert false in
  let p =
    Builder.insert_op1 b ~name:Llvm_d.gep_op ~operands:[ ptr; linear ]
      ~result_ty:small_ptr_ty
      ~attrs:[ ("indices", Attr.Ints []) ]
      ()
  in
  let loaded = Llvm_d.load b p in
  let nan () =
    shared vn b ~name:Arith.constant_op
      ~attrs:[ ("value", Attr.Float Float.nan) ]
      [] Ty.F64
  in
  List.fold_left2
    (fun acc (c, o) ext ->
      if o < 0 then Arith.select b (cmpi "sge" c (const 0)) acc (nan ())
      else if o > 0 then Arith.select b (cmpi "slt" c (const ext)) acc (nan ())
      else acc)
    loaded coords extent

(* The three access forms are told apart by attribute (halo / extent /
   neither).  Each variant lowers its forms in one in-order walk: the
   split variant rewrites every placeholder where it stands; the fused
   variant's step 4 emits only the direct-memory form, lowered one loop
   body at a time. *)

let access_offset op = Attr.ints_exn (Ir.Op.get_attr_exn op "offset")

let builder_before op =
  let block =
    match Ir.Op.parent op with Some b -> b | None -> assert false
  in
  Builder.before block op

let is_direct_access op =
  Ir.Op.name op = nb_access_op && Ir.Op.get_attr op "extent" <> None

(* Split variant: access into a shifted source becomes an extractvalue
   at the offset's row-major position inside the neighbourhood vector. *)
let lower_shift_vector op =
  let halo = Attr.ints_exn (Ir.Op.get_attr_exn op "halo") in
  let pos = nb_index halo (access_offset op) in
  let b = builder_before op in
  let v =
    Builder.insert_op1 b ~name:Llvm_d.extractvalue_op
      ~operands:[ Ir.Op.operand op 0 ] ~result_ty:Ty.F64
      ~attrs:[ ("indices", Attr.Ints [ pos ]) ]
      ()
  in
  Ir.replace_op op [ v ]

(* Split variant: an access into a plain value stream must be
   offset-free and forwards the element unchanged. *)
let lower_value_forward op =
  if List.exists (fun o -> o <> 0) (access_offset op) then
    Err.raise_error "stencil-to-hls: offset access of a value stream";
  Ir.replace_op op [ Ir.Op.operand op 0 ]

(* Fused variant: one in-order walk over a loop body.  Step 4's own
   index arithmetic and constants (the recovered loop indices' divisors,
   the composed positions of small-data reads, the coefficients of every
   inlined apply) seed the numbering, so the direct accesses reuse them
   and their duplicates fold too. *)
let lower_fused_body (body : Ir.block) =
  let vn : numbering = Cse.Tbl.create 64 in
  List.iter
    (fun (op : Ir.op) ->
      if is_direct_access op then begin
        let extent = Attr.ints_exn (Ir.Op.get_attr_exn op "extent") in
        let b = builder_before op in
        let v = lower_direct_access vn b op ~offset:(access_offset op) ~extent in
        Ir.replace_op op [ v ]
      end
      else if numbered op then begin
        let k = Cse.key_of_op op in
        match Cse.Tbl.find_opt vn k with
        | Some v -> Ir.replace_op op [ v ]
        | None -> Cse.Tbl.add vn k (Ir.Op.result op 0)
      end)
    (Ir.Block.ops body)

let run_on_fx ~fused fx =
  let func = new_func fx in
  if fused then begin
    let bodies = ref [] in
    Ir.Op.walk func (fun op ->
        if is_direct_access op then
          match Ir.Op.parent op with
          | Some body when not (List.exists (Ir.Block.equal body) !bodies) ->
            bodies := body :: !bodies
          | _ -> ());
    List.iter lower_fused_body (List.rev !bodies)
  end
  else begin
    (* every placeholder, in pre-order, rewritten in that order: the new
       ops are created in the order a pre-order worklist would make them *)
    let accesses = ref [] in
    Ir.Op.walk func (fun op ->
        if Ir.Op.name op = nb_access_op then accesses := op :: !accesses);
    List.iter
      (fun op ->
        if Ir.Op.get_attr op "halo" <> None then lower_shift_vector op
        else if Ir.Op.get_attr op "extent" = None then lower_value_forward op)
      (List.rev !accesses)
  end

let run_on_ctx (ctx : t) =
  let fused = not ctx.cx_variant.Variant.v_split in
  List.iter (run_on_fx ~fused) ctx.cx_funcs;
  stamp_derived ctx ~step:name

let pass =
  Pass.make ~name ~description (fun m ->
      let ctx = require ~step:name ~after:Step_split.name m in
      run_on_ctx ctx;
      mark_done ctx name)
