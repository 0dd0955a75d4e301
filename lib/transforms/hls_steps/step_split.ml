(* Step 4: per-field dataflow split.  Every (single-result) stencil.apply
   becomes its own concurrent compute stage: a pipelined II=1 loop over
   the padded grid that reads one element (or neighbourhood vector) per
   input stream, re-emits the apply body, and writes the result stream.

   stencil.access and stencil.dyn_access are not lowered here: they are
   emitted as hls.nb_access / hls.small_access placeholders carrying the
   geometry (offset/halo, small-data slot) and are resolved by step 5
   (shift-buffer mapping) and step 8 (BRAM copies of small data).  The
   dyn_access index form is still analysed in this step, against the
   original apply body, so malformed kernels fail here with the same
   diagnostics as before. *)

open Shmls_ir
open Shmls_dialects
open Lowering_ctx

let name = "hls-split-dataflow"

let description =
  "step 4: one concurrent compute stage per stencil.apply (streaming II=1)"

let recover_indices b ~iv ~padded_extent =
  let rec go idx remaining =
    match remaining with
    | [] -> []
    | [ _ ] -> [ idx ]
    | _ :: rest ->
      let tail = List.fold_left ( * ) 1 rest in
      let c = Arith.constant_index b tail in
      let q = Arith.divsi b idx c in
      let r = Arith.remsi b idx c in
      q :: go r rest
  in
  go iv padded_extent

type compute_input =
  | From_shift of Ir.value * int list
  | From_value of Ir.value
  | From_small of int (* slot in the stage's small-copy list (step 8) *)
  | From_scalar of Ir.value

let contains_index_ops (apply : Ir.op) =
  Ir.Op.collect apply (fun o -> Ir.Op.name o = Stencil.index_op) <> []

(* Recognise idx = stencil.index(dim) [+ const] in the original body. *)
let dyn_access_axis_offset (op : Ir.op) =
  let idx_operand = Ir.Op.operand op 1 in
  match Ir.Value.defining_op idx_operand with
  | Some d when Ir.Op.name d = Stencil.index_op ->
    (Attr.int_exn (Ir.Op.get_attr_exn d "dim"), 0)
  | Some d when Ir.Op.name d = "arith.addi" -> (
    let a = Ir.Op.operand d 0 and c = Ir.Op.operand d 1 in
    match (Ir.Value.defining_op a, Ir.Value.defining_op c) with
    | Some da, Some dc
      when Ir.Op.name da = Stencil.index_op
           && Ir.Op.name dc = "arith.constant" ->
      ( Attr.int_exn (Ir.Op.get_attr_exn da "dim"),
        Attr.int_exn (Ir.Op.get_attr_exn dc "value") )
    | _ -> Err.raise_error "stencil-to-hls: unsupported dyn_access index form")
  | _ -> Err.raise_error "stencil-to-hls: unsupported dyn_access index form"

(* Emit the pipelined stream loop implementing one stencil.apply. *)
let build_compute_body db ~grid ~field_halo ~apply ~inputs ~out_stream =
  let padded_extent = List.map2 (fun g h -> g + (2 * h)) grid field_halo in
  let total = List.fold_left ( * ) 1 padded_extent in
  let lb = Arith.constant_index db 0 in
  let ub = Arith.constant_index db total in
  let step = Arith.constant_index db 1 in
  ignore
    (Scf.for_ db ~lb ~ub ~step (fun fb iv ->
         Hls.pipeline fb ~ii:1;
         let needs_indices =
           List.exists
             (fun (_, i) -> match i with From_small _ -> true | _ -> false)
             inputs
           || contains_index_ops apply
         in
         let indices =
           if needs_indices then recover_indices fb ~iv ~padded_extent else []
         in
         let read_values =
           List.map
             (fun (arg, input) ->
               match input with
               | From_shift (stream, halo) -> (arg, `Nb (Hls.read fb stream, halo))
               | From_value stream -> (arg, `Val (Hls.read fb stream))
               | From_small slot -> (arg, `Small slot)
               | From_scalar v -> (arg, `Val v))
             inputs
         in
         let mapping : Ir.value Int_tbl.t = Int_tbl.create 32 in
         (* scalar params and value-stream elements substitute directly for
            their block arguments; neighbourhood/small args only flow
            through stencil.access / stencil.dyn_access *)
         List.iter
           (fun (arg, rv) ->
             match rv with
             | `Val v -> Int_tbl.replace mapping (Ir.Value.id arg) v
             | `Nb _ | `Small _ -> ())
           read_values;
         let remap v =
           match Int_tbl.find_opt mapping (Ir.Value.id v) with
           | Some nv -> nv
           | None -> v
         in
         let lookup_arg a =
           List.find_map
             (fun (arg, rv) -> if Ir.Value.equal arg a then Some rv else None)
             read_values
         in
         let block = Stencil.apply_block apply in
         List.iter
           (fun (op : Ir.op) ->
             (* each compute-stage op chains back to the apply-body op it
                reimplements, i.e. to the originating stencil source line *)
             Builder.set_loc fb (Loc.derived name (Ir.Op.loc op));
             match Ir.Op.name op with
             | name when name = Stencil.access_op -> (
               match lookup_arg (Ir.Op.operand op 0) with
               | Some (`Nb (nb, halo)) ->
                 let v =
                   Builder.insert_op1 fb ~name:nb_access_op ~operands:[ nb ]
                     ~result_ty:Ty.F64
                     ~attrs:
                       [
                         ("halo", Attr.Ints halo);
                         ("offset", Attr.Ints (Stencil.access_offset op));
                       ]
                     ()
                 in
                 Int_tbl.replace mapping (Ir.Value.id (Ir.Op.result op 0)) v
               | Some (`Val v) ->
                 let ph =
                   Builder.insert_op1 fb ~name:nb_access_op ~operands:[ v ]
                     ~result_ty:Ty.F64
                     ~attrs:[ ("offset", Attr.Ints (Stencil.access_offset op)) ]
                     ()
                 in
                 Int_tbl.replace mapping (Ir.Value.id (Ir.Op.result op 0)) ph
               | Some (`Small _) | None ->
                 Err.raise_error "stencil-to-hls: access of unexpected source")
             | name when name = Stencil.dyn_access_op -> (
               match lookup_arg (Ir.Op.operand op 0) with
               | Some (`Small slot) ->
                 let axis, offset = dyn_access_axis_offset op in
                 let pos = List.nth indices axis in
                 let v =
                   Builder.insert_op1 fb ~name:small_access_op
                     ~operands:[ pos ] ~result_ty:Ty.F64
                     ~attrs:
                       [ ("input", Attr.Int slot); ("offset", Attr.Int offset) ]
                     ()
                 in
                 Int_tbl.replace mapping (Ir.Value.id (Ir.Op.result op 0)) v
               | _ ->
                 Err.raise_error "stencil-to-hls: dyn_access of non-small data")
             | name when name = Stencil.index_op ->
               Int_tbl.replace mapping
                 (Ir.Value.id (Ir.Op.result op 0))
                 (List.nth indices (Attr.int_exn (Ir.Op.get_attr_exn op "dim")))
             | name when name = Stencil.return_op -> (
               match Ir.Op.operands op with
               | [ r ] -> Hls.write fb (remap r) out_stream
               | _ ->
                 Err.raise_error
                   "stencil-to-hls: multi-result apply (run apply-split)")
             | _ ->
               let cloned =
                 Builder.insert_op fb ~name:(Ir.Op.name op)
                   ~operands:(List.map remap (Ir.Op.operands op))
                   ~result_tys:(List.map Ir.Value.ty (Ir.Op.results op))
                   ~attrs:(Ir.Op.attrs op) ()
               in
               List.iteri
                 (fun i r ->
                   Int_tbl.replace mapping (Ir.Value.id r) (Ir.Op.result cloned i))
                 (Ir.Op.results op))
           (Ir.Block.ops block)))

let run_on_fx fx =
  let body = new_body fx in
  let b = Builder.at_end body in
  let plan = fx.fx_plan in
  List.iter
    (fun (apply : Ir.op) ->
      let so =
        match get_source fx (Ir.Op.result apply 0) with
        | Some so -> so
        | None -> assert false
      in
      let out_stream = (value_box so).bx_main in
      let smalls = ref [] in
      let df =
        Hls.dataflow b ~stage:("compute:" ^ so.so_name) (fun db ->
            let inputs =
              List.map2
                (fun operand arg ->
                  match get_source fx operand with
                  | Some src ->
                    if src.so_has_shift then
                      (arg, From_shift (take (shift_box src), src.so_halo))
                    else (arg, From_value (take (value_box src)))
                  | None -> (
                    (* small data or scalar *)
                    match Ir.Value.defining_op operand with
                    | Some ld
                      when Ir.Op.name ld = Stencil.load_op
                           && class_of fx (Ir.Op.operand ld 0) = Small_constant
                      ->
                      let small_arg = Ir.Op.operand ld 0 in
                      let new_arg =
                        match new_of_old fx small_arg with
                        | Some v -> v
                        | None -> assert false
                      in
                      let slot = List.length !smalls in
                      smalls := (small_arg, new_arg) :: !smalls;
                      (arg, From_small slot)
                    | _ -> (
                      match new_of_old fx operand with
                      | Some nv -> (arg, From_scalar nv)
                      | None ->
                        Err.raise_error
                          "stencil-to-hls: unclassified apply operand")))
                (Ir.Op.operands apply)
                (Ir.Block.args (Stencil.apply_block apply))
            in
            build_compute_body db ~grid:plan.p_grid
              ~field_halo:plan.p_field_halo ~apply ~inputs ~out_stream)
      in
      Ir.Op.set_attr df "target" (Attr.Str so.so_name);
      fx.fx_computes <-
        fx.fx_computes @ [ { cp_stage = df; cp_smalls = List.rev !smalls } ])
    fx.fx_applies

(* ------------------------------------------------------------------ *)
(* no-split variant (A1): ONE fused compute stage.  Instead of one
   concurrent stage per apply wired through shift buffers, the fused
   stage makes a serialised pass over the padded grid per stored source,
   recomputing every intermediate apply inline at the composed offset
   and reading its field inputs straight from external memory — the
   monolithic design the paper's dataflow split is measured against.

   Field reads become a direct-memory form of the hls.nb_access
   placeholder (operands [ptr; idx_0..idx_{r-1}], attrs offset/extent)
   that step 5 lowers to clamped address arithmetic + llvm.load with
   NaN selects outside the padded extent — matching the NaN the split
   pipeline's shift buffers produce out of range, so boundary values
   stay comparable and interior values bit-identical.  Recomputation
   shares work through a per-iteration cache keyed (source value,
   composed offset); small-data slots are deduplicated stage-wide.

   Contract with step 5: the index operands of every direct access are
   the loop's recovered indices, each in [0, padded extent), so step 5
   bounds-checks a coordinate only on the side its composed offset can
   leave the grid.  A direct access built from any other index would
   need the two-sided checks back. *)

let run_on_fx_fused fx =
  let body = new_body fx in
  let b = Builder.at_end body in
  let plan = fx.fx_plan in
  let padded = padded_extent plan in
  let total = List.fold_left ( * ) 1 padded in
  let zeros = List.map (fun _ -> 0) plan.p_grid in
  let smalls = ref [] in
  let ext_reads = ref 0 in
  (* stage-wide small-data slots, deduplicated by original argument *)
  let slot_of small_arg new_arg =
    let rec go i = function
      | [] ->
        smalls := !smalls @ [ (small_arg, new_arg) ];
        i
      | (a, _) :: rest ->
        if Ir.Value.equal a small_arg then i else go (i + 1) rest
    in
    go 0 !smalls
  in
  (* Emit the value of source [v] (field load or apply result) at grid
     position indices+off, caching on (value, composed offset). *)
  let rec emit_value fb ~indices ~off ~cache v =
    let key = (Ir.Value.id v, off) in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
      let r =
        match Ir.Value.defining_op v with
        | Some ld when Ir.Op.name ld = Stencil.load_op ->
          let new_arg =
            match new_of_old fx (Ir.Op.operand ld 0) with
            | Some a -> a
            | None -> assert false
          in
          incr ext_reads;
          Builder.insert_op1 fb ~name:nb_access_op
            ~operands:(new_arg :: indices) ~result_ty:Ty.F64
            ~attrs:[ ("offset", Attr.Ints off); ("extent", Attr.Ints padded) ]
            ()
        | Some apply when Ir.Op.name apply = Stencil.apply_op ->
          emit_apply_at fb ~indices ~off ~cache apply
        | _ ->
          Err.raise_error "stencil-to-hls: fused compute of unexpected source"
      in
      Hashtbl.replace cache key r;
      r
  and emit_apply_at fb ~indices ~off ~cache (apply : Ir.op) =
    let block = Stencil.apply_block apply in
    let args = Ir.Block.args block in
    let kinds =
      List.map2
        (fun operand arg ->
          match get_source fx operand with
          | Some _ -> (arg, `Source operand)
          | None -> (
            match Ir.Value.defining_op operand with
            | Some ld
              when Ir.Op.name ld = Stencil.load_op
                   && class_of fx (Ir.Op.operand ld 0) = Small_constant ->
              let small_arg = Ir.Op.operand ld 0 in
              let new_arg =
                match new_of_old fx small_arg with
                | Some a -> a
                | None -> assert false
              in
              (arg, `Small (slot_of small_arg new_arg))
            | _ -> (
              match new_of_old fx operand with
              | Some nv -> (arg, `Scalar nv)
              | None ->
                Err.raise_error "stencil-to-hls: unclassified apply operand")))
        (Ir.Op.operands apply) args
    in
    let mapping : Ir.value Int_tbl.t = Int_tbl.create 32 in
    List.iter
      (fun (arg, k) ->
        match k with
        | `Scalar nv -> Int_tbl.replace mapping (Ir.Value.id arg) nv
        | `Source _ | `Small _ -> ())
      kinds;
    let remap v =
      match Int_tbl.find_opt mapping (Ir.Value.id v) with
      | Some nv -> nv
      | None -> v
    in
    let lookup_arg a =
      List.find_map
        (fun (arg, k) -> if Ir.Value.equal arg a then Some k else None)
        kinds
    in
    (* position along [axis] of the current evaluation point, i.e. the
       loop indices shifted by the composed offset *)
    let pos_along axis =
      let base = List.nth indices axis in
      let d = List.nth off axis in
      if d = 0 then base else Arith.addi fb base (Arith.constant_index fb d)
    in
    let result = ref None in
    List.iter
      (fun (op : Ir.op) ->
        Builder.set_loc fb (Loc.derived name (Ir.Op.loc op));
        match Ir.Op.name op with
        | n when n = Stencil.access_op -> (
          match lookup_arg (Ir.Op.operand op 0) with
          | Some (`Source src_v) ->
            let off2 = List.map2 ( + ) off (Stencil.access_offset op) in
            let v = emit_value fb ~indices ~off:off2 ~cache src_v in
            Int_tbl.replace mapping (Ir.Value.id (Ir.Op.result op 0)) v
          | _ -> Err.raise_error "stencil-to-hls: access of unexpected source")
        | n when n = Stencil.dyn_access_op -> (
          match lookup_arg (Ir.Op.operand op 0) with
          | Some (`Small slot) ->
            let axis, offset = dyn_access_axis_offset op in
            let v =
              Builder.insert_op1 fb ~name:small_access_op
                ~operands:[ pos_along axis ] ~result_ty:Ty.F64
                ~attrs:[ ("input", Attr.Int slot); ("offset", Attr.Int offset) ]
                ()
            in
            Int_tbl.replace mapping (Ir.Value.id (Ir.Op.result op 0)) v
          | _ -> Err.raise_error "stencil-to-hls: dyn_access of non-small data")
        | n when n = Stencil.index_op ->
          Int_tbl.replace mapping
            (Ir.Value.id (Ir.Op.result op 0))
            (pos_along (Attr.int_exn (Ir.Op.get_attr_exn op "dim")))
        | n when n = Stencil.return_op -> (
          match Ir.Op.operands op with
          | [ r ] -> result := Some (remap r)
          | _ ->
            Err.raise_error "stencil-to-hls: multi-result apply (run apply-split)")
        | _ ->
          let cloned =
            Builder.insert_op fb ~name:(Ir.Op.name op)
              ~operands:(List.map remap (Ir.Op.operands op))
              ~result_tys:(List.map Ir.Value.ty (Ir.Op.results op))
              ~attrs:(Ir.Op.attrs op) ()
          in
          List.iteri
            (fun i r ->
              Int_tbl.replace mapping (Ir.Value.id r) (Ir.Op.result cloned i))
            (Ir.Op.results op))
      (Ir.Block.ops block);
    match !result with
    | Some r -> r
    | None -> Err.raise_error "stencil-to-hls: apply body has no return"
  in
  (* one serialised pass per distinct stored source (a source stored to
     two fields is produced once; the dup stage fans it out) *)
  let stored_sources =
    List.fold_left
      (fun acc (st : Ir.op) ->
        let v = Ir.Op.operand st 0 in
        if List.exists (fun v' -> Ir.Value.equal v' v) acc then acc
        else acc @ [ v ])
      [] fx.fx_stores
  in
  let df =
    Hls.dataflow b ~stage:"compute:fused" (fun db ->
        List.iter
          (fun stored ->
            let so =
              match get_source fx stored with
              | Some so -> so
              | None -> assert false
            in
            let out_stream = (value_box so).bx_main in
            let lb = Arith.constant_index db 0 in
            let ub = Arith.constant_index db total in
            let step = Arith.constant_index db 1 in
            ignore
              (Scf.for_ db ~lb ~ub ~step (fun fb iv ->
                   Hls.pipeline fb ~ii:1;
                   let indices =
                     recover_indices fb ~iv ~padded_extent:padded
                   in
                   let cache = Hashtbl.create 32 in
                   let v = emit_value fb ~indices ~off:zeros ~cache stored in
                   Hls.write fb v out_stream)))
          stored_sources)
  in
  Ir.Op.set_attr df "target" (Attr.Str "fused");
  Ir.Op.set_attr df "passes" (Attr.Int (List.length stored_sources));
  Ir.Op.set_attr df "ext_reads" (Attr.Int !ext_reads);
  fx.fx_computes <- [ { cp_stage = df; cp_smalls = !smalls } ]

let run_on_ctx (ctx : t) =
  let run = if ctx.cx_variant.Variant.v_split then run_on_fx else run_on_fx_fused in
  List.iter run ctx.cx_funcs;
  stamp_derived ctx ~step:name

let pass =
  Pass.make ~name ~description (fun m ->
      let ctx = require ~step:name ~after:Step_streams.name m in
      run_on_ctx ctx;
      mark_done ctx name)
