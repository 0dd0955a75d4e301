(* Step 3: stream conversion.  Direct external-memory accesses become
   streams: every source (field load or apply result) gets a value stream
   box, sources read at offsets also get a shift-buffer stream carrying
   (2h+1)^d neighbourhood vectors, multi-reader streams get duplicate
   copies fed by a dup stage, and each shifted source gets its
   shift_buffer dataflow stage.

   The stream boxes themselves are construction (they carry no rewrite
   decision), but the stage materialisation is expressed as two
   [Rewriter] pattern sets driven by pending attributes stamped on the
   stream ops: "stream-shift-stages" builds the shift_buffer dataflow
   stage of every marked shifted source, then "stream-dup-stages" builds
   the dup stage of every marked multi-reader box.  The patterns remove
   their pending attribute as they fire, so the dumped IR is identical
   to the bespoke-walk formulation.

   Layout matters for later steps: the streams are created first (the
   last one is recorded as the insertion anchor for step 7's load_data
   stage), then the shift stages, then the dup stages — which is why the
   two sets are applied sequentially rather than unioned: the worklist
   visits the stream ops in block (= source) order within each run, so
   all shift stages land before any dup stage, exactly as before. *)

open Shmls_ir
open Shmls_dialects
open Lowering_ctx

let name = "hls-stream-conversion"

let description =
  "step 3: convert memory accesses into streams, shift buffers and dup stages"

(* Pending-work markers consumed (and removed) by the patterns below. *)
let pending_shift = "hls.pending_shift"
let pending_dup = "hls.pending_dup"

let main_op (bx : box) =
  match Ir.Value.defining_op bx.bx_main with
  | Some o -> o
  | None -> assert false

let has_attr a (op : Ir.op) = Ir.Op.get_attr op a <> None

(* shift stages: one shift_buffer dataflow stage per marked source *)
let shift_set ~b ~padded shift_of =
  Rewriter.pattern_set ~name:"stream-shift-stages"
    [
      Rewriter.make_pattern ~name:"stream-shift-stage"
        ~matches:(has_attr pending_shift)
        ~rewrite:(fun op ->
          Ir.Op.remove_attr op pending_shift;
          let so = shift_of op in
          let shift_bx =
            match so.so_shift with Some bx -> bx | None -> assert false
          in
          let src = take (value_box so) in
          let df =
            Hls.dataflow b ~stage:("shift:" ^ so.so_name) (fun db ->
                ignore
                  (Llvm_d.call db ~callee:"shift_buffer"
                     ~operands:[ src; shift_bx.bx_main ] ()))
          in
          Ir.Op.set_attr df "halo" (Attr.Ints so.so_halo);
          Ir.Op.set_attr df "extent" (Attr.Ints padded);
          true)
        ();
    ]

(* duplicate stages: one fan-out loop per marked multi-reader box *)
let dup_set ~b ~total_padded dup_of =
  Rewriter.pattern_set ~name:"stream-dup-stages"
    [
      Rewriter.make_pattern ~name:"stream-dup-stage"
        ~matches:(has_attr pending_dup)
        ~rewrite:(fun op ->
          Ir.Op.remove_attr op pending_dup;
          let stage_name, (bx : box) = dup_of op in
          ignore
            (Hls.dataflow b ~stage:("dup:" ^ stage_name) (fun db ->
                 let lb = Arith.constant_index db 0 in
                 let ub = Arith.constant_index db total_padded in
                 let step = Arith.constant_index db 1 in
                 ignore
                   (Scf.for_ db ~lb ~ub ~step (fun fb _iv ->
                        Hls.pipeline fb ~ii:1;
                        let v = Hls.read fb bx.bx_main in
                        List.iter (fun c -> Hls.write fb v c) bx.bx_copies))));
          true)
        ();
    ]

let run_on_fx ~fused fx =
  let body = new_body fx in
  let b = Builder.at_end body in
  let padded = padded_extent fx.fx_plan in
  let total_padded = List.fold_left ( * ) 1 padded in
  let shifts : source Int_tbl.t = Int_tbl.create 8 in
  let dups : (string * box) Int_tbl.t = Int_tbl.create 8 in
  let mark_dup stage_name (bx : box) =
    if bx.bx_copies <> [] then begin
      let op = main_op bx in
      Ir.Op.set_attr op pending_dup (Attr.Str stage_name);
      Int_tbl.replace dups op.Ir.o_id (stage_name, bx)
    end
  in
  List.iter
    (fun (_, so) ->
      (* no-split variant (A1): the fused compute stage reads external
         memory directly and recomputes intermediate applies inline, so
         the only streams left are the ones carrying stored results to
         the write_data stage — no shift buffers, no value streams for
         unstored sources. *)
      if fused then begin
        if so.so_store_readers > 0 then
          so.so_value <-
            Some
              (make_box b ~elem:Ty.F64 ~depth:depth_internal
                 ~readers:so.so_store_readers)
      end
      else begin
        let value_readers =
          (if so.so_has_shift then 1 else so.so_apply_readers)
          + so.so_store_readers
        in
        let depth = if so.so_is_field then depth_external else depth_internal in
        so.so_value <-
          Some (make_box b ~elem:Ty.F64 ~depth ~readers:value_readers);
        if so.so_has_shift then
          so.so_shift <-
            Some
              (make_box b
                 ~elem:(Ty.Array (nb_size so.so_halo, Ty.F64))
                 ~depth:depth_internal ~readers:so.so_apply_readers)
      end)
    fx.fx_sources;
  (match List.rev (Ir.Block.ops body) with
  | last :: _ -> fx.fx_stream_anchor <- Some last
  | [] -> fx.fx_stream_anchor <- None);
  (* mark the pending work the two pattern sets will materialise *)
  List.iter
    (fun (_, so) ->
      (match so.so_shift with
      | Some bx ->
        let op = main_op bx in
        Ir.Op.set_attr op pending_shift (Attr.Str so.so_name);
        Int_tbl.replace shifts op.Ir.o_id so
      | None -> ());
      (match so.so_value with
      | Some bx -> mark_dup so.so_name bx
      | None -> ());
      match so.so_shift with
      | Some bx -> mark_dup (so.so_name ^ "_shift") bx
      | None -> ())
    fx.fx_sources;
  let root = new_func fx in
  let shift_of (op : Ir.op) = Int_tbl.find shifts op.Ir.o_id in
  let dup_of (op : Ir.op) = Int_tbl.find dups op.Ir.o_id in
  ignore (Rewriter.apply_set (shift_set ~b ~padded shift_of) root);
  ignore (Rewriter.apply_set (dup_set ~b ~total_padded dup_of) root)

let run_on_ctx (ctx : t) =
  let fused = not ctx.cx_variant.Variant.v_split in
  List.iter (run_on_fx ~fused) ctx.cx_funcs;
  stamp_derived ctx ~step:name

let pass =
  Pass.make ~name ~description (fun m ->
      let ctx = require ~step:name ~after:Step_pack.name m in
      run_on_ctx ctx;
      mark_done ctx name)
