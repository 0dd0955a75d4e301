(* Step 1 of the paper's Section 3.3: classify the kernel arguments
   (stencil inputs / outputs / small constants / scalars), derive the
   port/CU plan, and build the source table every later step consumes.
   Purely analytic: the IR is not changed; as the first step it also
   opens the lowering context on the module. *)

open Shmls_ir
open Shmls_dialects
open Lowering_ctx

let name = "hls-classify-args"

let description =
  "step 1: classify kernel arguments and plan AXI ports / compute units"

let analyze_func ~variant (func : Ir.op) =
  let classes = classify_args func in
  let plan = make_plan ?cu:variant.Variant.v_cu func classes in
  let rank = plan.p_rank in
  let applies = Ir.Op.collect func (fun o -> Ir.Op.name o = Stencil.apply_op) in
  List.iter
    (fun (a : Ir.op) ->
      if Ir.Op.num_results a <> 1 then
        Err.raise_error
          "stencil-to-hls: multi-result apply present (run stencil-apply-split)")
    applies;
  let old_body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  let stores =
    List.filter
      (fun (o : Ir.op) -> Ir.Op.name o = Stencil.store_op)
      (Ir.Block.ops old_body)
  in
  let load_ops =
    List.filter
      (fun (o : Ir.op) -> Ir.Op.name o = Stencil.load_op)
      (Ir.Block.ops old_body)
  in
  let class_of arg =
    match List.find_opt (fun (a, _) -> Ir.Value.equal a arg) classes with
    | Some (_, c) -> c
    | None -> Err.raise_error "stencil-to-hls: unknown argument"
  in
  let field_loads =
    List.filter
      (fun (ld : Ir.op) -> class_of (Ir.Op.operand ld 0) <> Small_constant)
      load_ops
  in
  (* Readers and halos come from each source's use list, so a source
     costs its own uses, not a walk of the function. *)
  let apply_reader_count v = List.length (live_uses Stencil.apply_op v) in
  let store_reader_count v =
    List.length
      (List.filter
         (fun (u : Ir.use) -> u.u_index = 0 && List.memq u.u_op stores)
         (live_uses Stencil.store_op v))
  in
  let name_of_arg arg =
    let rec go i = function
      | [] -> "f"
      | (a, _) :: rest ->
        if Ir.Value.equal a arg then Printf.sprintf "arg%d" i else go (i + 1) rest
    in
    go 0 classes
  in
  let sources = ref [] in
  let add_source v so = sources := (Ir.Value.id v, so) :: !sources in
  List.iter
    (fun (ld : Ir.op) ->
      let temp = Ir.Op.result ld 0 in
      let readers = apply_reader_count temp in
      add_source temp
        {
          so_name = name_of_arg (Ir.Op.operand ld 0);
          so_halo = source_halo temp rank;
          so_is_field = true;
          so_apply_readers = readers;
          so_store_readers = store_reader_count temp;
          so_has_shift = readers > 0;
          so_value = None;
          so_shift = None;
        })
    field_loads;
  List.iteri
    (fun i (a : Ir.op) ->
      let temp = Ir.Op.result a 0 in
      let readers = apply_reader_count temp in
      let halo = source_halo temp rank in
      add_source temp
        {
          so_name = Printf.sprintf "t%d" i;
          so_halo = halo;
          so_is_field = false;
          so_apply_readers = readers;
          so_store_readers = store_reader_count temp;
          so_has_shift = readers > 0 && List.exists (fun h -> h > 0) halo;
          so_value = None;
          so_shift = None;
        })
    applies;
  {
    fx_old = func;
    fx_classes = classes;
    fx_plan = plan;
    fx_applies = applies;
    fx_stores = stores;
    fx_field_loads = field_loads;
    fx_sources = List.rev !sources;
    fx_new = None;
    fx_new_args = [];
    fx_stream_anchor = None;
    fx_computes = [];
  }

let run_on_ctx (ctx : t) =
  ctx.cx_funcs <-
    List.map
      (analyze_func ~variant:ctx.cx_variant)
      (Ir.Module_.funcs ctx.cx_module);
  stamp_derived ctx ~step:name

(* The registered pass carries the variant: as the step that opens the
   lowering context it is the single injection point, and every later
   step reads [cx_variant] from the context instead of taking options. *)
let pass_with ~variant =
  Pass.make ~name ~description (fun m ->
      let ctx = begin_ ~variant ~in_place:true m in
      run_on_ctx ctx;
      mark_done ctx name)

let pass = pass_with ~variant:Variant.default
