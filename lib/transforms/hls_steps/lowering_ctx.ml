(* Shared state of the nine-step stencil->HLS lowering (paper Section 3.3).

   Each step (step_classify.ml .. step_axi.ml) is an ordinary Pass.t over
   the module, but the steps cooperate on per-kernel state that has no IR
   representation: argument classes, the port/CU plan, the source table
   and the stream boxes with their duplicate-copy bookkeeping.  That state
   lives in a [t] record, threaded between passes through a module
   attribute: [begin_] allocates a context, stores its token under the
   "hls.lowering_ctx" attribute, later steps recover it with [require],
   and the final step releases the token — a fully lowered module carries
   no trace of the machinery.

   Two modes share the same step implementations:
   - in-place ([begin_ ~in_place:true], used by the registered passes):
     packed kernels are appended next to the stencil originals, and
     [finalize] detaches the originals once step 9 has run;
   - functional ([begin_ ~in_place:false], used by Stencil_to_hls.run):
     packed kernels grow in a fresh module and the input is only read
     (no threading attribute either), which the interpreter-backed
     verification and the shared lowered module of Shmls.compile_cached
     rely on. *)

open Shmls_ir
open Shmls_dialects

(* U280 shell limit used in the paper's CU-count reasoning. *)
let max_axi_ports = 32

let depth_external = 64
let depth_internal = 4

let packed_field_ty = Ty.Ptr (Ty.Struct [ Ty.Array (8, Ty.F64) ])
let small_ptr_ty = Ty.Ptr Ty.F64

(* Guard band on BRAM copies of small data so that index arithmetic at
   padded-boundary positions stays in range (values are edge-clamped). *)
let small_guard = 2

(* ------------------------------------------------------------------ *)
(* Placeholder ops bridging the split step to the later mapping steps.
   Step 4 emits them where stencil.access / stencil.dyn_access appeared;
   step 5 lowers neighbourhood accesses onto the shift-buffer vector and
   step 8 lowers small-data accesses onto the stage-local BRAM copy.
   They are registered (unverified) so intermediate states pass
   --verify-each; no placeholder survives the full pipeline. *)

let nb_access_op = "hls.nb_access"
let small_access_op = "hls.small_access"

let register_placeholders () =
  Dialect.register nb_access_op;
  Dialect.register small_access_op

(* ------------------------------------------------------------------ *)
(* Step 1: argument classification *)

type arg_class =
  | Field_input
  | Field_output
  | Field_inout
  | Small_constant
  | Scalar_constant

let classify_args (func : Ir.op) =
  let body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  List.map
    (fun arg ->
      match Ir.Value.ty arg with
      | Ty.Field (b, _) when Ty.bounds_rank b = 1 -> (
        (* 1D fields whose loaded temps are only dyn_accessed are small
           coefficient data *)
        let loads =
          List.filter
            (fun (u : Ir.use) -> Ir.Op.name u.u_op = Stencil.load_op)
            (Ir.Value.uses arg)
        in
        (* consumed exclusively through stencil.dyn_access
           (position-indexed coefficient lookups) -> small constant data;
           1D fields read with stencil.access are ordinary grids of a
           rank-1 kernel *)
        let dyn_only_in_apply (u : Ir.use) =
          Ir.Op.name u.u_op = Stencil.apply_op
          &&
          let block_arg = Ir.Block.arg (Stencil.apply_block u.u_op) u.u_index in
          Ir.Value.uses block_arg
          |> List.for_all (fun (u2 : Ir.use) ->
                 Ir.Op.name u2.u_op = Stencil.dyn_access_op)
        in
        let reads_dyn_only =
          loads <> []
          && List.for_all
               (fun (u : Ir.use) ->
                 let temp = Ir.Op.result u.u_op 0 in
                 Ir.Value.uses temp |> List.for_all dyn_only_in_apply)
               loads
        in
        if reads_dyn_only then (arg, Small_constant) else (arg, Field_input))
      | Ty.Field _ ->
        let read =
          List.exists
            (fun (u : Ir.use) -> Ir.Op.name u.u_op = Stencil.load_op)
            (Ir.Value.uses arg)
        in
        let written =
          List.exists
            (fun (u : Ir.use) ->
              Ir.Op.name u.u_op = Stencil.store_op && u.u_index = 1)
            (Ir.Value.uses arg)
        in
        (match (read, written) with
        | true, true -> (arg, Field_inout)
        | false, true -> (arg, Field_output)
        | _, _ -> (arg, Field_input))
      | _ -> (arg, Scalar_constant))
    (Ir.Block.args body)

(* ------------------------------------------------------------------ *)
(* Neighbourhood geometry (step 5) *)

let nb_size halo = List.fold_left (fun acc h -> acc * ((2 * h) + 1)) 1 halo

(* Row-major linear position of [offset] within the neighbourhood cube. *)
let nb_index halo offset =
  List.fold_left2
    (fun acc h o ->
      if abs o > h then
        Err.raise_error "stencil-to-hls: offset %d exceeds halo %d" o h;
      (acc * ((2 * h) + 1)) + (o + h))
    0 halo offset

(* Uses of [v] by [name] ops that still read [v] in that slot: a stale
   use-list entry never counts. *)
let live_uses name (v : Ir.value) =
  List.filter
    (fun (u : Ir.use) ->
      Ir.Op.name u.u_op = name
      && u.u_index < Ir.Op.num_operands u.u_op
      && u.u_op.o_operands.(u.u_index) == v)
    (Ir.Value.uses v)

(* Per-source halo: max |offset| per dimension over every stencil.access
   of any apply argument bound to [source]. *)
let source_halo (source : Ir.value) rank =
  let h = Array.make rank 0 in
  List.iter
    (fun (u : Ir.use) ->
      let arg = Ir.Block.arg (Stencil.apply_block u.u_op) u.u_index in
      List.iter
        (fun (a : Ir.use) ->
          if a.u_index = 0 then
            List.iteri
              (fun d o -> h.(d) <- max h.(d) (abs o))
              (Stencil.access_offset a.u_op))
        (live_uses Stencil.access_op arg))
    (live_uses Stencil.apply_op source);
  Array.to_list h

(* ------------------------------------------------------------------ *)
(* The transformation plan *)

type plan = {
  p_kernel_name : string;
  p_rank : int;
  p_grid : int list;
  p_field_halo : int list;
  p_ports_per_cu : int;
  p_cu : int;
  p_n_inputs : int;
  p_n_outputs : int;
  p_n_smalls : int;
}

let make_plan ?cu (func : Ir.op) classes =
  let name = Func.sym_name func in
  let fb =
    match
      List.find_map
        (fun (arg, cls) ->
          match (cls, Ir.Value.ty arg) with
          | (Field_input | Field_output | Field_inout), Ty.Field (b, _) ->
            Some b
          | _ -> None)
        classes
    with
    | Some b -> b
    | None -> Err.raise_error "stencil-to-hls: kernel has no field arguments"
  in
  let rank = Ty.bounds_rank fb in
  let store =
    match Ir.Op.collect func (fun o -> Ir.Op.name o = Stencil.store_op) with
    | s :: _ -> s
    | [] -> Err.raise_error "stencil-to-hls: kernel stores nothing"
  in
  let interior = Stencil.store_bounds store in
  let grid = Ty.bounds_extent interior in
  let field_halo =
    List.map2 (fun l il -> abs (il - l)) fb.Ty.lb interior.Ty.lb
  in
  let count p = List.length (List.filter (fun (_, c) -> p c) classes) in
  let n_fields =
    count (function
      | Field_input | Field_output | Field_inout -> true
      | Small_constant | Scalar_constant -> false)
  in
  let n_smalls = count (fun c -> c = Small_constant) in
  let ports = n_fields + if n_smalls = 0 then 0 else 1 in
  {
    p_kernel_name = name;
    p_rank = rank;
    p_grid = grid;
    p_field_halo = field_halo;
    p_ports_per_cu = ports;
    p_cu =
      (match cu with
      | Some n -> max 1 n
      | None -> max 1 (max_axi_ports / ports));
    p_n_inputs = count (fun c -> c = Field_input || c = Field_inout);
    p_n_outputs = count (fun c -> c = Field_output || c = Field_inout);
    p_n_smalls = n_smalls;
  }

let padded_extent plan =
  List.map2 (fun g h -> g + (2 * h)) plan.p_grid plan.p_field_halo

(* ------------------------------------------------------------------ *)
(* Stream boxes: a stream plus its expected readers; hands out duplicate
   copies when more than one stage reads it. *)

type box = {
  bx_main : Ir.value;
  bx_copies : Ir.value list;
  mutable bx_next : int;
}

let make_box b ~elem ~depth ~readers =
  let main = Hls.create_stream b ~depth ~elem () in
  let copies =
    if readers > 1 then
      List.init readers (fun _ -> Hls.create_stream b ~depth ~elem ())
    else []
  in
  { bx_main = main; bx_copies = copies; bx_next = 0 }

let take box =
  match box.bx_copies with
  | [] -> box.bx_main
  | copies ->
    if box.bx_next >= List.length copies then
      Err.raise_error "stencil-to-hls: stream over-subscribed";
    let c = List.nth copies box.bx_next in
    box.bx_next <- box.bx_next + 1;
    c

(* ------------------------------------------------------------------ *)
(* Source bookkeeping *)

type source = {
  so_name : string;
  so_halo : int list;
  so_is_field : bool;
  so_apply_readers : int;
  so_store_readers : int;
  so_has_shift : bool;
  mutable so_value : box option; (* f64 elements *)
  mutable so_shift : box option; (* neighbourhood vectors *)
}

let value_box so =
  match so.so_value with
  | Some bx -> bx
  | None ->
    Err.raise_error
      "stencil-to-hls: source %S has no value stream (run hls-stream-conversion)"
      so.so_name

let shift_box so =
  match so.so_shift with
  | Some bx -> bx
  | None ->
    Err.raise_error
      "stencil-to-hls: source %S has no shift stream (run hls-stream-conversion)"
      so.so_name

(* ------------------------------------------------------------------ *)
(* Per-function lowering state *)

(* One generated compute stage (step 4) and the small-data arguments it
   consumes (old argument paired with its packed replacement, in apply
   operand order), for step 8 to materialise as BRAM copies. *)
type compute = {
  cp_stage : Ir.op;
  cp_smalls : (Ir.value * Ir.value) list;
}

type func_ctx = {
  fx_old : Ir.op;
  fx_classes : (Ir.value * arg_class) list;
  fx_plan : plan;
  fx_applies : Ir.op list;
  fx_stores : Ir.op list;
  fx_field_loads : Ir.op list;
  fx_sources : (int * source) list;
      (* keyed by temp value id; field loads first, then applies *)
  mutable fx_new : Ir.op option;
  mutable fx_new_args : Ir.value list;
  mutable fx_stream_anchor : Ir.op option;
      (* last create_stream: the load_data stage is inserted after it *)
  mutable fx_computes : compute list; (* apply order *)
}

let new_func fx =
  match fx.fx_new with
  | Some f -> f
  | None ->
    Err.raise_error
      "stencil-to-hls: kernel %S has no packed shell (run hls-pack-interfaces)"
      fx.fx_plan.p_kernel_name

let new_body fx = Ir.Region.entry (List.hd (Ir.Op.regions (new_func fx)))

let class_of fx arg =
  match List.find_opt (fun (a, _) -> Ir.Value.equal a arg) fx.fx_classes with
  | Some (_, c) -> c
  | None -> Err.raise_error "stencil-to-hls: unknown argument"

let get_source fx v = List.assoc_opt (Ir.Value.id v) fx.fx_sources

let new_of_old fx v =
  List.find_map
    (fun ((o, _), n) -> if Ir.Value.equal o v then Some n else None)
    (List.combine fx.fx_classes fx.fx_new_args)

(* ------------------------------------------------------------------ *)
(* The context, threaded through the pipeline via a module attribute *)

type t = {
  cx_module : Ir.op; (* source module (holds the threading attribute) *)
  cx_target : Ir.op; (* module receiving the packed kernels *)
  cx_in_place : bool;
  cx_variant : Variant.t; (* pipeline variant the steps consult *)
  cx_original_ops : Ir.op list; (* module body at begin_, for finalize *)
  mutable cx_funcs : func_ctx list;
  mutable cx_done : string list; (* completed step pass names *)
}

let ctx_attr = "hls.lowering_ctx"
let live : (int, t) Hashtbl.t = Hashtbl.create 4
let tokens = ref 0

let begin_ ?(variant = Variant.default) ~in_place m =
  register_placeholders ();
  (match Ir.Op.get_attr m ctx_attr with
  | Some _ ->
    Err.raise_error
      "stencil-to-hls: a lowering is already in progress on this module"
  | None -> ());
  let target = if in_place then m else Ir.Module_.create () in
  let ctx =
    {
      cx_module = m;
      cx_target = target;
      cx_in_place = in_place;
      cx_variant = variant;
      cx_original_ops = Ir.Module_.ops m;
      cx_funcs = [];
      cx_done = [];
    }
  in
  (* only an in-place lowering is threaded through its module: a
     functional one writes nothing to its input, so the variants of one
     kernel can all lower from the same module *)
  if in_place then begin
    incr tokens;
    Hashtbl.replace live !tokens ctx;
    Ir.Op.set_attr m ctx_attr (Attr.Int !tokens)
  end;
  ctx

let find m =
  match Ir.Op.get_attr m ctx_attr with
  | Some (Attr.Int token) -> Hashtbl.find_opt live token
  | _ -> None

let require ~step ~after m =
  match find m with
  | None ->
    Err.raise_error
      "%s: no stencil->HLS lowering in progress on this module (run \
       hls-classify-args first)"
      step
  | Some ctx ->
    if not (List.mem after ctx.cx_done) then
      Err.raise_error "%s: %s has not run" step after;
    ctx

let mark_done ctx step = ctx.cx_done <- step :: ctx.cx_done

(* Location provenance: any op a step leaves without a location is
   stamped [Pass_derived (step, base)], where [base] is the location of
   the kernel function it was lowered from — so even coarse-grained
   steps keep a chain back to the frontend.  Steps that clone ops
   (step 4's compute bodies) stamp precise per-op derivations *before*
   this sweep runs, and already-derived ops are left alone. *)
let stamp_derived ctx ~step =
  List.iter
    (fun fx ->
      match fx.fx_new with
      | None -> ()
      | Some f ->
        let base = Ir.Op.loc fx.fx_old in
        let derived = Loc.derived step base in
        Ir.Op.walk f (fun o ->
            match Ir.Op.loc o with
            | Loc.Unknown -> Ir.Op.set_loc o derived
            | _ -> ()))
    ctx.cx_funcs

(* Drop the threading attribute and the registry entry; idempotent. *)
let release ctx =
  if ctx.cx_in_place then begin
    (match Ir.Op.get_attr ctx.cx_module ctx_attr with
    | Some (Attr.Int token) -> Hashtbl.remove live token
    | _ -> ());
    Ir.Op.remove_attr ctx.cx_module ctx_attr
  end

(* End an in-place lowering: detach the original stencil-dialect ops
   (clearing their operand uses so the graph stays consistent), leaving
   only the packed kernels in the module. *)
let finalize ctx =
  release ctx;
  if ctx.cx_in_place then
    List.iter
      (fun op ->
        Ir.Op.walk op (fun o ->
            Array.iteri
              (fun i v -> Ir.Value.remove_use v ~op:o ~index:i)
              o.Ir.o_operands);
        Ir.Op.detach op)
      ctx.cx_original_ops

let plans ctx = List.map (fun fx -> (fx.fx_plan, new_func fx)) ctx.cx_funcs
