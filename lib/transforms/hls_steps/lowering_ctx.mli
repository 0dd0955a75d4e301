(** Shared state of the nine-step stencil->HLS lowering, threaded between
    the step passes through the "hls.lowering_ctx" module attribute.  See
    lowering_ctx.ml for the full story; the step modules and the
    Stencil_to_hls orchestrator are the only intended clients. *)

open Shmls_ir

val max_axi_ports : int
val depth_external : int
val depth_internal : int
val packed_field_ty : Ty.t
val small_ptr_ty : Ty.t
val small_guard : int

(** Placeholder ops emitted by step 4 and consumed by steps 5 / 8. *)
val nb_access_op : string

val small_access_op : string
val register_placeholders : unit -> unit

type arg_class =
  | Field_input
  | Field_output
  | Field_inout
  | Small_constant
  | Scalar_constant

val classify_args : Ir.op -> (Ir.value * arg_class) list

(** Neighbourhood size for a per-dimension halo: [(2h+1)^rank]. *)
val nb_size : int list -> int

(** Row-major position of an offset inside the neighbourhood cube;
    raises if the offset exceeds the halo. *)
val nb_index : int list -> int list -> int

(** Uses of a value by ops of the given name that still read the value
    in that operand slot. *)
val live_uses : string -> Ir.value -> Ir.use list

(** Per-dimension halo of a source: the largest |offset| of any
    stencil.access reading an apply argument bound to it. *)
val source_halo : Ir.value -> int -> int list

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

(** [?cu] forces the CU replication factor (the cu=N variant) instead of
    deriving it from the 32-port shell budget. *)
val make_plan : ?cu:int -> Ir.op -> (Ir.value * arg_class) list -> plan
val padded_extent : plan -> int list

type box = {
  bx_main : Ir.value;
  bx_copies : Ir.value list;
  mutable bx_next : int;
}

val make_box : Builder.t -> elem:Ty.t -> depth:int -> readers:int -> box

(** Hand out the next unconsumed copy (or the main stream when the box
    has a single reader); raises once over-subscribed. *)
val take : box -> Ir.value

type source = {
  so_name : string;
  so_halo : int list;
  so_is_field : bool;
  so_apply_readers : int;
  so_store_readers : int;
  so_has_shift : bool;
  mutable so_value : box option;
  mutable so_shift : box option;
}

val value_box : source -> box
val shift_box : source -> box

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
  mutable fx_new : Ir.op option;
  mutable fx_new_args : Ir.value list;
  mutable fx_stream_anchor : Ir.op option;
  mutable fx_computes : compute list;
}

val new_func : func_ctx -> Ir.op
val new_body : func_ctx -> Ir.block
val class_of : func_ctx -> Ir.value -> arg_class
val get_source : func_ctx -> Ir.value -> source option
val new_of_old : func_ctx -> Ir.value -> Ir.value option

type t = {
  cx_module : Ir.op;
  cx_target : Ir.op;
  cx_in_place : bool;
  cx_variant : Variant.t;
  cx_original_ops : Ir.op list;
  mutable cx_funcs : func_ctx list;
  mutable cx_done : string list;
}

(** Start a lowering on [m]; in-place mode appends packed kernels next to
    the originals (detached by [finalize]), functional mode grows them in
    a fresh [cx_target] module and leaves the input intact.  [variant]
    (default [Variant.default], the full pipeline) selects an ablated
    pipeline; the steps read it back from [cx_variant]. *)
val begin_ : ?variant:Variant.t -> in_place:bool -> Ir.op -> t

val find : Ir.op -> t option

(** Recover the context for a later step, checking that pass [after] has
    already run; errors name the missing prerequisite. *)
val require : step:string -> after:string -> Ir.op -> t

val mark_done : t -> string -> unit

(** Stamp every op of every packed function that still has no location
    with [Loc.Pass_derived (step, loc-of-source-kernel)], so provenance
    chains survive the lowering even for ops the step created without an
    explicit location. *)
val stamp_derived : t -> step:string -> unit

(** Drop the threading attribute and registry entry (idempotent). *)
val release : t -> unit

(** [release] plus, in-place, detach the original stencil ops. *)
val finalize : t -> unit

val plans : t -> (plan * Ir.op) list
