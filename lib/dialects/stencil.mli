(** The stencil dialect: the high-level representation of stencil
    computations emitted by DSL frontends and consumed by both the CPU
    lowering and the Stencil-HMLS FPGA lowering.

    Op set (after the open MLIR/xDSL stencil dialect):
    [external_load], [load], [apply], [access], [dyn_access], [index],
    [return], [store], [external_store], [cast]. *)

open Shmls_ir

val external_load_op : string
val load_op : string
val apply_op : string
val access_op : string
val dyn_access_op : string
val index_op : string
val return_op : string
val store_op : string
val external_store_op : string
val cast_op : string

val register : unit -> unit

(** [load b field]: make a field readable; the temp's bounds stay
    unresolved until shape inference. *)
val load : Builder.t -> Ir.value -> Ir.value

(** [access b temp ~offset]: read the temp at a constant offset from the
    current point. *)
val access : Builder.t -> Ir.value -> offset:int list -> Ir.value

(** [dyn_access b temp ~indices]: read at runtime indices (small
    coefficient arrays). *)
val dyn_access : Builder.t -> Ir.value -> indices:Ir.value list -> Ir.value

(** Current position along dimension [dim]. *)
val index : Builder.t -> dim:int -> Ir.value

val return_ : Builder.t -> Ir.value list -> unit

(** [apply b ~operands ~result_elems body]: the region args mirror the
    operands; [body] returns the per-point value for each result. *)
val apply :
  Builder.t ->
  operands:Ir.value list ->
  result_elems:Ty.t list ->
  (Builder.t -> Ir.value list -> Ir.value list) ->
  Ir.op

(** [store b temp field ~lb ~ub]: write the temp over [lb, ub). *)
val store : Builder.t -> Ir.value -> Ir.value -> lb:int list -> ub:int list -> unit

(** {2 Accessors used by the transforms} *)

val apply_region : Ir.op -> Ir.region
val apply_block : Ir.op -> Ir.block
val access_offset : Ir.op -> int list
val store_bounds : Ir.op -> Ty.bounds
