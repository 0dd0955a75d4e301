(** Lowering the HLS-dialect kernels to textual LLVM-IR — contribution
    (3) of the paper, following the Fortran-HLS approach it adopts:
    directives as void marker-function calls, streams as pointers to
    single-field structs with [@llvm.fpga.set.stream.depth] on the first
    element, and each dataflow region outlined into its own function. *)

open Shmls_ir

val marker_pipeline : int -> string
val marker_unroll : int -> string
val marker_array_partition : string -> int -> string
val marker_dataflow : string
val marker_interface : bundle:string -> bank:int -> string
val set_stream_depth : string

(** Emit every function tagged [hls_kernel]. Outlined stage functions
    are numbered from 0 in module order, so the text depends only on the
    input module, not on what the process emitted before. *)
val emit_module : Ir.op -> Ll.modul
