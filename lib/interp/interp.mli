(** Reference interpreter for stencil-dialect IR: the ground truth the
    FPGA functional simulator and the baseline flows are checked
    against.

    Gather semantics: each stencil.apply computes into fresh grids
    before stencil.store copies the written region into the destination,
    so in-place (Inout) kernels behave like their PSyclone originals.
    Requires shape-inferred modules (every temp carries bounds). *)

open Shmls_ir

type rval = F of float | I of int | B of bool | G of Grid.t

type env

(** Lanes per block: each stencil.apply runs its rows along the
    innermost dimension in blocks of at most this many points. *)
val block_width : int

(** Execute one stencil-dialect function; grids are mutated in place. *)
val run_func : Ir.op -> args:rval list -> env

(** Execute a CPU-lowered function (scf/memref/arith, no stencil ops).
    Supports scf.for with loop-carried values and scf.if. *)
val run_generic_func : Ir.op -> args:rval list -> env

(** {2 Kernel-level convenience} *)

type kernel_state = {
  fields : (string * Grid.t) list;
  smalls : (string * Grid.t) list;
  params : (string * float) list;
}

(** Allocate deterministic pseudo-random inputs for a lowered kernel. *)
val alloc_state : ?seed:int -> Shmls_frontend.Lower.lowered -> kernel_state

(** The state as interpreter arguments, in function-argument order. *)
val state_args : kernel_state -> rval list

(** Allocate a fresh state, run the kernel, return the state. *)
val run_lowered : ?seed:int -> Shmls_frontend.Lower.lowered -> kernel_state
