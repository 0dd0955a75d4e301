(** The host runtime: an OpenCL-flavoured API for driving compiled
    kernels on the simulated U280 (the stand-in for the paper's OpenCL
    host codes). Buffers live in "device memory" (HBM capacity is
    enforced); enqueues execute the compiled dataflow design
    functionally and return profiled events timed by the performance
    model, mirroring OpenCL's profiling mechanism. *)

type device = { dev_name : string; mutable allocated_bytes : int }

val create_device : unit -> device

type buffer = { buf_grid : Shmls_interp.Grid.t; buf_bytes : int }
type program

type arg = Buffer of buffer | Scalar of float

type event = {
  ev_kernel : string;
  ev_start_ns : float;
  ev_end_ns : float;
  ev_cycles : float;
  ev_cu : int;
}

(** Profiled kernel duration in seconds. *)
val duration_s : event -> float

val build_program : device -> Shmls.compiled -> program

(** Allocate a padded field buffer; raises {!Err.Error} when the HBM
    capacity would be exceeded. *)
val alloc_field_buffer : program -> buffer

val alloc_small_buffer : program -> axis:int -> buffer
val write_buffer : buffer -> Shmls_interp.Grid.t -> unit
val read_buffer : buffer -> Shmls_interp.Grid.t -> unit

(** Run the kernel on explicit arguments (kernel-argument order)
    through the design's functional engine ({!Shmls.run_design}). *)
val enqueue : program -> arg list -> event

(** Allocate and fill every argument deterministically, enqueue, and
    return the event plus the named field and small-data buffers. *)
val run_kernel :
  ?seed:int ->
  program ->
  params:(string * float) list ->
  event * (string * buffer) list * (string * buffer) list

val mpts_of_event : program -> event -> float
