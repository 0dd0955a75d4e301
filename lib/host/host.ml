(* The host runtime: an OpenCL-flavoured API for driving compiled
   kernels, standing in for the OpenCL host codes of the paper's
   artifact (buffers, kernel arguments, enqueue, event profiling via
   OpenCL's profiling mechanism — here the cycle-accounted simulator).

   A [device] wraps the simulated U280; [program]s come from
   Shmls.compile; [buffer]s are padded row-major grids in "device
   memory"; [enqueue] runs the design functionally and returns an event
   whose profiled duration is the performance model's kernel time (the
   paper measured with OpenCL's profiling mechanism and checked it
   against omp_get_wtime). *)

module Ty = Shmls_ir.Ty

type device = {
  dev_name : string;
  mutable allocated_bytes : int;
}

let create_device () = { dev_name = Shmls_fpga.U280.name; allocated_bytes = 0 }

type buffer = {
  buf_grid : Shmls_interp.Grid.t;
  buf_bytes : int;
}

type program = {
  prog_compiled : Shmls.compiled;
  prog_device : device;
}

type arg =
  | Buffer of buffer
  | Scalar of float

type event = {
  ev_kernel : string;
  ev_start_ns : float;
  ev_end_ns : float;
  ev_cycles : float;
  ev_cu : int;
}

let duration_s ev = (ev.ev_end_ns -. ev.ev_start_ns) /. 1e9

(* ------------------------------------------------------------------ *)

let build_program device (compiled : Shmls.compiled) =
  { prog_compiled = compiled; prog_device = device }

(* Allocate a device buffer for one field of the program's kernel:
   padded to the kernel's halo, zero-initialised. *)
let alloc_field_buffer (prog : program) =
  let grid = prog.prog_compiled.c_grid in
  let halo = prog.prog_compiled.c_lowered.l_halo in
  let bounds =
    Shmls.Ty.make_bounds
      ~lb:(List.map (fun h -> -h) halo)
      ~ub:(List.map2 ( + ) grid halo)
  in
  let bytes = 8 * Ty.bounds_points bounds in
  if prog.prog_device.allocated_bytes + bytes > Shmls_fpga.U280.hbm_bytes then
    Err.raise_error "host: device HBM exhausted (%d MB allocated, %d MB requested)"
      (prog.prog_device.allocated_bytes / (1024 * 1024))
      (bytes / (1024 * 1024));
  prog.prog_device.allocated_bytes <- prog.prog_device.allocated_bytes + bytes;
  { buf_grid = Shmls_interp.Grid.create bounds; buf_bytes = bytes }

(* Small-data buffer along one axis. *)
let alloc_small_buffer (prog : program) ~axis =
  let grid = prog.prog_compiled.c_grid in
  let halo = prog.prog_compiled.c_lowered.l_halo in
  let n = List.nth grid axis and h = List.nth halo axis in
  let g = Shmls_interp.Grid.create (Shmls.Ty.make_bounds ~lb:[ -h ] ~ub:[ n + h ]) in
  let bytes = 8 * Shmls_interp.Grid.size g in
  prog.prog_device.allocated_bytes <- prog.prog_device.allocated_bytes + bytes;
  { buf_grid = g; buf_bytes = bytes }

(* Host <-> device transfers (the simulator shares memory; the copies
   model the OpenCL semantics). *)
let write_buffer (buf : buffer) (src : Shmls_interp.Grid.t) =
  if Shmls_interp.Grid.size src <> Shmls_interp.Grid.size buf.buf_grid then
    Err.raise_error "host: write_buffer size mismatch";
  Array.blit src.data 0 buf.buf_grid.data 0 (Array.length src.data)

let read_buffer (buf : buffer) (dst : Shmls_interp.Grid.t) =
  if Shmls_interp.Grid.size dst <> Shmls_interp.Grid.size buf.buf_grid then
    Err.raise_error "host: read_buffer size mismatch";
  Array.blit buf.buf_grid.data 0 dst.data 0 (Array.length buf.buf_grid.data)

(* ------------------------------------------------------------------ *)

(* Enqueue the kernel with the given arguments (in kernel-argument
   order). Runs the compiled dataflow design functionally against the
   buffers and produces a profiled event timed by the analytic model. *)
let enqueue (prog : program) (args : arg list) =
  let design = prog.prog_compiled.c_design in
  let sim_args =
    List.map
      (fun a ->
        match a with
        | Buffer b -> Shmls_fpga.Functional.Ptr (b.buf_grid.data, 0)
        | Scalar v -> Shmls_fpga.Functional.F v)
      args
    |> Array.of_list
  in
  Shmls.run_design prog.prog_compiled ~args:sim_args;
  let est = Shmls_fpga.Perf_model.estimate_design design in
  {
    ev_kernel = prog.prog_compiled.c_kernel.k_name;
    ev_start_ns = 0.0;
    ev_end_ns = est.e_seconds *. 1e9;
    ev_cycles = est.e_cycles;
    ev_cu = est.e_cu;
  }

(* Convenience: allocate every argument buffer of a kernel, fill inputs
   deterministically, enqueue, and return (event, named buffers). *)
let run_kernel ?(seed = 7) (prog : program) ~(params : (string * float) list) =
  let k = prog.prog_compiled.c_kernel in
  let field_bufs =
    List.mapi
      (fun i (fd : Shmls.Ast.field_decl) ->
        let b = alloc_field_buffer prog in
        if fd.fd_role <> Shmls.Ast.Output then
          Shmls_interp.Grid.init_hash ~seed:(seed + i) b.buf_grid;
        (fd.fd_name, b))
      k.k_fields
  in
  let small_bufs =
    List.mapi
      (fun i (sd : Shmls.Ast.small_decl) ->
        let b = alloc_small_buffer prog ~axis:sd.sd_axis in
        Shmls_interp.Grid.init_hash ~seed:(seed + 100 + i) b.buf_grid;
        (sd.sd_name, b))
      k.k_smalls
  in
  let scalar_args =
    List.map
      (fun name ->
        match List.assoc_opt name params with
        | Some v -> Scalar v
        | None -> Err.raise_error "host: missing parameter %s" name)
      k.k_params
  in
  let args =
    List.map (fun (_, b) -> Buffer b) field_bufs
    @ List.map (fun (_, b) -> Buffer b) small_bufs
    @ scalar_args
  in
  let event = enqueue prog args in
  (event, field_bufs, small_bufs)

let mpts_of_event (prog : program) ev =
  let interior = Shmls_fpga.Design.interior_points prog.prog_compiled.c_design in
  float_of_int interior /. duration_s ev /. 1e6
