(** First-class multi-device designs (DESIGN.md section 16): split the
    grid into N slabs along the streamed dimension (dim 0), compile one
    design per slab shape, connect neighbouring devices with explicit
    halo-exchange streams over an inter-device {!Link}, and run the
    whole ensemble functionally — bit-exact against a single-device
    reference, including mid-run exchange between sweeps for
    time-stepping (multi-sweep) kernels.

    The sweep semantics is host-level Jacobi time-stepping: the kernel
    runs [mp_sweeps] times; between consecutive sweeps the host applies
    the kernel's {!feedback_pairs} (new-state buffers copied onto their
    old-state buffers — the classic ping-pong swap), after which the
    slabs exchange dim-0 halo planes so every device's memory again
    mirrors the global state.  With one sweep no exchange is needed
    beyond the initial seeding. *)

module Link = Shmls_fpga.Link

type direction = Recv | Send

(** One halo-exchange stream between a slab device and a neighbour. *)
type exchange_stream = {
  xs_field : string;
  xs_peer : int;  (** neighbouring device index *)
  xs_dir : direction;
  xs_rows : int;  (** dim-0 halo depth (planes per exchange) *)
  xs_bytes : int;  (** bytes per exchange phase *)
}

type slab = {
  sl_device : int;
  sl_offset : int;  (** first global dim-0 row of the slab interior *)
  sl_extent : int;  (** slab interior rows along dim 0 *)
  sl_grid : int list;  (** slab grid shape (dim 0 = extent) *)
  sl_compiled : Shmls.compiled;  (** the slab's own compiled design *)
  sl_exchanges : exchange_stream list;
      (** recv streams for every externally-loaded field from each
          neighbour, plus the mirroring sends *)
}

type plan = {
  mp_kernel : Shmls.Ast.kernel;
  mp_grid : int list;  (** global grid *)
  mp_variant : Shmls.Variant.t;
  mp_devices : int;
  mp_sweeps : int;
  mp_link : Link.t;
  mp_halo : int list;  (** the kernel's accumulated halo *)
  mp_feedback : (string * string) list;
      (** [(old_state, new_state)] buffer pairs applied between sweeps *)
  mp_slabs : slab list;  (** device order, dim-0 ascending *)
}

(** Slab interior extents along dim 0, as equal as possible (the first
    [n mod p] slabs take one extra row). *)
val slab_extents : int -> int -> int list

(** The kernel's host-level time-stepping pairs [(old, new)]: every
    Inout field feeds back onto itself, and an Output field named
    [X_new], [X_out] or [X_next] feeds back onto a declared field [X]
    (the Jacobi convention of the built-in kernels).  Kernels with no
    pairs are pure producers: repeated sweeps recompute the same
    outputs, and no mid-run exchange can change them. *)
val feedback_pairs : Shmls.Ast.kernel -> (string * string) list

(** Build the multi-device plan: slab designs are compiled (cached) per
    distinct slab shape; raises {!Err.Error} for [devices < 1] or more
    devices than dim-0 rows, and, at the kernel's location, before any
    compile, for a slab whose padded fields and smalls exceed
    {!Shmls_fpga.U280.hbm_bytes}. *)
val plan :
  ?variant:Shmls.Variant.t ->
  ?sweeps:int ->
  ?link:Link.t ->
  Shmls.Ast.kernel ->
  grid:int list ->
  devices:int ->
  plan

(** Bytes a slab device receives per exchange phase (sum of its recv
    streams) — the lane input to {!Shmls_fpga.Cycle_sim.run_multi}. *)
val recv_bytes_per_phase : slab -> int

type run_result = {
  rr_outputs : (string * Shmls_interp.Grid.t) list;
      (** reassembled global padded grids of every written field *)
  rr_exchange_phases : int;  (** [sweeps - 1] *)
  rr_exchanged_bytes : int;  (** halo bytes actually moved mid-run *)
}

(** Run the plan functionally: each slab's design ({!Shmls.run_state})
    on its own padded grids, seeded from the global initial state
    ({!Shmls.Interp.alloc_state}), [mp_sweeps] runs with feedback +
    halo exchange between consecutive sweeps, interiors gathered back
    at the end.  [params] overrides the deterministic default parameter
    values by name; an unknown name raises {!Err.Error} at the
    kernel's location. *)
val run :
  ?seed:int ->
  ?params:(string * float) list ->
  plan ->
  run_result

(** The single-device reference for the same semantics: the interpreter
    applied [mp_sweeps] times to the global state with the same
    feedback copies between sweeps. *)
val reference :
  ?seed:int ->
  ?params:(string * float) list ->
  plan ->
  Shmls_interp.Interp.kernel_state

(** Run the plan and compare every written field against {!reference}
    on the global interior — the multi-device bit-exactness oracle. One
    sweep with default parameters compares against the cached
    {!Shmls.reference_state}, which is the same state. *)
val verify_vs_reference :
  ?seed:int ->
  ?params:(string * float) list ->
  plan ->
  Shmls.verification

(** Cycle-level estimate of the whole ensemble: every slab design
    through {!Shmls_fpga.Cycle_sim.run_multi} with its recv bytes,
    [mp_sweeps] sweeps and the plan's link. *)
val estimate :
  plan ->
  Shmls_fpga.Cycle_sim.multi_result

(** Aggregate throughput: global interior points times sweeps over the
    ensemble makespan. *)
val aggregate_mpts : plan -> Shmls_fpga.Cycle_sim.multi_result -> float

(** Human-readable plan summary (slab table + exchange streams). *)
val summarise : plan -> string
