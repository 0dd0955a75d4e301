(** Functional simulation of an extracted design: stages run to
    completion in topological order over unbounded stream buffers (Kahn
    semantics), and compute stages run the IR the compiler generated —
    deterministic and, for correct designs, value-identical to the
    hardware.

    [compile] is a one-time pre-pass over an extracted design that
    resolves every SSA value in the compute-stage IR to a dense slot in
    an unboxed register array and emits a specialized step closure per
    op; stream buffers become [float array] ring buffers with O(1)
    push/pop/length, sized from the design. [run] then executes the
    design with no hashtable lookups or token boxing in the element
    loops.

    The compiled artefact is split in two:

    - {!t}, the {e plan}, is immutable once [compile] returns (slot
      layout, step closures over slot indices, constant pools, ring
      descriptors). One plan is safe to share across any number of
      domains: parallel sweeps share the memoised plan instead of
      compiling a private one per job.
    - {!Run_state.t} holds every mutable word a run touches: register
      files seeded from the plan's constant pools, stream ring buffers,
      neighbourhood scratch. States are cheap to allocate, reusable
      across runs, but must never be shared between two domains.

    There is one kind of plan. Its oracle is the reference stencil
    interpreter, which it matches bit for bit on full padded arrays,
    halos included. *)

type t
(** An immutable compiled plan for one design. Freely shareable across
    domains; all mutation lives in {!Run_state.t}. *)

module Run_state : sig
  type t
  (** Mutable per-run execution state for one plan: register files, ring
      buffers, scratch arrays. *)
end

(** Compile a design into an immutable plan. Compute-stage loops whose
    bodies are independent per element (no nested loops, no stores, at
    most one read/write per stream) run in whole-stream blocks over
    dense unboxed columns — constants and loop-invariant operands read
    once per block, stream reads/writes blitted in bulk. Each shift
    stage outputs a window — one NaN-padded copy of its input that
    neighbourhood lanes read at a fixed offset from each token's padded
    index — instead of materialising every neighbourhood. Loops outside
    that subset (e.g. BRAM small-copy loops) run their per-element
    compilation, so the engine is always complete; a block whose input
    runs dry is replayed per element, so a starved read raises its
    {!Err.Error} at the {!Loc} of the read that starves first. Raises
    {!Err.Error} on unsupported ops. *)
val compile : Design.t -> t

(** [compile_batched] is {!compile}. It stays for the benchmark
    pipeline's mirror of [Shmls.compiled], and goes when that mirror
    is deleted. *)
val compile_batched : Design.t -> t

(** A fresh run state for this plan: registers seeded from the plan's
    constant pools, empty rings sized from the design (one token per
    padded point per stream; shift windows are allocated by their first
    run). *)
val create_state : t -> Run_state.t

(** Execute the plan in the given state. [args] follow the kernel's
    argument order ({!Functional.value}); output fields are written in
    place. The state must have been created by {!create_state} on this
    same plan, or [run_with] raises {!Err.Error} at the kernel
    function's location; it keeps no reference to [args] once the run
    returns or raises. Raises {!Err.Error} on mis-wired designs
    (empty-stream reads, undrained streams). *)
val run_with : t -> Run_state.t -> args:Functional.value array -> unit

(** [run_with] on this domain's cached state for the plan: each domain
    lazily creates one state per plan (in domain-local storage, with the
    plan as an ephemeron key, so the state dies with its plan) and
    reuses it for every subsequent [run] on that domain. Safe to call
    concurrently from several domains on one shared plan. *)
val run : t -> args:Functional.value array -> unit

val design : t -> Design.t

(** Plan shape, for reports and perf tests. *)
type stats = {
  cs_fregs : int;  (** float slots *)
  cs_iregs : int;  (** int/bool slots *)
  cs_pregs : int;  (** pointer/memref slots *)
  cs_vregs : int;  (** neighbourhood (vector-token) slots *)
  cs_steps : int;  (** compiled step closures across compute stages *)
  cs_folded : int;  (** constants folded into the pools at compile time *)
  cs_batched : int;  (** compute loops compiled to whole-stream batches *)
}

val stats : t -> stats

(** Process-wide count of [compile] calls — lets perf tests assert the
    compile-once memoization in {!Shmls} actually memoizes (e.g. zero
    plan recompiles during a repeated parallel sweep). *)
val compile_count : unit -> int

val reset_compile_count : unit -> unit

(** Process-wide count of {!create_state} calls — bounds the per-domain
    state cache (at most one cached state per domain per plan). *)
val state_count : unit -> int

val reset_state_count : unit -> unit
