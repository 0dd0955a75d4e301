(** Stencil-HMLS: the public driver API.

    Ties the pipeline of the paper's Figure 1 together — kernel
    description, stencil dialect, the nine-step HLS transformation,
    LLVM-IR + f++, and the simulated U280 — plus the baseline flows for
    the comparison experiments. The sub-module aliases re-export the
    layer APIs so [Shmls] is the only module most users need. *)

module Ast = Shmls_frontend.Ast
module Psy_parser = Shmls_frontend.Psy_parser
module Lower = Shmls_frontend.Lower
module Ir = Shmls_ir.Ir
module Ty = Shmls_ir.Ty
module Attr = Shmls_ir.Attr
module Printer = Shmls_ir.Printer
module Parser = Shmls_ir.Parser
module Verifier = Shmls_ir.Verifier
module Pass = Shmls_ir.Pass
module Grid = Shmls_interp.Grid
module Interp = Shmls_interp.Interp
module Design = Shmls_fpga.Design
module Functional = Shmls_fpga.Functional
module Stage_compiler = Shmls_fpga.Stage_compiler
module Cycle_sim = Shmls_fpga.Cycle_sim
module Perf_model = Shmls_fpga.Perf_model
module Resources = Shmls_fpga.Resources
module Power = Shmls_fpga.Power
module U280 = Shmls_fpga.U280
module Link = Shmls_fpga.Link
module Report = Shmls_fpga.Report
module Trace = Shmls_fpga.Trace
module Flow = Shmls_baselines.Flow
module Circt = Shmls_circt.Circt
module Err = Shmls_support.Err
module Pool = Shmls_support.Pool

(** Pipeline variants of the stencil->HLS lowering — the ablations
    (no-split / no-pack / cu=N, composable with '+'). *)
module Variant = Shmls_transforms.Variant

(** The cost evaluation (DESIGN.md section 14): {!Shmls_fpga.Cost}
    prices a design once — performance, the optional multi-device link
    charge, resources, power — and [evaluate_design] is its flat
    projection, the one call the design-space tuner (and any other
    search driver) needs: a configuration in, the
    [{cycles; mpts; lut; ff; bram; uram; dsp; watts}] record out, with
    {!Shmls_fpga.Cost.feasible} against a {!U280.budget} as the
    feasibility predicate. *)
module Cost_model : sig
  include module type of struct
    include Shmls_fpga.Cost
  end

  (** [project (evaluate ?cu d)]. *)
  val evaluate_design : ?cu:int -> Shmls_fpga.Design.t -> Shmls_fpga.Cost.t

  (** Distinct declared fields the kernel reads — the per-run halo
      planes a slab device receives from its neighbours.  Kernel-based
      so every pipeline variant of a kernel prices the same exchange,
      whether it loads through a load_data stage or a fused compute's
      external reads. *)
  val loaded_field_names : Ast.kernel -> string list

  (** [List.length (loaded_field_names k)]. *)
  val loaded_fields : Ast.kernel -> int

  (** Evaluate a slab design of a [devices]-slab decomposition of
      [global_grid] with the link charge: cycles include the charged
      halo exchange, and the throughput counts the {e global} interior
      completed jointly by the [devices] slabs per run.  [fields] is
      the loaded-field count ({!loaded_fields}).  [devices = 1] is
      exactly {!evaluate_design}. *)
  val evaluate_multi_device :
    ?cu:int ->
    ?link:Shmls_fpga.Link.t ->
    devices:int ->
    global_grid:int list ->
    fields:int ->
    Shmls_fpga.Design.t ->
    Shmls_fpga.Cost.t
end

(** Everything the pipeline produced for one kernel at one grid. *)
type compiled = {
  c_kernel : Ast.kernel;
  c_grid : int list;
  c_variant : Variant.t;  (** pipeline variant this design was built with *)
  c_lowered : Lower.lowered;  (** stencil-dialect module, shape-inferred *)
  c_hls_module : Ir.op;  (** HLS-dialect module *)
  c_design : Design.t;  (** extracted, depth-balanced design *)
  c_cu : int;
  c_ports_per_cu : int;
  c_llvm : Shmls_llvmir.Ll.modul;  (** LLVM-IR after f++ *)
  c_fpp : Shmls_llvmir.Fplusplus.report;
  c_connectivity : string;  (** v++ connectivity config *)
  c_pass_stats : Pass.stat list;
      (** wall time / op-count deltas of the nine HLS lowering steps *)
  c_plan : Stage_compiler.t Lazy.t;
      (** the functional engine's plan ({!Stage_compiler.compile}),
          built once on first use. The plan is immutable and shared
          across domains: parallel sweeps run it against per-domain run
          states. Force it through the library entry points
          ({!run_design}, {!verify}, {!sweep}, {!report_text}), which
          serialize the forcing; [Lazy.force] from several domains at
          once is not safe. *)
  c_plan_batched : Stage_compiler.t Lazy.t;
      (** the same suspension as [c_plan]. It stays for the benchmark
          pipeline's mirror of this record, and goes when that mirror
          is deleted. *)
}

(** Run the full Stencil-HMLS compilation pipeline.
    [variant] (default {!Variant.default}) compiles an ablated pipeline
    for real — no-split / no-pack / cu=N designs all flow through the
    same extraction, simulators and models. *)
val compile : ?variant:Variant.t -> Ast.kernel -> grid:int list -> compiled

(** The stencil-dialect module of (kernel, grid) — lowered,
    shape-inferred, apply-split and verified — memoised on a digest of
    (kernel, grid) until {!reset_compile_cache}. Every variant
    {!compile_cached} builds at that (kernel, grid) starts from it and
    holds it as [c_lowered]; callers must only read it. Errors carry the
    same kernel context as {!compile}'s. *)
val lower_cached : Ast.kernel -> grid:int list -> Lower.lowered

(** Like {!compile}, but memoised on a digest of (kernel, grid,
    variant): repeated evaluations of the same configuration compile once
    and share the (read-only) [compiled] record. The nine steps start
    from {!lower_cached}, so the variants of one (kernel, grid) lower it
    once. *)
val compile_cached :
  ?variant:Variant.t -> Ast.kernel -> grid:int list -> compiled

(** [(hits, misses)] of the {!compile_cached} memo since the last
    {!reset_compile_cache}. *)
val compile_cache_stats : unit -> int * int

(** Raw pipeline executions (cached or not) since the last
    {!reset_compile_cache}. *)
val compile_runs : unit -> int

val reset_compile_cache : unit -> unit

type verification = {
  v_fields : (string * float) list;  (** per output field: max |diff| *)
  v_max_diff : float;
}

(** Execute the compiled design once on the given argument values
    through its plan ({!Stage_compiler.compile}), forcing the shared
    plan safely; the call is safe from several domains at once. *)
val run_design : compiled -> args:Functional.value array -> unit

(** The kernel's argument array for a state: its fields, smalls and
    params, in that order, each in declaration order. *)
val state_args : Interp.kernel_state -> Functional.value array

(** [run_design c ~args:(state_args st)]: run the design in place on
    the state's padded grids. *)
val run_state : compiled -> Interp.kernel_state -> unit

(** The reference interpreter's state after one run of the kernel on
    fresh inputs drawn with [seed] ({!Interp.run_lowered}), cached per
    (kernel, grid, seed) until {!reset_compile_cache}. The state is
    shared: callers must only read it. *)
val reference_state : seed:int -> Lower.lowered -> Interp.kernel_state

(** Run the generated design ({!run_design}) against the reference
    stencil interpreter on identical inputs and compare every output
    field on the interior. The reference state is cached per (kernel,
    grid, seed). *)
val verify : ?seed:int -> compiled -> verification

(** The Stencil-HMLS flow's performance/resources/power, in the same
    shape as the baselines. *)
val evaluate_hmls : ?cu:int -> compiled -> Flow.outcome

(** All five flows (Stencil-HMLS, DaCe, SODA-opt, Vitis HLS,
    StencilFlow), in the paper's order, evaluated one after another on
    the calling domain. *)
val evaluate_all :
  ?variant:Variant.t -> Ast.kernel -> grid:int list -> Flow.outcome list

(** Evaluate many (kernel, grid) configurations — the grid-sweep
    experiment driver. Compilation runs sequentially up front (cached,
    and with [verify_designs] the shared plan is forced up front too);
    the per-configuration evaluations (and optional design
    verifications) then run on a shared-cursor domain pool ({!Pool}), all
    sharing one immutable plan per configuration with per-domain run
    states — zero plan compiles in the parallel phase.

    Results are order-preserving and byte-identical to a sequential
    loop for every [jobs] setting, including error semantics (the
    smallest failing index re-raises). [jobs] follows the global
    convention ([0] = adaptive, [1] = sequential, [n > 1] = dedicated
    pool).

    [on_result] streams each configuration's row as it completes, in
    index order: [on_result i row] is called after rows [0..i-1] have
    been emitted, so a consumer writing JSON Lines observes a prefix of
    the sequential output at all times. If a configuration fails, rows
    after the smallest failing index are withheld.
    [verify_designs] adds a {!verify} per configuration. *)
val sweep :
  ?jobs:int ->
  ?on_result:(int -> Flow.outcome list * verification option -> unit) ->
  ?verify_designs:bool -> ?seed:int ->
  ?variant:Variant.t ->
  (Ast.kernel * int list) list ->
  (Flow.outcome list * verification option) list

(** {2 Artefact output} *)

val emit_llvm_text : compiled -> string

(** The CIRCT hw/esi netlist (the paper's future-work backend). *)
val emit_circt_text : compiled -> string

(** A Vitis-style synthesis report, ending with the shape of the
    functional engine's plan.  [cycle_result] appends a
    cycle-simulation section (cycles simulated vs fast-forwarded,
    detected steady-state period, fill model check). *)
val report_text : ?cycle_result:Cycle_sim.result -> compiled -> string

val emit_stencil_text : compiled -> string
val emit_hls_text : compiled -> string
