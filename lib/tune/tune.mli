(** The design-space autotuner (DESIGN.md section 14.2): enumerates
    variant x cu x grid points, prunes against the U280 shell's AXI
    port budget, prices survivors with one cost evaluation each, keeps
    the 2-D Pareto frontier of MPt/s against the tightest resource
    fraction, and validates points with the batched functional
    simulator and the cycle simulator, flagging model/measured
    divergence beyond the tolerance.  The CU counts of one (grid,
    split, pack, devices) group share one design — they differ only in
    the [cu] attribute, which neither simulator reads — so each group
    is compiled once, its CU counts are priced through the cost
    evaluation's [?cu], and it is measured once for all of its points.
    With the event-driven cycle engine a validation costs roughly fill
    + drain, so the default scope validates {e every} feasible point,
    not just the frontier ({!validate_scope}).  Search state is a
    resumable JSON Lines file. *)

module Variant = Shmls_transforms.Variant
module Cost = Shmls_fpga.Cost
module U280 = Shmls_fpga.U280

type point = {
  pt_grid : int list;
  pt_variant : Variant.t;
  pt_devices : int;  (** slab count of the multi-device decomposition *)
}

type eval = {
  ev_point : point;
  ev_cu : int;
      (** the CU count the point is priced at: its pinned [cu=N], or the
          replication its design derives *)
  ev_ports_per_cu : int;
  ev_cost : Cost.t;
  ev_frac : float;  (** tightest resource column / budget *)
  ev_feasible : bool;
}

type validation = {
  va_max_diff : float;  (** batched functional sim vs reference interp *)
  va_model_cycles : float;  (** the cost evaluation at [~cu:1] *)
  va_measured_cycles : int;  (** {!Shmls_fpga.Cycle_sim} *)
  va_divergence : float;  (** |model - measured| / measured *)
  va_fill_divergence : float option;
      (** {!Shmls_fpga.Perf_model.check_fill_steady}: the model's fill
          estimate vs the fill implied by the detected steady-state
          period, normalised by total measured cycles; [None] when no
          period was detected *)
  va_flagged : bool;  (** cycle or fill divergence beyond the tolerance *)
}

(** Which evaluated points get the simulator treatment: the Pareto
    frontier only, every feasible point (the default), or the frontier
    plus the [n] best feasible points by the frontier ordering. *)
type validate_scope = Frontier | All | Top of int

val validate_scope_to_string : validate_scope -> string

(** Parse a [--validate] CLI argument ("frontier" | "all" | a count). *)
val validate_scope_of_string : string -> (validate_scope, string) result

type frontier_point = { fp_eval : eval; fp_validation : validation }

type report = {
  r_kernel : string;
  r_budget : U280.budget;
  r_enumerated : int;
  r_pruned_ports : int;  (** cu x ports beyond the shell's AXI budget *)
  r_pruned_duplicate : int;  (** explicit cu equal to the derived one *)
  r_pruned_devices : int;  (** device counts beyond the grid's dim-0 rows *)
  r_evaluated_new : int;  (** points evaluated this run *)
  r_resumed : int;  (** points reloaded from the resume state *)
  r_simulated : int;
      (** measurements run this run: one per (grid, split, pack,
          devices) group among the points validated this run *)
  r_validations_resumed : int;
  r_evals : eval list;  (** all evaluated points, enumeration order *)
  r_validations : (eval * validation) list;
      (** every validated point (resumed or fresh), validation order *)
  r_frontier : frontier_point list;  (** frac ascending *)
}

(** [dominates a b]: at least as good on both objectives (mpts up, frac
    down), strictly better on one. *)
val dominates : eval -> eval -> bool

(** The non-dominated subset, sorted by frac ascending (mpts descending
    within ties).  Deterministic and invariant under input order. *)
val pareto : eval list -> eval list

(** Content key of a point in the search state (digest over kernel
    name, grid, variant, budget name, device count — and the link
    setting for multi-device points, which it prices). *)
val point_key :
  ?link:Shmls_fpga.Link.t ->
  kernel:string ->
  budget:U280.budget ->
  point ->
  string

val default_divergence_tolerance : float

(** The validation of one point from its measurements: the cycle
    divergence [|model - measured| / measured] and the flag, raised when
    it or [fill_divergence] exceeds [divergence_tolerance] (default
    {!default_divergence_tolerance}). *)
val judge :
  ?divergence_tolerance:float ->
  max_diff:float ->
  model_cycles:float ->
  measured_cycles:int ->
  fill_divergence:float option ->
  unit ->
  validation

(** Run the search. [state] names the JSONL search-state file; with
    [resume] set, rows already present are reloaded instead of
    re-evaluated (a finished search re-runs with zero recompiles and
    zero re-simulations and leaves the file byte-identical). [jobs]
    sizes the validation pool ([0] adaptive, [1] sequential);
    [validate] narrows the validation scope (default [All] — the
    frontier is validated in every scope).  A repeated grid or device
    count is searched once, at its first position.  A [divergence_tolerance]
    that is negative or not finite raises {!Shmls_support.Err.Error}:
    it would flag every point, or none.

    [devices] adds a slab-count axis to the search (default [[1]]):
    each listed count prices the kernel decomposed over that many
    devices — the largest slab's design through {!Shmls_fpga.Cost.evaluate}
    with the {!Shmls_fpga.Link} charge for the halo exchange over
    [link] — and multi-device points are validated by the reassembled
    {!Shmls_host.Multi_device} run against the global reference plus
    the ensemble cycle estimate.  Counts exceeding a grid's dim-0 rows
    are pruned ([r_pruned_devices]); an ensemble makespan that is not
    finite or does not fit an [int] raises {!Shmls_support.Err.Error}
    naming the first point of its group. *)
val run :
  ?budget:U280.budget ->
  ?max_cu:int ->
  ?jobs:int ->
  ?state:string ->
  ?resume:bool ->
  ?divergence_tolerance:float ->
  ?validate:validate_scope ->
  ?devices:int list ->
  ?link:Shmls_fpga.Link.t ->
  Shmls_frontend.Ast.kernel ->
  grids:int list list ->
  report

val pp_frontier_point : Format.formatter -> frontier_point -> unit
val pp_report : Format.formatter -> report -> unit
