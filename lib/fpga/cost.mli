(** One cost evaluation per design (DESIGN.md section 14): the
    performance estimate, the optional multi-device link charge, the
    resource usage and the power report, each computed once, plus the
    flat record {!t} a search ranks, with feasibility as a predicate
    against a {!U280.budget} envelope. *)

type t = {
  cycles : float;  (** per run *)
  mpts : float;  (** interior mega-points per second *)
  lut : int;
  ff : int;
  bram : int;  (** BRAM36 blocks *)
  uram : int;  (** UltraRAM blocks *)
  dsp : int;
  watts : float;  (** average board power *)
}

val zero : t

(** A [devices]-slab decomposition of [global_grid] whose neighbours
    exchange [fields] halo planes per run over [link]. *)
type slabs = {
  devices : int;
  link : Link.t;
  global_grid : int list;
  fields : int;
}

type evaluation = {
  estimate : Perf_model.estimate;
  usage : Resources.usage;
  power : Power.report;
}

(** Price a design: {!Perf_model.estimate_design}, then (with [slabs]
    of more than one device, the design being the largest slab) the
    {!Link.charge} of the halo exchange over the global interior, then
    {!Resources.of_design}, then {!Power.of_estimate} on the charged
    estimate — each once. [cu] overrides the plan's CU count. *)
val evaluate : ?cu:int -> ?slabs:slabs -> Design.t -> evaluation

(** The flat record of an evaluation. *)
val project : evaluation -> t

(** Per-resource budget fractions, [(name, used/available)]. *)
val fractions : ?budget:U280.budget -> t -> (string * float) list

(** The tightest resource column as a fraction of the budget — the
    x-axis of the tuner's Pareto frontier. *)
val max_fraction : ?budget:U280.budget -> t -> float

(** The resource column driving {!max_fraction}. *)
val binding_resource : ?budget:U280.budget -> t -> string

(** Feasibility: every resource column within the budget (default: the
    whole U280). *)
val feasible : ?budget:U280.budget -> t -> bool

val pp : Format.formatter -> t -> unit
