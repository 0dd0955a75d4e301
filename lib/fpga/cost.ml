(* One cost evaluation per design (DESIGN.md section 14).

   [evaluate] prices a design with each model once, in dependency
   order: the performance estimate, the halo-exchange charge of a
   multi-device decomposition (which moves the estimate's cycles,
   seconds and throughput), the resource usage, and the power report
   derived from the (charged) estimate and that usage.  Everything that
   reports a design's cost — the Stencil-HMLS flow outcome, the tuner,
   the benchmark — reads this one evaluation, so the numbers cannot
   drift apart.

   [t] is the flat projection a design-space search ranks and prunes:
   feasibility is a predicate over it against a {!U280.budget}
   envelope, and the Pareto frontier ranks by [max_fraction], the
   tightest resource column. *)

type t = {
  cycles : float;  (* per run; the perf model's e_cycles *)
  mpts : float;  (* interior mega-points per second *)
  lut : int;
  ff : int;
  bram : int;  (* BRAM36 blocks *)
  uram : int;  (* UltraRAM blocks *)
  dsp : int;
  watts : float;  (* average board power *)
}

let zero =
  {
    cycles = 0.0;
    mpts = 0.0;
    lut = 0;
    ff = 0;
    bram = 0;
    uram = 0;
    dsp = 0;
    watts = 0.0;
  }

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

(* The design under evaluation is the largest slab: the makespan lane.
   Its neighbours (at most two) each send [fields] dim-0 halo planes
   per run, and the N slabs complete the global interior together. *)
let charge_link s (d : Design.t) (est : Perf_model.estimate) =
  let exchange_bytes =
    Link.exchange_bytes ~grid:d.d_grid ~halo:d.d_halo ~fields:s.fields
      ~neighbours:(min (s.devices - 1) 2)
  in
  let cycles, seconds, mpts =
    Link.charge s.link ~exchange_bytes
      ~global_interior:(List.fold_left ( * ) 1 s.global_grid)
      ~fill:(Perf_model.design_fill d) ~cycles:est.e_cycles
  in
  { est with e_cycles = cycles; e_seconds = seconds; e_mpts = mpts }

let evaluate ?cu ?slabs (d : Design.t) =
  let est = Perf_model.estimate_design ?cu d in
  let est =
    match slabs with
    | Some s when s.devices > 1 -> charge_link s d est
    | _ -> est
  in
  let usage = Resources.of_design ?cu d in
  let power =
    Power.of_estimate ~usage ~est
      ~bytes_per_point:(Perf_model.design_bytes_per_point d)
      ~interior:(Design.interior_points d)
  in
  { estimate = est; usage; power }

let project e =
  {
    cycles = e.estimate.e_cycles;
    mpts = e.estimate.e_mpts;
    lut = e.usage.r_luts;
    ff = e.usage.r_ffs;
    bram = e.usage.r_bram;
    uram = e.usage.r_uram;
    dsp = e.usage.r_dsps;
    watts = e.power.p_total_w;
  }

(* ------------------------------------------------------------------ *)
(* Feasibility against a device budget *)

let fractions ?(budget = U280.budget) c =
  let f used avail = float_of_int used /. float_of_int (max 1 avail) in
  [
    ("lut", f c.lut budget.U280.bud_luts);
    ("ff", f c.ff budget.U280.bud_ffs);
    ("bram", f c.bram budget.U280.bud_bram);
    ("uram", f c.uram budget.U280.bud_uram);
    ("dsp", f c.dsp budget.U280.bud_dsps);
  ]

(* The tightest resource column as a fraction of the budget: the
   x-axis of the tuner's Pareto frontier. *)
let max_fraction ?budget c =
  List.fold_left (fun acc (_, f) -> Float.max acc f) 0.0 (fractions ?budget c)

(* The resource column driving [max_fraction]. *)
let binding_resource ?budget c =
  let fs = fractions ?budget c in
  let m = max_fraction ?budget c in
  match List.find_opt (fun (_, f) -> f >= m) fs with
  | Some (n, _) -> n
  | None -> "lut"

(* The feasibility predicate of the search: every resource column
   within the budget envelope. *)
let feasible ?budget c = max_fraction ?budget c <= 1.0

let pp ppf c =
  Format.fprintf ppf
    "%.2f MPt/s, %.0f cycles, LUT %d FF %d BRAM %d URAM %d DSP %d, %.1f W"
    c.mpts c.cycles c.lut c.ff c.bram c.uram c.dsp c.watts
