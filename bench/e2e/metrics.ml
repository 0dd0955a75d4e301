(* Metric names, units and the statistics behind them.  The names here
   must equal those in BENCHMARK.json; the smoke checks that. *)

(* What a user of the toolchain sees.  [failed_frac] is reported too,
   but is not a BENCHMARK.json metric: it is 0 on a correct run, and the
   result line carries it as [failed] out of [attempted]. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("request_p50_ms", "ms");
    ("request_p90_ms", "ms");
    ("requests_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("design_mpts_geomean", "MPt/s");
    ("design_cycles_geomean", "cycles");
  ]

let pass_metric pass_name =
  let short =
    if String.starts_with ~prefix:"hls-" pass_name then
      String.sub pass_name 4 (String.length pass_name - 4)
    else pass_name
  in
  "hls_steps." ^ short ^ "_ms"

(* What a traced run measured: self time per span name (ms, summed over
   the traced requests), the counters, the traced request count, and
   the two run-level figures. *)
type trace_totals = {
  self_ms : string -> float;
  counter : string -> float;
  requests : float;
  unattributed_frac : float;
  trace_overhead_frac : float;
}

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer metrics: name, unit, and how the traced run gives it.
   Times and counts are means per traced request. *)
let per_layer : (string * string * (trace_totals -> float)) list =
  let per_req_ms span t = ratio (t.self_ms span) t.requests in
  let per_req counter t = ratio (t.counter counter) t.requests in
  (* interior mega-points per second of the named span's self time *)
  let mpts_wall span t = ratio (t.counter "interior_points") (t.self_ms span *. 1000.0) in
  [
    ("frontend.parse_ms", "ms", per_req_ms "frontend.parse");
    ("frontend.lower_ms", "ms", per_req_ms "frontend.lower");
    ("frontend.source_bytes", "bytes", per_req "frontend.source_bytes");
    ("transforms.ms", "ms", per_req_ms "transforms");
    ("transforms.applies_split", "count", per_req "transforms.applies_split");
    ("hls_steps.ms", "ms", per_req_ms "hls_steps");
    ("hls_steps.ops_in", "count", per_req "hls_steps.ops_in");
    ("hls_steps.ops_out", "count", per_req "hls_steps.ops_out");
  ]
  @ List.map
      (fun (p : Shmls.Pass.t) ->
        let m = pass_metric p.pass_name in
        (m, "ms", per_req m))
      Shmls_transforms.Stencil_to_hls.step_passes
  @ [
      ("ir.verify_ms", "ms", per_req_ms "ir.verify");
      ("fpga.extract_ms", "ms", per_req_ms "fpga.extract");
      ("fpga.stages", "count", per_req "fpga.stages");
      ("fpga.streams", "count", per_req "fpga.streams");
      ("llvmir.ms", "ms", per_req_ms "llvmir");
      ("fpga.cost_ms", "ms", per_req_ms "fpga.cost");
      ("baselines.ms", "ms", per_req_ms "baselines");
      ("fpga.cycle_sim_ms", "ms", per_req_ms "fpga.cycle_sim");
      ("fpga.cycle_sim_cycles", "cycles", per_req "fpga.cycle_sim_cycles");
      ( "fpga.cycle_sim_ff_frac",
        "ratio",
        fun t -> ratio (t.counter "fpga.cycle_sim_ff") (t.counter "fpga.cycle_sim_cycles") );
      ( "fpga.cycle_sim_mcycles_per_s",
        "Mcycles/s",
        fun t ->
          ratio (t.counter "fpga.cycle_sim_cycles") (t.self_ms "fpga.cycle_sim" *. 1000.0) );
      ("fpga.stage_compiler.plan_ms", "ms", per_req_ms "fpga.stage_compiler.plan");
      ( "fpga.stage_compiler.batched_loops",
        "count",
        per_req "fpga.stage_compiler.batched_loops" );
      ("fpga.stage_compiler.run_ms", "ms", per_req_ms "fpga.stage_compiler.run");
      ("fpga.stage_compiler.mpts_wall", "MPt/s", mpts_wall "fpga.stage_compiler.run");
      ("interp.ms", "ms", per_req_ms "interp");
      ("interp.mpts_wall", "MPt/s", mpts_wall "interp");
      ("interp.compare_ms", "ms", per_req_ms "interp.compare");
      ("tune.ms", "ms", per_req_ms "tune");
      ("tune.points", "count", per_req "tune.points");
      ("tune.validations", "count", per_req "tune.validations");
      ( "tune.points_per_s",
        "1/s",
        fun t -> ratio (t.counter "tune.points") (t.self_ms "tune" /. 1000.0) );
      ( "tune.pruned_frac",
        "ratio",
        fun t -> ratio (t.counter "tune.pruned") (t.counter "tune.enumerated") );
      ( "tune.flagged_frac",
        "ratio",
        fun t -> ratio (t.counter "tune.flagged") (t.counter "tune.validations") );
      ( "core.compile_cache_hit_frac",
        "ratio",
        fun t ->
          ratio (t.counter "core.cache_hits")
            (t.counter "core.cache_hits" +. t.counter "core.cache_misses") );
      ("core.compile_runs", "count", per_req "core.compile_runs");
      ("fpga.stage_compiler.plans_built", "count", per_req "fpga.stage_compiler.plans_built");
      ( "fpga.stage_compiler.states_created",
        "count",
        per_req "fpga.stage_compiler.states_created" );
      ("bench.unattributed_frac", "ratio", fun t -> t.unattributed_frac);
      ("bench.trace_overhead_frac", "ratio", fun t -> t.trace_overhead_frac);
    ]

(* ---- statistics ---- *)

(* Linear interpolation between closest ranks, on a sorted array. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* The three quartiles as Python's [statistics.quantiles(values, n=4)]
   gives them (its default "exclusive" method), for the spread the
   acceptance rule uses. *)
let quartiles values =
  let a = Array.of_list (List.sort compare values) in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 1 then a.(0) else 0.0 in
    (v, v, v)
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* Interquartile distance as a share of the median. *)
let spread values =
  let q1, m, q3 = quartiles values in
  ratio (q3 -. q1) (Float.abs m)

let geomean = function
  | [] -> 0.0
  | l ->
    exp (List.fold_left (fun acc v -> acc +. log v) 0.0 l /. float_of_int (List.length l))
