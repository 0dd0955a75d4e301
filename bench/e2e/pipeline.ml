(* The product's pipeline, called layer by layer through each layer's
   public entry point, with a span around every call.

   [compile] mirrors [Shmls.compile_raw] (default flags) and [verify]
   mirrors [Shmls.verify_with] on the batched engine, call for call:
   the smoke's composition guard checks that [compile] and the cost
   stack give exactly what [Shmls.compile] and
   [Shmls.Cost_model.evaluate_design] give, so the benchmark times the
   product's pipeline and not a copy that drifted from it. *)

module Stage_compiler = Shmls.Stage_compiler
module Interp = Shmls.Interp
module Grid = Shmls.Grid

let span = Span.with_

let parse source =
  let k = span "frontend.parse" (fun () -> Shmls.Psy_parser.parse source) in
  Span.count "frontend.source_bytes" (float_of_int (String.length source));
  k

(* The steps build a fresh module, so their own op counts start from
   the empty module; ops_in is the stencil module they read. *)
let count_pass_stats ~input (stats : Shmls.Pass.stat list) =
  if !Span.enabled then begin
    Span.count "hls_steps.ops_in" (float_of_int (Shmls.Ir.count_ops input));
    (match List.rev stats with
    | last :: _ -> Span.count "hls_steps.ops_out" (float_of_int last.ops_after)
    | [] -> ());
    List.iter
      (fun (s : Shmls.Pass.stat) ->
        Span.count (Metrics.pass_metric s.stat_pass) (1000.0 *. s.duration_s))
      stats
  end

let compile (kernel : Shmls.Ast.kernel) ~grid : Shmls.compiled =
  Shmls_transforms.Register.all ();
  let lowered = span "frontend.lower" (fun () -> Shmls.Lower.lower kernel ~grid) in
  span "transforms" (fun () ->
      Shmls_transforms.Shape_inference.run_on_module lowered.l_module);
  let split =
    span "transforms" (fun () ->
        Shmls_transforms.Apply_split.run_on_module lowered.l_module)
  in
  Span.count "transforms.applies_split" (float_of_int split);
  span "ir.verify" (fun () -> Shmls.Verifier.verify_exn lowered.l_module);
  let hls_module, plans, pass_stats =
    span "hls_steps" (fun () ->
        Shmls_transforms.Stencil_to_hls.run_with_stats
          ~variant:Shmls.Variant.default lowered.l_module)
  in
  count_pass_stats ~input:lowered.l_module pass_stats;
  span "ir.verify" (fun () -> Shmls.Verifier.verify_exn hls_module);
  let plan, func =
    match plans with
    | [ p ] -> p
    | _ -> Shmls.Err.raise_error "compile: expected exactly one kernel function"
  in
  let design = span "fpga.extract" (fun () -> Shmls_fpga.Extract.extract func) in
  let design =
    span "fpga.extract" (fun () ->
        Shmls_fpga.Depth_balance.balance_and_reextract design)
  in
  Span.count "fpga.stages" (float_of_int (List.length design.d_stages));
  Span.count "fpga.streams" (float_of_int (List.length design.d_streams));
  let llvm = span "llvmir" (fun () -> Shmls_llvmir.Emit.emit_module hls_module) in
  let fpp = span "llvmir" (fun () -> Shmls_llvmir.Fplusplus.run llvm) in
  let connectivity =
    span "llvmir" (fun () ->
        Shmls_llvmir.Fplusplus.connectivity_config ~kernel:kernel.k_name fpp)
  in
  {
    Shmls.c_kernel = kernel;
    c_grid = grid;
    c_variant = Shmls.Variant.default;
    c_lowered = lowered;
    c_hls_module = hls_module;
    c_design = design;
    c_cu = plan.p_cu;
    c_ports_per_cu = plan.p_ports_per_cu;
    c_llvm = llvm;
    c_fpp = fpp;
    c_connectivity = connectivity;
    c_pass_stats = pass_stats;
    c_plan = lazy (Stage_compiler.compile design);
    c_plan_batched = lazy (Stage_compiler.compile_batched design);
  }

let cost (c : Shmls.compiled) =
  span "fpga.cost" (fun () -> Shmls.Cost_model.evaluate_design c.c_design)

let cycle_sim (c : Shmls.compiled) =
  let r = span "fpga.cycle_sim" (fun () -> Shmls.Cycle_sim.run c.c_design) in
  Span.count "fpga.cycle_sim_cycles" (float_of_int r.cycles);
  Span.count "fpga.cycle_sim_ff" (float_of_int r.cycles_fast_forwarded);
  r

(* The four baseline flows, in the paper's order. *)
let baselines (kernel : Shmls.Ast.kernel) ~grid =
  span "baselines" (fun () ->
      [
        Shmls_baselines.Dace.evaluate kernel ~grid;
        Shmls_baselines.Soda.evaluate kernel ~grid;
        Shmls_baselines.Vitis.evaluate kernel ~grid;
        Shmls_baselines.Stencilflow.evaluate kernel ~grid;
      ])

(* [Shmls.verify_with ~seed] with the batched engine as the design
   runner: plan, reference run, the design run on identical fresh
   inputs, and the per-output comparison.  The run state is created
   for this plan, as a fresh process's first [Stage_compiler.run] does;
   calling [Stage_compiler.run] here would keep one state per request
   alive in the domain's cache for the rest of the run.  [tamper] sees
   the design's outputs before the comparison (the smoke uses it to
   prove the comparison can fail). *)
let verify ?(tamper = fun _ _ -> ()) ~seed (c : Shmls.compiled) =
  let plan =
    span "fpga.stage_compiler.plan" (fun () ->
        Stage_compiler.compile_batched c.c_design)
  in
  if !Span.enabled then
    Span.count "fpga.stage_compiler.batched_loops"
      (float_of_int (Stage_compiler.stats plan).cs_batched);
  let ref_state = span "interp" (fun () -> Interp.run_lowered ~seed c.c_lowered) in
  let sim_state = span "interp" (fun () -> Interp.alloc_state ~seed c.c_lowered) in
  let args =
    List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Grid.data, 0)) sim_state.fields
    @ List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Grid.data, 0)) sim_state.smalls
    @ List.map (fun (_, v) -> Shmls.Functional.F v) sim_state.params
    |> Array.of_list
  in
  span "fpga.stage_compiler.run" (fun () ->
      Stage_compiler.run_with plan (Stage_compiler.create_state plan) ~args);
  tamper c sim_state;
  let interior =
    Shmls.Ty.make_bounds ~lb:(List.map (fun _ -> 0) c.c_grid) ~ub:c.c_grid
  in
  let outputs =
    List.filter
      (fun (fd : Shmls.Ast.field_decl) ->
        fd.fd_role = Shmls.Ast.Output || fd.fd_role = Shmls.Ast.Inout)
      c.c_kernel.k_fields
  in
  let fields =
    span "interp.compare" (fun () ->
        List.map
          (fun (fd : Shmls.Ast.field_decl) ->
            let a = List.assoc fd.fd_name ref_state.fields in
            let b = List.assoc fd.fd_name sim_state.fields in
            (fd.fd_name, Grid.max_abs_diff_on interior a b))
          outputs)
  in
  Span.count "interior_points"
    (float_of_int (List.fold_left ( * ) 1 c.c_grid));
  fields
