(* Stencil-HMLS: the public driver API.

   Ties the whole pipeline of the paper's Figure 1 together:

     kernel description (PSyclone stand-in: eDSL or textual)
       -> stencil dialect            (Shmls_frontend.Lower)
       -> shape inference            (Shmls_transforms.Shape_inference)
       -> apply splitting            (step 4 precondition)
       -> HLS dialect                (Shmls_transforms.Stencil_to_hls)
       -> stream-depth balancing     (Shmls_fpga.Depth_balance)
       -> annotated LLVM-IR + f++    (Shmls_llvmir)
       -> U280 simulation            (Shmls_fpga: functional / cycle /
                                      analytic + resources + power)

   plus the four baseline flows (Shmls_baselines) for the comparison
   experiments. *)

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
module Variant = Shmls_transforms.Variant

(* The cost evaluation (DESIGN.md section 14) and its projections:
   [Shmls_fpga.Cost] prices a design once; this facade adds the
   kernel-level input of a multi-device evaluation (the loaded field
   count) and the flat-record entry points the tuner, tests and
   benchmark call. *)
module Cost_model = struct
  include Shmls_fpga.Cost

  let evaluate_design ?cu d = project (evaluate ?cu d)

  (* Distinct declared fields the kernel reads — the planes a slab
     device must receive from its neighbours before each run.  Derived
     from the kernel, not the design: every pipeline variant of the
     same kernel consumes the same field data, whether through a
     load_data stage (split designs) or external reads from a fused
     compute (no-split). *)
  let loaded_field_names (k : Ast.kernel) =
    let read =
      List.concat_map
        (fun (s : Ast.stencil_def) -> List.map fst (Ast.field_refs s.sd_expr))
        k.Ast.k_stencils
    in
    List.filter_map
      (fun (fd : Ast.field_decl) ->
        if List.mem fd.Ast.fd_name read then Some fd.Ast.fd_name else None)
      k.Ast.k_fields

  let loaded_fields k = List.length (loaded_field_names k)

  let evaluate_multi_device ?cu ?(link = Shmls_fpga.Link.default) ~devices
      ~global_grid ~fields d =
    project (evaluate ?cu ~slabs:{ devices; link; global_grid; fields } d)
end

let () = Shmls_transforms.Register.all ()

type compiled = {
  c_kernel : Ast.kernel;
  c_grid : int list;
  c_variant : Variant.t; (* pipeline variant this design was built with *)
  c_lowered : Lower.lowered; (* stencil-dialect module (shape-inferred) *)
  c_hls_module : Ir.op; (* HLS-dialect module *)
  c_design : Design.t; (* extracted, depth-balanced design *)
  c_cu : int;
  c_ports_per_cu : int;
  c_llvm : Shmls_llvmir.Ll.modul; (* after f++ *)
  c_fpp : Shmls_llvmir.Fplusplus.report;
  c_connectivity : string; (* v++ connectivity config *)
  c_pass_stats : Pass.stat list; (* per-step HLS lowering statistics *)
  c_plan : Stage_compiler.t Lazy.t;
      (* the functional engine's plan: forced on first use via
         [plan_of] (mutex-guarded: [Lazy.force] is not domain-safe).
         The plan itself is immutable and shared across domains —
         per-run mutation lives in Stage_compiler.Run_state. *)
  c_plan_batched : Stage_compiler.t Lazy.t;
      (* the same suspension as [c_plan], kept for the benchmark
         pipeline's mirror of this record *)
}

(* Raw pipeline executions, cached or not: lets tests assert how many
   times the expensive path actually ran.  Atomic so parallel
   evaluations count correctly. *)
let compile_runs_counter = Atomic.make 0
let compile_runs () = Atomic.get compile_runs_counter

(* The stencil-dialect module every variant's nine steps start from:
   lowered, shape-inferred, apply-split and verified. *)
let lower (kernel : Ast.kernel) ~grid =
  Shmls_transforms.Register.all ();
  let lowered = Lower.lower kernel ~grid in
  Shmls_transforms.Shape_inference.run_on_module lowered.l_module;
  ignore (Shmls_transforms.Apply_split.run_on_module lowered.l_module);
  Verifier.verify_exn lowered.l_module;
  lowered

(* Run the Stencil-HMLS pipeline from a lowered module.  The nine steps
   build the HLS module in a fresh module and only read [lowered], so
   one lowered module serves every variant of its (kernel, grid). *)
let compile_raw ~variant (lowered : Lower.lowered) =
  Atomic.incr compile_runs_counter;
  let kernel = lowered.l_kernel in
  let hls_module, plans, pass_stats =
    Shmls_transforms.Stencil_to_hls.run_with_stats ~variant lowered.l_module
  in
  Verifier.verify_exn hls_module;
  let plan, func =
    match plans with
    | [ p ] -> p
    | _ -> Err.raise_error "compile: expected exactly one kernel function"
  in
  let design =
    Shmls_fpga.Depth_balance.balance_and_reextract
      (Shmls_fpga.Extract.extract func)
  in
  let llvm = Shmls_llvmir.Emit.emit_module hls_module in
  let fpp = Shmls_llvmir.Fplusplus.run llvm in
  let connectivity =
    Shmls_llvmir.Fplusplus.connectivity_config ~kernel:kernel.k_name fpp
  in
  let engine = lazy (Stage_compiler.compile design) in
  {
    c_kernel = kernel;
    c_grid = lowered.l_grid;
    c_variant = variant;
    c_lowered = lowered;
    c_hls_module = hls_module;
    c_design = design;
    c_cu = plan.p_cu;
    c_ports_per_cu = plan.p_ports_per_cu;
    c_llvm = llvm;
    c_fpp = fpp;
    c_connectivity = connectivity;
    c_pass_stats = pass_stats;
    c_plan = engine;
    c_plan_batched = engine;
  }

(* Any pipeline failure is attributed to the kernel being compiled and,
   when the error itself carries no position, anchored at the kernel's
   own source location. *)
let in_kernel_context (kernel : Ast.kernel) f =
  try f ()
  with Err.Error e ->
    raise
      (Err.Error
         (Err.add_context
            (Printf.sprintf "compiling kernel %S" kernel.k_name)
            (Err.set_loc_if_unknown kernel.k_loc e)))

let compile ?(variant = Variant.default) (kernel : Ast.kernel) ~grid =
  in_kernel_context kernel (fun () -> compile_raw ~variant (lower kernel ~grid))

(* ------------------------------------------------------------------ *)
(* Compile-once caches.

   [Ast.kernel] and the grid are pure data, so a Marshal digest of
   (kernel, grid[, variant]) is a complete key: same key, same result.
   Results are cached whole and shared — every downstream consumer
   (verify, evaluate, the emitters, the nine steps of another variant)
   only reads them.  Three tables: the lowered module per (kernel, grid),
   which every variant's compile starts from; the [compiled] record per
   (kernel, grid, variant); and the reference interpreter state per
   (kernel, grid, seed).  Repeated evaluations (the 10-run protocol in
   bench/main.ml) pay for each once per distinct configuration.

   The caches are process-global and evaluations may run from worker
   domains ({!Pool}), so lookups and inserts take [cache_mutex]; the
   work itself runs outside it, and a domain that loses a race to the
   same key adopts the winner's value.  The hit/miss counters are plain
   atomics — [compile_cache_stats] needs no lock. *)

let digest_of v = Digest.string (Marshal.to_string v [])

let cache_mutex = Mutex.create ()

let memo ?(on_hit = ignore) ?(on_add = ignore) tbl key build =
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt tbl key) with
  | Some v ->
    on_hit ();
    v
  | None ->
    let v = build () in
    Mutex.protect cache_mutex (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some winner -> winner
        | None ->
          on_add ();
          Hashtbl.replace tbl key v;
          v)

let lowered_cache : (Digest.t, Lower.lowered) Hashtbl.t = Hashtbl.create 16

let lower_cached (kernel : Ast.kernel) ~grid =
  memo lowered_cache (digest_of (kernel, grid)) (fun () ->
      in_kernel_context kernel (fun () -> lower kernel ~grid))

let compile_cache : (Digest.t, compiled) Hashtbl.t = Hashtbl.create 16
let compile_cache_hits = Atomic.make 0
let compile_cache_misses = Atomic.make 0

let compile_cache_stats () =
  (Atomic.get compile_cache_hits, Atomic.get compile_cache_misses)

let compile_cached ?(variant = Variant.default) (kernel : Ast.kernel) ~grid =
  memo
    ~on_hit:(fun () -> Atomic.incr compile_cache_hits)
    ~on_add:(fun () -> Atomic.incr compile_cache_misses)
    compile_cache
    (digest_of (kernel, grid, variant))
    (fun () ->
      let lowered = lower_cached kernel ~grid in
      in_kernel_context kernel (fun () -> compile_raw ~variant lowered))

(* ------------------------------------------------------------------ *)
(* Verification: run the generated design functionally and compare with
   the reference interpreter on identical inputs. *)

type verification = {
  v_fields : (string * float) list; (* per output field: max |diff| *)
  v_max_diff : float;
}

(* The reference interpreter state is a pure function of
   (kernel, grid, seed) and is only *read* after it is built, so it is
   cached across repeated verifications — the 10-run bench protocol pays
   for the reference once per configuration. *)
let ref_state_cache : (Digest.t, Interp.kernel_state) Hashtbl.t =
  Hashtbl.create 16

let reference_state ~seed (l : Lower.lowered) =
  memo ref_state_cache (digest_of (l.l_kernel, l.l_grid, seed)) (fun () ->
      Interp.run_lowered ~seed l)

let reset_compile_cache () =
  Mutex.protect cache_mutex (fun () ->
      Hashtbl.reset lowered_cache;
      Hashtbl.reset compile_cache;
      Hashtbl.reset ref_state_cache);
  Atomic.set compile_cache_hits 0;
  Atomic.set compile_cache_misses 0;
  Atomic.set compile_runs_counter 0

(* [Lazy.force] is not domain-safe (two domains forcing the same
   suspension at once is undefined), so all plan forcing goes through
   this mutex.  The [Lazy.is_val] fast path skips the lock once the
   plan exists — after that, sharing the forced plan across domains is
   exactly what the plan/run-state split is for. *)
let plan_mutex = Mutex.create ()

let plan_of (c : compiled) =
  let l = c.c_plan in
  if Lazy.is_val l then Lazy.force l
  else Mutex.protect plan_mutex (fun () -> Lazy.force l)

(* Stage_compiler.run uses a per-domain cached run state, so this is
   safe to call concurrently from several domains *)
let run_design (c : compiled) ~args =
  Stage_compiler.run (plan_of c) ~args

(* Kernel-argument order: fields, smalls, params *)
let state_args (st : Interp.kernel_state) =
  List.map (fun (_, g) -> Functional.Ptr (g.Grid.data, 0)) st.fields
  @ List.map (fun (_, g) -> Functional.Ptr (g.Grid.data, 0)) st.smalls
  @ List.map (fun (_, v) -> Functional.F v) st.params
  |> Array.of_list

let run_state (c : compiled) st = run_design c ~args:(state_args st)

let verify ?(seed = 7) (c : compiled) =
  (* reference *)
  let ref_state = reference_state ~seed c.c_lowered in
  (* simulated design on identical fresh inputs *)
  let sim_state = Interp.alloc_state ~seed c.c_lowered in
  run_state c sim_state;
  let interior = Ty.make_bounds ~lb:(List.map (fun _ -> 0) c.c_grid) ~ub:c.c_grid in
  let outputs =
    List.filter
      (fun (fd : Ast.field_decl) -> fd.fd_role = Ast.Output || fd.fd_role = Ast.Inout)
      c.c_kernel.k_fields
  in
  let fields =
    List.map
      (fun (fd : Ast.field_decl) ->
        let a = List.assoc fd.fd_name ref_state.fields in
        let b = List.assoc fd.fd_name sim_state.fields in
        (fd.fd_name, Grid.max_abs_diff_on interior a b))
      outputs
  in
  let max_diff = List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 fields in
  { v_fields = fields; v_max_diff = max_diff }

(* ------------------------------------------------------------------ *)
(* Evaluation: the Stencil-HMLS flow reported in the same shape as the
   baselines, so the benches can tabulate them together. *)

let evaluate_hmls ?(cu = -1) (c : compiled) : Flow.outcome =
  let cu = if cu > 0 then Some cu else None in
  let e = Cost_model.evaluate ?cu c.c_design in
  let cost = Cost_model.project e in
  if not (Cost_model.feasible cost) then
    Flow.Failure
      {
        f_flow = "Stencil-HMLS";
        f_reason =
          Format.asprintf
            "design exceeds the %s's resources (%a; binding: %s at %.0f%% of \
             the budget)"
            U280.name Resources.pp e.usage
            (Cost_model.binding_resource cost)
            (100.0 *. Cost_model.max_fraction cost);
      }
  else
    Flow.Success
      {
        s_flow = "Stencil-HMLS";
        s_est = e.estimate;
        s_usage = e.usage;
        s_power = e.power;
        s_note =
          Printf.sprintf "II=%d, %d CU(s) x %d ports, %d dataflow stages"
            e.estimate.e_ii e.estimate.e_cu c.c_ports_per_cu
            (List.length c.c_design.d_stages);
      }

(* All five flows on one kernel/size, in the paper's order, run one
   after another on the caller: StencilFlow's cost dominates the five,
   so spreading them over domains buys nothing. *)
let evaluate_all ?(variant = Variant.default) (kernel : Ast.kernel) ~grid =
  let flows =
    [
      ( "Stencil-HMLS",
        fun () ->
          try
            let c = compile_cached ~variant kernel ~grid in
            evaluate_hmls c
          with Err.Error e ->
            Flow.Failure { f_flow = "Stencil-HMLS"; f_reason = Err.to_string e } );
      ("DaCe", fun () -> Shmls_baselines.Dace.evaluate kernel ~grid);
      ("SODA-opt", fun () -> Shmls_baselines.Soda.evaluate kernel ~grid);
      ("Vitis HLS", fun () -> Shmls_baselines.Vitis.evaluate kernel ~grid);
      ("StencilFlow", fun () -> Shmls_baselines.Stencilflow.evaluate kernel ~grid);
    ]
  in
  if List.length grid <> kernel.k_rank then
    (* every flow sizes its design from the grid, so none can run *)
    let reason =
      Printf.sprintf "kernel %s has rank %d but the grid %s has rank %d"
        kernel.k_name kernel.k_rank
        (String.concat "x" (List.map string_of_int grid))
        (List.length grid)
    in
    List.map (fun (f_flow, _) -> Flow.Failure { f_flow; f_reason = reason }) flows
  else List.map (fun (_, f) -> f ()) flows

(* ------------------------------------------------------------------ *)
(* Grid sweeps: many (kernel, grid) configurations, optionally across
   domains.

   Compilation runs sequentially up front — IR construction wants
   deterministic ids for anything that prints golden output, and every
   job afterwards only *reads* the shared [compiled] records.  When
   designs are verified the shared plan is forced up front too, so the
   parallel phase does zero plan compilation: every job runs the same
   immutable plan against its own per-domain run state.

   [on_result] streams rows as they complete, in index order: row [i] is
   emitted only after rows [0..i-1], so a consumer writing JSON Lines
   sees exactly the sequential output prefix at any point in time.  If a
   configuration raises, rows after it are withheld and the error
   re-raises for the smallest failing index, as a sequential loop would
   report first. *)
let sweep ?(jobs = 0) ?on_result ?(verify_designs = false) ?(seed = 7)
    ?(variant = Variant.default)
    (configs : (Ast.kernel * int list) list) =
  let prepared =
    List.map
      (fun (kernel, grid) ->
        let c =
          try Ok (compile_cached ~variant kernel ~grid)
          with Err.Error e -> Error e
        in
        (match (verify_designs, c) with
        | true, Ok c -> ignore (plan_of c)
        | _ -> ());
        (kernel, grid, c))
      configs
  in
  let eval (kernel, grid, c) =
    let outcomes = evaluate_all ~variant kernel ~grid in
    let verification =
      match (verify_designs, c) with
      | true, Ok c -> Some (verify ~seed c)
      | _ -> None
    in
    (outcomes, verification)
  in
  let eval_one =
    match on_result with
    | None -> fun (_, item) -> eval item
    | Some emit ->
      (* in-order streaming: park out-of-order completions and flush the
         contiguous prefix under a lock *)
      let em = Mutex.create () in
      let next = ref 0 in
      let parked = Hashtbl.create 16 in
      fun (i, item) ->
        let r = eval item in
        Mutex.protect em (fun () ->
            Hashtbl.replace parked i r;
            while Hashtbl.mem parked !next do
              emit !next (Hashtbl.find parked !next);
              Hashtbl.remove parked !next;
              incr next
            done);
        r
  in
  let indexed = List.mapi (fun i item -> (i, item)) prepared in
  Pool.with_pool ~jobs (fun p -> Pool.map_list p eval_one indexed)

(* ------------------------------------------------------------------ *)
(* Artefact output *)

let emit_llvm_text (c : compiled) = Shmls_llvmir.Ll.to_string c.c_llvm

(* The alternative backend path of the paper's future work: the same
   design lowered to a CIRCT hw/esi netlist. *)
let emit_circt_text (c : compiled) = Shmls_circt.Circt.emit c.c_design

(* A Vitis-style synthesis report for the compiled design, with the
   functional engine's plan shape. *)
let report_text ?cycle_result (c : compiled) =
  Shmls_fpga.Report.render ~plan:(plan_of c) ?cycle_result
    c.c_design
let emit_stencil_text (c : compiled) = Printer.to_string c.c_lowered.l_module
let emit_hls_text (c : compiled) = Printer.to_string c.c_hls_module
