(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 4) plus the ablations and extensions
   DESIGN.md calls out, and gates the timings no end-to-end workload
   covers.

     dune exec bench/main.exe              -- run every experiment
     dune exec bench/main.exe -- fig4      -- one experiment
     dune exec bench/main.exe -- list      -- list experiment ids
     dune exec bench/main.exe -- gate --baseline BENCH_pipeline.json
                                           -- the timing gate (never
                                              part of the full run)

   Experiment ids: fig4 fig5 fig6 table1 table2 analysis stencilflow
   ports ablation vck5000 dynamic multi-fpga zoo.

   As in the paper, results are averaged over 10 runs; the simulator is
   deterministic, so the averaging is protocol parity rather than noise
   suppression (the gate measures real wall-clock noise). *)

module Table = Shmls_support.Table
module Stats = Shmls_support.Stats
module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

let runs = 10

(* Concurrent streams of work for the ablation sweep ([--jobs N]; 0 =
   the adaptive default, all available cores; 1 = sequential.  Results
   are order-preserving, so the tables are byte-identical either way). *)
let jobs = ref 0

let flows_of k grid =
  (* average of [runs] evaluations, per the paper's protocol *)
  let samples =
    List.init runs (fun _ -> Shmls.evaluate_all k ~grid)
  in
  let first = List.hd samples in
  List.mapi
    (fun i outcome ->
      match outcome with
      | Shmls.Flow.Success s ->
        let mpts =
          Stats.mean
            (List.map
               (fun sample ->
                 match List.nth sample i with
                 | Shmls.Flow.Success s' -> s'.s_est.e_mpts
                 | Shmls.Flow.Failure _ -> 0.0)
               samples)
        in
        Shmls.Flow.Success { s with s_est = { s.s_est with e_mpts = mpts } }
      | failure -> failure)
    first

let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n"

(* ------------------------------------------------------------------ *)
(* Figure 4: performance comparison in MPt/s *)

let fig4 () =
  section
    "Figure 4 -- performance of PW advection and tracer advection across\n\
     the frameworks, in MPt/s (higher is better)";
  let run_kernel name (k : Shmls.Ast.kernel) sizes =
    Printf.printf "\n%s:\n" name;
    let t =
      Table.create
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
        [ "size"; "Stencil-HMLS"; "DaCe"; "SODA-opt"; "Vitis HLS"; "StencilFlow" ]
    in
    List.iter
      (fun (label, grid) ->
        let cells =
          List.map
            (fun o ->
              match o with
              | Shmls.Flow.Success s -> f2 s.s_est.e_mpts
              | Shmls.Flow.Failure _ -> "--")
            (flows_of k grid)
        in
        match cells with
        | [ hmls; dace; soda; vitis; sf ] ->
          Table.add_row t
            [ label; hmls; dace; soda; vitis; (if sf = "--" then "fails" else sf) ]
        | _ -> assert false)
      sizes;
    Table.print t
  in
  run_kernel "PW advection" PW.kernel PW.sizes;
  run_kernel "tracer advection" TA.kernel TA.sizes;
  Printf.printf
    "\npaper's shape: Stencil-HMLS 90-100x over DaCe (next best) on PW\n\
     advection, 14-21x on tracer advection; DaCe absent at PW 134M\n\
     (compile failure); StencilFlow produces no runtime numbers.\n"

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6: power and energy *)

let power_energy name (k : Shmls.Ast.kernel) sizes =
  Printf.printf "\n%s:\n" name;
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "size"; "framework"; "avg power (W)"; "energy (J)" ]
  in
  List.iter
    (fun (label, grid) ->
      List.iter
        (fun o ->
          match o with
          | Shmls.Flow.Success s ->
            Table.add_row t
              [ label; s.s_flow; f1 s.s_power.p_total_w; f1 s.s_power.p_energy_j ]
          | Shmls.Flow.Failure f -> Table.add_row t [ label; f.f_flow; "--"; "--" ])
        (flows_of k grid))
    sizes;
  Table.print t

let fig5 () =
  section
    "Figure 5 -- average power draw and energy consumption of PW advection\n\
     (lower is better)";
  power_energy "PW advection" PW.kernel PW.sizes;
  Printf.printf
    "\npaper's shape: Stencil-HMLS draws marginally more power but consumes\n\
     85x (8M) and 92x (32M) less energy than DaCe, the next most efficient.\n"

let fig6 () =
  section
    "Figure 6 -- average power draw and energy consumption of tracer\n\
     advection (lower is better)";
  power_energy "tracer advection" TA.kernel TA.sizes;
  Printf.printf
    "\npaper's shape: 14x (8M) and 22x (33M) less energy than DaCe;\n\
     SODA-opt draws the least power but consumes far more energy.\n"

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2: resource usage *)

(* paper values: (framework, size, %LUT, %FF, %BRAM, %DSP) *)
let paper_table1 =
  [
    ("Stencil-HMLS", "8M", 4.30, 3.02, 14.29, 1.31);
    ("Stencil-HMLS", "32M", 4.31, 3.03, 14.48, 1.31);
    ("Stencil-HMLS", "134M", 4.33, 3.03, 14.09, 1.31);
    ("DaCe", "8M", 8.35, 2.00, 5.51, 0.49);
    ("DaCe", "32M", 8.36, 2.00, 5.51, 0.49);
    ("SODA-opt", "8M", 0.82, 0.51, 0.10, 0.16);
    ("SODA-opt", "32M", 0.82, 0.51, 0.10, 0.16);
    ("SODA-opt", "134M", 0.82, 0.51, 0.10, 0.16);
    ("Vitis HLS", "8M", 1.10, 0.52, 0.10, 0.12);
    ("Vitis HLS", "32M", 1.10, 0.52, 0.10, 0.12);
    ("Vitis HLS", "134M", 1.11, 0.52, 0.10, 0.12);
    ("StencilFlow", "8M", 4.80, 3.06, 16.87, 3.67);
    ("StencilFlow", "32M", 4.81, 3.07, 16.87, 3.67);
  ]

let paper_table2 =
  [
    ("Stencil-HMLS", "8M", 27.05, 18.87, 62.75, 4.12);
    ("Stencil-HMLS", "33M", 27.14, 18.90, 62.75, 4.12);
    ("DaCe", "8M", 11.47, 3.65, 10.07, 0.68);
    ("DaCe", "33M", 11.52, 3.67, 10.07, 0.71);
    ("SODA-opt", "8M", 14.81, 2.79, 0.74, 0.24);
    ("SODA-opt", "33M", 14.77, 2.80, 0.74, 0.24);
    ("Vitis HLS", "8M", 14.00, 2.50, 0.74, 0.24);
    ("Vitis HLS", "33M", 14.02, 2.50, 0.74, 0.24);
  ]

let usage_of_flow (k : Shmls.Ast.kernel) grid flow_name =
  let outcomes = Shmls.evaluate_all k ~grid in
  List.find_map
    (fun o ->
      match o with
      | Shmls.Flow.Success s when s.s_flow = flow_name -> Some s.s_usage
      | _ -> None)
    outcomes

let resource_table ~title (k : Shmls.Ast.kernel) sizes paper ~with_stencilflow =
  section title;
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Left ]
      [ "framework"; "size"; "%LUT"; "%FF"; "%BRAM"; "%URAM"; "%DSP";
        "paper %LUT/%FF/%BRAM/%DSP" ]
  in
  let flows =
    [ "Stencil-HMLS"; "DaCe"; "SODA-opt"; "Vitis HLS" ]
    @ if with_stencilflow then [ "StencilFlow" ] else []
  in
  List.iter
    (fun flow ->
      List.iter
        (fun (label, grid) ->
          let usage =
            if flow = "StencilFlow" then
              (* the paper reports StencilFlow's built bitstreams even
                 though runs deadlock; use the resource model directly *)
              if label = "134M" then None
              else Some (Shmls_baselines.Stencilflow.resource_usage k)
            else usage_of_flow k grid flow
          in
          let paper_cell =
            match
              List.find_opt (fun (f, s, _, _, _, _) -> f = flow && s = label) paper
            with
            | Some (_, _, l, ff, b, d) ->
              Printf.sprintf "%.2f / %.2f / %.2f / %.2f" l ff b d
            | None -> "--"
          in
          match usage with
          | Some u ->
            let p = Shmls.Resources.to_percentages u in
            Table.add_row t
              [
                flow; label; f2 p.pct_luts; f2 p.pct_ffs; f2 p.pct_bram;
                f2 p.pct_uram; f2 p.pct_dsps; paper_cell;
              ]
          | None ->
            Table.add_row t [ flow; label; "--"; "--"; "--"; "--"; "--"; paper_cell ])
        sizes)
    flows;
  Table.print t;
  Printf.printf
    "\n(the paper's table has no URAM column; in this model the plane-sized\n\
     shift-buffer windows and delay FIFOs above 36 KiB are URAM-resident,\n\
     so our %%BRAM runs lower than the paper's for the same design -- see\n\
     DESIGN.md and EXPERIMENTS.md.)\n"

let table1 () =
  resource_table
    ~title:"Table 1 -- resource usage for the PW advection kernel"
    PW.kernel PW.sizes paper_table1 ~with_stencilflow:true

let table2 () =
  resource_table
    ~title:"Table 2 -- resource usage for the tracer advection kernel"
    TA.kernel TA.sizes paper_table2 ~with_stencilflow:false

(* ------------------------------------------------------------------ *)
(* E7: the II / speedup-decomposition analysis of Section 4 *)

let analysis () =
  section
    "Section 4 analysis -- initiation intervals and the paper's speedup\n\
     decomposition";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "kernel"; "framework"; "model II"; "paper II" ]
  in
  let add (kernel : Shmls.Ast.kernel) grid paper_iis =
    List.iter
      (fun o ->
        match o with
        | Shmls.Flow.Success s ->
          let paper =
            match List.assoc_opt s.s_flow paper_iis with
            | Some v -> v
            | None -> "--"
          in
          Table.add_row t
            [ kernel.k_name; s.s_flow; string_of_int s.s_est.e_ii; paper ]
        | Shmls.Flow.Failure _ -> ())
      (Shmls.evaluate_all kernel ~grid)
  in
  add PW.kernel PW.grid_8m [ ("Stencil-HMLS", "1"); ("DaCe", "9") ];
  add TA.kernel TA.grid_8m
    [ ("Stencil-HMLS", "1"); ("DaCe", "9"); ("SODA-opt", "164"); ("Vitis HLS", "163") ];
  Table.print t;
  (match Shmls.evaluate_all PW.kernel ~grid:PW.grid_8m with
  | Shmls.Flow.Success hmls :: Shmls.Flow.Success dace :: _ ->
    Printf.printf
      "\nPW speedup decomposition: measured %.0fx; the paper explains it as\n\
       4 (CUs) x 9 (1/9 of DaCe's II) x 3 (per-field split) = 108x, which\n\
       'roughly approximates the advantage seen in Figure 4'.\n"
      (hmls.s_est.e_mpts /. dace.s_est.e_mpts)
  | _ -> ());
  match Shmls.evaluate_all TA.kernel ~grid:TA.grid_8m with
  | Shmls.Flow.Success hmls :: Shmls.Flow.Success dace :: _ ->
    Printf.printf
      "tracer: measured %.0fx (paper: 14-21x) -- the dependency chains deny\n\
       the 3x split and the 17-port budget allows a single CU.\n"
      (hmls.s_est.e_mpts /. dace.s_est.e_mpts)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* E8: StencilFlow outcomes *)

let stencilflow () =
  section "StencilFlow outcomes (Section 4: no runtime numbers obtainable)";
  List.iter
    (fun (name, (k : Shmls.Ast.kernel), grid) ->
      match Shmls_baselines.Stencilflow.evaluate k ~grid with
      | Shmls.Flow.Success s -> Printf.printf "%-24s OK: %s\n" name s.s_note
      | Shmls.Flow.Failure f -> Printf.printf "%-24s %s\n" name f.f_reason)
    [
      ("PW advection 8M", PW.kernel, PW.grid_8m);
      ("PW advection 32M", PW.kernel, PW.grid_32m);
      ("PW advection 134M", PW.kernel, PW.grid_134m);
      ("tracer advection 8M", TA.kernel, TA.grid_8m);
      ("heat_3d (control)", Shmls_kernels.Didactic.heat_3d, [ 64; 32; 16 ]);
    ];
  Printf.printf
    "\npaper: PW compiled for 8M/32M but never finished within 10 minutes (a\n\
     likely deadlock); tracer could not be expressed (sub-selections); the\n\
     tool does reach II=1 where it runs -- matched by the control kernel.\n"

(* ------------------------------------------------------------------ *)
(* E9: port budget / CU replication *)

let ports () =
  section "Port budget and CU replication (Section 4)";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "kernel"; "fields"; "smalls"; "ports/CU"; "CUs (32-port shell)" ]
  in
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile k ~grid in
      Table.add_row t
        [
          k.k_name;
          string_of_int (List.length k.k_fields);
          string_of_int (List.length k.k_smalls);
          string_of_int c.c_ports_per_cu;
          string_of_int c.c_cu;
        ])
    [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ];
  Table.print t;
  Printf.printf
    "\npaper: PW advection 7 ports/CU (one per field + one for the small\n\
     data) -> 4 CUs; tracer advection 17 ports -> 1 CU (bundling to 13\n\
     would allow 2 CUs but was rejected on performance grounds).\n"

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* Every ablation is a *real* pipeline variant: the lowering itself is
   re-run with steps skipped or altered (no-split drops the per-field
   dataflow split of step 4; no-pack drops the 512-bit packing of step 2;
   cu=N pins the compute-unit replication of step 1), and the numbers are
   [estimate_design] on the resulting design — no perf-model parameter
   overrides anywhere.  Each variant design is also verified bit-exactly
   against the reference stencil interpreter on both paper kernels. *)
let ablation () =
  section "Ablations (A1-A3): the design choices behind the headline numbers";
  let variants =
    [
      ("full Stencil-HMLS design", Shmls.Variant.default);
      ( "A1: no per-field split (serialised compute)",
        { Shmls.Variant.default with v_split = false } );
      ( "A2: no 512-bit packing (scalar ports)",
        { Shmls.Variant.default with v_pack = false } );
      ( "A1+A2: neither split nor packing",
        { Shmls.Variant.default with v_split = false; v_pack = false } );
      ("A3: 1 compute unit", { Shmls.Variant.default with v_cu = Some 1 });
      ("A3: 2 compute units", { Shmls.Variant.default with v_cu = Some 2 });
      ("A3: 3 compute units", { Shmls.Variant.default with v_cu = Some 3 });
      ("A3: 4 compute units", { Shmls.Variant.default with v_cu = Some 4 });
    ]
  in
  (* bit-exactness of each variant pipeline vs the reference interpreter,
     on both paper kernels, through the sweep driver (small grids: the
     8.4M-point estimate grids below would cost the interpreter, at about
     1 MPt/s on the paper kernels, seconds per kernel and variant, and
     hundreds of MB of temporaries) *)
  let exact variant =
    Shmls.sweep ~jobs:!jobs ~verify_designs:true ~variant
      [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ]
    |> List.fold_left
         (fun acc (_, v) ->
           match v with
           | Some v -> Float.max acc v.Shmls.v_max_diff
           | None -> acc)
         0.0
  in
  let estimate variant =
    let c = Shmls.compile_cached ~variant PW.kernel ~grid:PW.grid_8m in
    Shmls.Perf_model.estimate_design c.c_design
  in
  let base = estimate Shmls.Variant.default in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "variant (PW advection, 8M)"; "MPt/s"; "vs full design";
        "max |diff| vs interp" ]
  in
  List.iter
    (fun (name, variant) ->
      let est = estimate variant in
      Table.add_row t
        [
          name; f2 est.e_mpts;
          Printf.sprintf "%.2fx" (est.e_mpts /. base.e_mpts);
          Printf.sprintf "%g" (exact variant);
        ])
    variants;
  Table.print t;
  Printf.printf
    "\nthe paper's 108x decomposition assigns 3x to the split and 4x to CU\n\
     replication; A1 and A3 recover those factors from real compiled\n\
     pipelines.  The fused A1 design re-reads neighbourhoods straight from\n\
     external memory (no shift buffers) -- the packed ports absorb that\n\
     traffic, but combined with A2's scalar ports (A1+A2) the design\n\
     collapses to bandwidth-bound.  Every row is a real compiled pipeline\n\
     (see --variant / stencil-to-hls{variant=...}); the last column is its\n\
     bit-exactness against the reference interpreter on both paper kernels.\n"

(* ------------------------------------------------------------------ *)
(* A4: the VCK5000 future-work study *)

let vck5000 () =
  section
    "Future-work study (Section 5, item 3): CU replication when the port\n\
     budget is not the limit (VCK5000-style shell)";
  let c = Shmls.compile PW.kernel ~grid:PW.grid_8m in
  let d = c.c_design in
  let rec max_cu cu =
    if cu > 64 then 64
    else if Shmls.Resources.fits (Shmls.Resources.of_design ~cu d) then
      max_cu (cu + 1)
    else cu - 1
  in
  let fit = max_cu 1 in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "configuration"; "CUs"; "MPt/s"; "%LUT" ]
  in
  List.iter
    (fun cu ->
      let est = Shmls.Perf_model.estimate_design ~cu d in
      let u = Shmls.Resources.to_percentages (Shmls.Resources.of_design ~cu d) in
      Table.add_row t
        [
          (if cu = 4 then "U280 shell limit (32 AXI ports)"
           else if cu = fit then "resource-limited (no port limit)"
           else "");
          string_of_int cu; f2 est.e_mpts; f2 u.pct_luts;
        ])
    (List.sort_uniq compare [ 1; 2; 4; max 4 (fit / 2); fit ]);
  Table.print t;
  Printf.printf
    "\nwith the AXI port restriction lifted, PW advection replicates to %d\n\
     CUs before the U280's fabric runs out -- the further-replication\n\
     headroom the paper expects on the VCK5000.\n"
    fit

(* ------------------------------------------------------------------ *)
(* Future-work study (Section 5, item 2): static vs dynamic shapes *)

let dynamic () =
  section
    "Future-work study (Section 5, item 2): the cost of static shapes\n\
     (one bitstream per problem size)";
  (* a static-shape design always traverses its full compiled iteration
     space: running a smaller problem on the worst-case bitstream wastes
     the difference.  A dynamic-shape stencil dialect would avoid both
     that and the per-size bitstream builds. *)
  let worst = Shmls.compile PW.kernel ~grid:PW.grid_134m in
  let worst_est = Shmls.Perf_model.estimate_design worst.c_design in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "problem size"; "per-size bitstream MPt/s"; "134M bitstream MPt/s";
        "efficiency" ]
  in
  List.iter
    (fun (label, grid) ->
      let dedicated =
        Shmls.Perf_model.estimate_design (Shmls.compile PW.kernel ~grid).c_design
      in
      (* same cycles as the worst-case run, but only this size's interior
         points are useful output *)
      let interior = List.fold_left ( * ) 1 grid in
      let on_worst = float_of_int interior /. worst_est.e_seconds /. 1e6 in
      Table.add_row t
        [
          label; f2 dedicated.e_mpts; f2 on_worst;
          Printf.sprintf "%.0f%%" (100.0 *. on_worst /. dedicated.e_mpts);
        ])
    PW.sizes;
  Table.print t;
  Printf.printf
    "\neach row's dedicated bitstream is a separate synthesis run (hours on\n\
     real tooling -- the pain the paper's future work wants to remove);\n\
     reusing one worst-case bitstream costs the efficiency column.\n"

(* ------------------------------------------------------------------ *)
(* Extension: the kernel zoo (generalisation beyond the paper's kernels) *)

let zoo () =
  section
    "Extension -- the kernel zoo: the transformation generalises beyond\n\
     PW/tracer advection (bit-exactness and II~1 asserted by the tests)";
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right ]
      [ "kernel"; "halo"; "stages"; "HMLS MPt/s"; "DaCe MPt/s"; "speedup" ]
  in
  List.iter
    (fun ((k : Shmls.Ast.kernel), _) ->
      let grid =
        match k.k_rank with 2 -> [ 512; 256 ] | _ -> [ 256; 128; 64 ]
      in
      let c = Shmls.compile k ~grid in
      match Shmls.evaluate_all k ~grid with
      | Shmls.Flow.Success hmls :: Shmls.Flow.Success dace :: _ ->
        Table.add_row t
          [
            k.k_name;
            String.concat "," (List.map string_of_int c.c_design.d_halo);
            string_of_int (List.length c.c_design.d_stages);
            f2 hmls.s_est.e_mpts;
            f2 dace.s_est.e_mpts;
            Printf.sprintf "%.0fx" (hmls.s_est.e_mpts /. dace.s_est.e_mpts);
          ]
      | _ -> Table.add_row t [ k.k_name; "--"; "--"; "--"; "--"; "--" ])
    Shmls_kernels.Zoo.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Extension: multi-FPGA domain decomposition *)

let multi_fpga () =
  section
    "Extension -- PW advection decomposed over multiple U280s (slabs along\n\
     the streamed dimension, halo exchange over the modelled link;\n\
     bit-exactness is asserted by the test suite)";
  let grid = [ 128; 32; 16 ] in
  let t =
    Table.create ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "devices"; "aggregate MPt/s"; "scaling" ]
  in
  let base = ref 0.0 in
  List.iter
    (fun slabs ->
      let p = Shmls_host.Multi_device.plan PW.kernel ~grid ~devices:slabs in
      let mpts =
        Shmls_host.Multi_device.aggregate_mpts p
          (Shmls_host.Multi_device.estimate p)
      in
      if slabs = 1 then base := mpts;
      Table.add_row t
        [ string_of_int slabs; f2 mpts; Printf.sprintf "%.2fx" (mpts /. !base) ])
    [ 1; 2; 4; 8 ];
  Table.print t;
  Printf.printf
    "\n(scaling is sub-linear at this laptop-scale grid because every slab\n\
     pays the same shift-buffer fill latency and the link charge; at the\n\
     paper's sizes both are negligible and scaling is essentially\n\
     linear.)\n"

(* ------------------------------------------------------------------ *)
(* The gate: timings no end-to-end workload covers *)

(* bench/e2e times every layer a user request goes through, so only two
   things are timed here: the parallel sweep against the sequential one
   (bench/e2e runs its workloads on a fixed pool) and the multi-device
   ensemble estimate.  Rows are sampled round-robin -- each iteration
   times every row once -- so a burst of VM noise costs every row one
   sample instead of costing one row all of its samples, and the median
   of [samples] drops it. *)

let samples = 41

let sweep_configs =
  [
    (Shmls_kernels.Didactic.heat_3d, [ 16; 12; 8 ]);
    (Shmls_kernels.Didactic.laplace_2d, [ 48; 32 ]);
    (Shmls_kernels.Didactic.gradient_smooth_3d, [ 16; 12; 8 ]);
    (PW.kernel, [ 24; 16; 8 ]);
  ]

(* The jobs1/jobsN pair must stay first: odd iterations run it in the
   other order, so neither row always follows the other. *)
let timed_rows () =
  let sweep jobs () =
    ignore (Shmls.sweep ~jobs ~verify_designs:true sweep_configs)
  in
  let estimate devices =
    let p =
      Shmls_host.Multi_device.plan ~sweeps:2 Shmls_kernels.Didactic.heat_3d
        ~grid:[ 96; 8; 6 ] ~devices
    in
    fun () -> ignore (Shmls_host.Multi_device.estimate p)
  in
  [
    ("sweep_verify_batched_jobs1", sweep 1);
    ("sweep_verify_batched_jobsN", sweep 0);
    ("multi_device_scaling_1slab", estimate 1);
    ("multi_device_scaling_2slab", estimate 2);
    ("multi_device_scaling_4slab", estimate 4);
  ]

let time_ns f =
  let t0 = Monotonic_clock.now () in
  f ();
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* Median ns of each row.  One untimed round first fills the compile
   cache, the plan and state memos and the domain pool. *)
let medians rows =
  let rows = Array.of_list rows in
  Array.iter (fun (_, f) -> f ()) rows;
  let times = Array.map (fun _ -> Array.make samples 0.0) rows in
  for i = 0 to samples - 1 do
    for r = 0 to Array.length rows - 1 do
      let r = if i land 1 = 1 && r < 2 then 1 - r else r in
      times.(r).(i) <- time_ns (snd rows.(r))
    done
  done;
  Array.to_list
    (Array.mapi
       (fun r (name, _) -> (name, Stats.median (Array.to_list times.(r))))
       rows)

(* Raw pipeline runs of the first and second [evaluate_all] on the same
   kernel and grid: compile-once means 1 then 0. *)
let compile_once_counts () =
  Shmls.reset_compile_cache ();
  let grid = [ 16; 8; 4 ] in
  ignore (Shmls.evaluate_all PW.kernel ~grid);
  let first = Shmls.compile_runs () in
  ignore (Shmls.evaluate_all PW.kernel ~grid);
  [
    ("compile_runs_first_evaluate_all", first);
    ("compile_runs_second_evaluate_all", Shmls.compile_runs () - first);
  ]

type op =
  | Baseline  (** median <= threshold x the baseline's value *)
  | Row of string  (** median <= threshold x that row's median *)
  | Row_one_domain of string
      (** as [Row], checked only where one domain is available *)
  | Exactly  (** value = threshold *)

let gates =
  [
    ("sweep_verify_batched_jobs1", Baseline, 1.25);
    ("sweep_verify_batched_jobsN", Baseline, 1.25);
    ("multi_device_scaling_1slab", Baseline, 1.25);
    ("multi_device_scaling_2slab", Baseline, 1.25);
    ("multi_device_scaling_4slab", Baseline, 1.25);
    (* the parallel sweep must not lose to the sequential one... *)
    ("sweep_verify_batched_jobsN", Row "sweep_verify_batched_jobs1", 1.05);
    (* ...and on one domain the pool must be a no-op: jobs1 getting
       slower than jobsN means the sequential path grew overhead *)
    ( "sweep_verify_batched_jobs1",
      Row_one_domain "sweep_verify_batched_jobsN",
      1.05 );
    ("compile_runs_first_evaluate_all", Exactly, 1.0);
    ("compile_runs_second_evaluate_all", Exactly, 0.0);
  ]

let pp_ns ns =
  if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* [Some (passed, detail)], or [None] where the gate does not apply. *)
let check ~baseline ~values ~domains (row, op, t) =
  let v = List.assoc row values in
  let bound what w =
    Some
      ( v <= t *. w,
        Printf.sprintf "%s <= %.2fx %s %s (%.2fx)" (pp_ns v) t what (pp_ns w)
          (v /. w) )
  in
  match op with
  | Baseline -> (
    match Shmls_support.Jsonl.find_float baseline row with
    | Some w -> bound "baseline" w
    | None -> Some (false, "not in the baseline"))
  | Row r -> bound r (List.assoc r values)
  | Row_one_domain r ->
    if domains = 1 then bound r (List.assoc r values) else None
  | Exactly -> Some (v = t, Printf.sprintf "%g (must be %g)" v t)

let write_json path ~domains medians counts =
  let module J = Shmls_support.Jsonl in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (J.obj
           ([
              ("generated_by", J.Str "bench/main.exe gate --json");
              ("unit", J.Str "ns, median of round-robin samples");
              ("samples", J.Int samples);
              ("domains_available", J.Int domains);
            ]
           @ List.map (fun (name, ns) -> (name, J.Float ns)) medians
           @ List.map (fun (name, n) -> (name, J.Int n)) counts));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" path

(* Measure; with [baseline], check every gate and exit 1 naming the
   failed rows on stderr. *)
let gate ?baseline ?json () =
  let baseline =
    Option.map
      (fun path ->
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error e ->
          Printf.eprintf "gate: %s\n" e;
          exit 2)
      baseline
  in
  section
    (Printf.sprintf
       "Gate -- timings no end-to-end workload covers (median of %d\n\
        round-robin samples)"
       samples);
  let counts = compile_once_counts () in
  let medians = medians (timed_rows ()) in
  let domains = Domain.recommended_domain_count () in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-34s %12s\n" name (pp_ns ns))
    medians;
  List.iter (fun (name, n) -> Printf.printf "  %-34s %12d\n" name n) counts;
  Option.iter (fun path -> write_json path ~domains medians counts) json;
  match baseline with
  | None -> ()
  | Some baseline ->
    let values =
      medians @ List.map (fun (name, n) -> (name, float_of_int n)) counts
    in
    print_newline ();
    let failed =
      List.filter_map
        (fun ((row, _, _) as g) ->
          match check ~baseline ~values ~domains g with
          | None -> None
          | Some (passed, detail) ->
            Printf.printf "  %-4s %-34s %s\n"
              (if passed then "ok" else "FAIL")
              row detail;
            if passed then None else Some row)
        gates
    in
    if failed <> [] then begin
      Printf.eprintf "gate FAILED: %s\n"
        (String.concat " " (List.sort_uniq compare failed));
      exit 1
    end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("table1", table1);
    ("table2", table2);
    ("analysis", analysis);
    ("stencilflow", stencilflow);
    ("ports", ports);
    ("ablation", ablation);
    ("vck5000", vck5000);
    ("dynamic", dynamic);
    ("multi-fpga", multi_fpga);
    ("zoo", zoo);
  ]

let rec gate_args ?baseline ?json = function
  | [] -> gate ?baseline ?json ()
  | "--baseline" :: path :: rest -> gate_args ~baseline:path ?json rest
  | "--json" :: path :: rest -> gate_args ?baseline ~json:path rest
  | _ ->
    prerr_endline "usage: main.exe gate [--baseline PATH] [--json PATH]";
    exit 2

(* Pull "--jobs N" out of the argument list (concurrent streams of work
   for the ablation sweep; 0 = adaptive, 1 = sequential -- the tables
   are byte-identical either way); everything left is experiment names. *)
let rec extract_jobs acc = function
  | [] -> (List.rev acc, None)
  | [ "--jobs" ] ->
    Printf.eprintf "--jobs requires an integer argument\n";
    exit 1
  | "--jobs" :: n :: rest -> (
    match int_of_string_opt n with
    | Some n when n >= 0 -> (List.rev_append acc rest, Some n)
    | _ ->
      Printf.eprintf "--jobs: bad worker count %S\n" n;
      exit 1)
  | x :: rest -> extract_jobs (x :: acc) rest

let () =
  match Array.to_list Sys.argv with
  | [] -> ()
  | _ :: "gate" :: args -> gate_args args
  | _ :: rest -> (
    let args, j = extract_jobs [] rest in
    (match j with Some n -> jobs := n | None -> ());
    match args with
    | [] ->
      Printf.printf
        "Stencil-HMLS evaluation harness -- reproducing every table and figure\n\
         of the paper (simulated U280; see DESIGN.md for the substitutions).\n";
      List.iter (fun (_, f) -> f ()) experiments
    | [ "list" ] -> List.iter (fun (name, _) -> print_endline name) experiments
    | args ->
      List.iter
        (fun arg ->
          match List.assoc_opt arg experiments with
          | Some f -> f ()
          | None ->
            Printf.eprintf "unknown experiment %S (try 'list')\n" arg;
            exit 1)
        args)
