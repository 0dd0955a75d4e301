(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (Section 4), plus the ablations DESIGN.md calls out
   and Bechamel micro-benchmarks of the compiler pipeline itself.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- fig4      -- one experiment
     dune exec bench/main.exe -- list      -- list experiment ids

   Experiment ids: fig4 fig5 fig6 table1 table2 analysis stencilflow
   ports ablation vck5000 bechamel.

   As in the paper, results are averaged over 10 runs; the simulator is
   deterministic, so the averaging is protocol parity rather than noise
   suppression (the Bechamel benches measure real wall-clock noise). *)

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
(* Bechamel micro-benchmarks: cost of the pipeline itself *)

(* Where [--json PATH] asked the bechamel experiments to record their
   results machine-readably (None = stdout only). *)
let json_out : string option ref = ref None

(* Run a Bechamel suite and return (name, ns/run) rows, sorted. *)
let run_bechamel cfg tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"shmls" tests)
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.sort compare !rows

let print_rows rows =
  List.iter
    (fun (name, est) ->
      if est >= 1e6 then Printf.printf "  %-40s %10.2f ms/run\n" name (est /. 1e6)
      else Printf.printf "  %-40s %10.1f ns/run\n" name est)
    rows

let find_row rows suffix =
  List.find_map
    (fun (name, est) ->
      let nl = String.length name and sl = String.length suffix in
      if nl >= sl && String.sub name (nl - sl) sl = suffix then Some est
      else None)
    rows

(* Micro-benchmarks of the compile-and-simulate hot paths this repo
   optimises: O(1) intrusive block appends vs the seed's [b_ops <- b_ops
   @ [op]] list representation, the worklist rewrite driver, and strided
   vs cons-list grid indexing. *)
let micro_tests () =
  let open Bechamel in
  Shmls_dialects.Register.all ();
  let n = 10_000 in
  let fold_chain_module n =
    let m = Shmls.Ir.Module_.create () in
    let _ =
      Shmls_dialects.Func.build_func m ~name:"f" ~arg_tys:[] ~result_tys:[]
        (fun b _ ->
          let x = ref (Shmls_dialects.Arith.constant_f b 1.0) in
          for _ = 1 to n do
            x := Shmls_dialects.Arith.addf b !x !x
          done;
          Shmls_dialects.Func.return_ b [])
    in
    m
  in
  let g =
    Shmls.Grid.create (Shmls.Ty.make_bounds ~lb:[ 0; 0; 0 ] ~ub:[ 64; 64; 16 ])
  in
  Shmls.Grid.init_hash g;
  (* a small-grid functional-sim row, cheap enough for the smoke run *)
  let small = Shmls.compile_cached Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 10; 8 ] in
  (* the sweep-scaling rows live in this shared subset so the CI smoke
     json carries them too (the sweep gate reads them) *)
  let sweep_bench_configs =
    [
      (Shmls_kernels.Didactic.heat_3d, [ 16; 12; 8 ]);
      (Shmls_kernels.Didactic.laplace_2d, [ 48; 32 ]);
      (Shmls_kernels.Didactic.gradient_smooth_3d, [ 16; 12; 8 ]);
      (PW.kernel, [ 24; 16; 8 ]);
    ]
  in
  (* warm the compile-cache, plan and reference-state memos so the jobs1
     and jobsN rows both measure steady-state sweeps rather than the
     first row absorbing every one-time cache fill *)
  ignore (Shmls.sweep ~jobs:1 ~verify_designs:true sweep_bench_configs);
  (* warm the tuner's configurations too, so its row measures the search
     machinery (enumeration, pruning, model evaluation, Pareto
     maintenance, frontier validation) rather than first-compile cost *)
  ignore
    (Shmls_tune.Tune.run ~max_cu:2 ~jobs:1 Shmls_kernels.Didactic.laplace_2d
       ~grids:[ [ 12; 12 ] ]);
  (* the cycle simulator runs on the full-bench PW grid even in the
     smoke subset: it fast-forwards the steady state *)
  let cycle_design =
    (Shmls.compile_cached PW.kernel ~grid:[ 24; 16; 8 ]).c_design
  in
  (* multi-device scaling: ensemble cycle estimate of the same heat_3d
     grid decomposed over 1/2/4 slabs (plans prebuilt, compile cache
     hot) — the CI bench gate checks these rows stay present *)
  let md_plan devices =
    Shmls_host.Multi_device.plan ~sweeps:2 Shmls_kernels.Didactic.heat_3d
      ~grid:[ 96; 8; 6 ] ~devices
  in
  let md1 = md_plan 1 and md2 = md_plan 2 and md4 = md_plan 4 in
  [
    Test.make ~name:"multi_device_scaling_1slab"
      (Staged.stage (fun () ->
           ignore (Shmls_host.Multi_device.estimate md1)));
    Test.make ~name:"multi_device_scaling_2slab"
      (Staged.stage (fun () ->
           ignore (Shmls_host.Multi_device.estimate md2)));
    Test.make ~name:"multi_device_scaling_4slab"
      (Staged.stage (fun () ->
           ignore (Shmls_host.Multi_device.estimate md4)));
    Test.make ~name:"pipeline_cycle_sim_event"
      (Staged.stage (fun () -> ignore (Shmls.Cycle_sim.run cycle_design)));
    (* the design-space autotuner end to end on a small kernel: compile
       cache hot, so this is points-through-the-search-driver throughput *)
    Test.make ~name:"tune_search_throughput"
      (Staged.stage (fun () ->
           ignore
             (Shmls_tune.Tune.run ~max_cu:2 ~jobs:1
                Shmls_kernels.Didactic.laplace_2d ~grids:[ [ 12; 12 ] ])));
    (* --jobs scaling: the sweep driver with design verification,
       sequential vs the adaptive domain pool (one shared plan
       per config, per-domain run states) *)
    Test.make ~name:"sweep_verify_batched_jobs1"
      (Staged.stage (fun () ->
           ignore
             (Shmls.sweep ~jobs:1 ~verify_designs:true sweep_bench_configs)));
    Test.make ~name:"sweep_verify_batched_jobsN"
      (Staged.stage (fun () ->
           ignore
             (Shmls.sweep ~jobs:0 ~verify_designs:true sweep_bench_configs)));
    Test.make ~name:"functional_sim_batched_small"
      (Staged.stage (fun () -> ignore (Shmls.verify small)));
    Test.make ~name:"stage_compile_once_small"
      (Staged.stage (fun () ->
           ignore (Shmls.Stage_compiler.compile small.c_design)));
    Test.make ~name:"ir_block_append_10k"
      (Staged.stage (fun () ->
           let b = Shmls.Ir.Block.create () in
           for i = 0 to n - 1 do
             Shmls.Ir.Block.append b
               (Shmls.Ir.Op.create ~name:"arith.constant"
                  ~result_tys:[ Shmls.Ty.F64 ]
                  ~attrs:[ ("value", Shmls.Attr.Float (float_of_int i)) ]
                  ())
           done));
    (* the seed's block representation: append n elements with the list
       concatenation the old Block.append performed *)
    Test.make ~name:"ir_list_append_10k_seed_baseline"
      (Staged.stage (fun () ->
           let l = ref [] in
           for i = 0 to n - 1 do
             l := !l @ [ i ]
           done;
           ignore !l));
    Test.make ~name:"rewrite_driver_fold_chain_256"
      (Staged.stage (fun () ->
           let m = fold_chain_module 256 in
           let p = Shmls.Pass.lookup_exn "canonicalize" in
           p.Shmls.Pass.run m));
    Test.make ~name:"grid_sweep_strided_64x64x16"
      (Staged.stage (fun () ->
           let s = ref 0.0 in
           Shmls.Grid.iter_bounds_arr g.Shmls.Grid.bounds (fun pos ->
               s :=
                 !s
                 +. Array.unsafe_get g.Shmls.Grid.data
                      (Shmls.Grid.unsafe_linear g pos));
           ignore !s));
    Test.make ~name:"grid_sweep_list_64x64x16"
      (Staged.stage (fun () ->
           let s = ref 0.0 in
           Shmls.Grid.iter_bounds g.Shmls.Grid.bounds (fun idx ->
               s := !s +. Shmls.Grid.get g idx);
           ignore !s));
  ]

(* Demonstrate compile-once evaluation: raw pipeline runs of the first
   and second [evaluate_all] on the same kernel/grid (1 then 0). *)
let compile_once_counts () =
  Shmls.reset_compile_cache ();
  let grid = [ 16; 8; 4 ] in
  ignore (Shmls.evaluate_all PW.kernel ~grid);
  let first = Shmls.compile_runs () in
  ignore (Shmls.evaluate_all PW.kernel ~grid);
  let second = Shmls.compile_runs () - first in
  (first, second)

(* BENCH_pipeline.json: machine-readable record of the micro-benchmarks
   plus the derived acceptance numbers (block-construction speedup,
   sweep scaling, compile-once counts). *)
let emit_json ~path rows =
  let first, second = compile_once_counts () in
  let speedup =
    match
      ( find_row rows "ir_block_append_10k",
        find_row rows "ir_list_append_10k_seed_baseline" )
    with
    | Some fast, Some slow when fast > 0.0 -> Some (slow /. fast)
    | _ -> None
  in
  let grid_speedup =
    match
      ( find_row rows "grid_sweep_strided_64x64x16",
        find_row rows "grid_sweep_list_64x64x16" )
    with
    | Some fast, Some slow when fast > 0.0 -> Some (slow /. fast)
    | _ -> None
  in
  let jobs_scaling =
    match
      ( find_row rows "sweep_verify_batched_jobs1",
        find_row rows "sweep_verify_batched_jobsN" )
    with
    | Some j1, Some jn when jn > 0.0 -> Some (j1 /. jn)
    | _ -> None
  in
  (* modelled multi-device throughput scaling (deterministic, not a
     timing): aggregate MPt/s of heat_3d 96x8x6 over 4 slabs vs 1 —
     super-unity means the link charge does not swallow the split *)
  let md_scaling =
    let mpts devices =
      let p =
        Shmls_host.Multi_device.plan ~sweeps:2 Shmls_kernels.Didactic.heat_3d
          ~grid:[ 96; 8; 6 ] ~devices
      in
      Shmls_host.Multi_device.aggregate_mpts p
        (Shmls_host.Multi_device.estimate p)
    in
    let one = mpts 1 in
    if one > 0.0 then Some (mpts 4 /. one) else None
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    "  \"generated_by\": \"bench/main.exe bechamel --json\",\n";
  Buffer.add_string buf "  \"results_ns_per_run\": {\n";
  List.iteri
    (fun i (name, est) ->
      Buffer.add_string buf
        (Printf.sprintf "    %S: %.1f%s\n" name est
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"derived\": {\n";
  (match speedup with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf "    \"block_construction_speedup_at_10k_ops\": %.1f,\n" s)
  | None -> ());
  (match grid_speedup with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf "    \"grid_indexing_speedup\": %.1f,\n" s)
  | None -> ());
  (match md_scaling with
  | Some s ->
    Buffer.add_string buf
      (Printf.sprintf "    \"multi_device_mpts_scaling_4slab\": %.2f,\n" s)
  | None -> ());
  (match jobs_scaling with
  | Some s ->
    (* interpret against the machine: on a one-domain box the adaptive
       pool is a no-op, so the scaling must hover around 1.0; with
       several domains it should exceed 1 (the CI gate enforces both) *)
    Buffer.add_string buf
      (Printf.sprintf "    \"sweep_jobsN_scaling\": %.2f,\n" s);
    Buffer.add_string buf
      (Printf.sprintf "    \"sweep_effective_jobs\": %d,\n"
         (Shmls.Pool.default_jobs ()));
    Buffer.add_string buf
      (Printf.sprintf "    \"domains_available\": %d,\n"
         (Domain.recommended_domain_count ()))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "    \"compile_runs_first_evaluate_all\": %d,\n" first);
  Buffer.add_string buf
    (Printf.sprintf "    \"compile_runs_second_evaluate_all\": %d\n" second);
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* Fast subset exercising the JSON emitter, cheap enough for the dune
   runtest alias in bench/dune (tier-1). *)
let bechamel_smoke () =
  section "Bechamel smoke -- hot-path micro-benchmarks (fast subset)";
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:10 ~quota:(Time.second 0.05) () in
  let rows = run_bechamel cfg (micro_tests ()) in
  print_rows rows;
  let path = Option.value !json_out ~default:"BENCH_pipeline.json" in
  emit_json ~path rows

let bechamel () =
  section "Bechamel -- wall-clock cost of the pipeline stages (this machine)";
  let open Bechamel in
  let grid = [ 24; 16; 8 ] in
  let compiled = Shmls.compile PW.kernel ~grid in
  let tests =
    [
      (* one Test.make per table/figure-producing pipeline, per DESIGN.md's
         bench inventory, plus the pipeline stages themselves *)
      Test.make ~name:"fig4_pw_evaluate_all"
        (Staged.stage (fun () ->
             ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_8m)));
      Test.make ~name:"fig4_tracer_evaluate_all"
        (Staged.stage (fun () ->
             ignore (Shmls.evaluate_all TA.kernel ~grid:TA.grid_8m)));
      Test.make ~name:"fig5_fig6_power_model"
        (Staged.stage (fun () ->
             let u = Shmls.Resources.of_design compiled.c_design in
             let est = Shmls.Perf_model.estimate_design compiled.c_design in
             ignore
               (Shmls.Power.of_estimate ~usage:u ~est ~bytes_per_point:48
                  ~interior:(Shmls.Design.interior_points compiled.c_design))));
      Test.make ~name:"table1_table2_resource_model"
        (Staged.stage (fun () -> ignore (Shmls.Resources.of_design compiled.c_design)));
      Test.make ~name:"pipeline_compile_pw"
        (Staged.stage (fun () -> ignore (Shmls.compile PW.kernel ~grid)));
      (* the nine-step HLS lowering alone, on a pre-lowered module (the
         functional run leaves its input intact, so reuse is safe) *)
      Test.make ~name:"pipeline_stencil_to_hls_9steps"
        (Staged.stage
           (let lowered = Shmls.Lower.lower PW.kernel ~grid in
            Shmls_transforms.Shape_inference.run_on_module
              lowered.Shmls.Lower.l_module;
            fun () ->
              ignore
                (Shmls_transforms.Stencil_to_hls.run
                   lowered.Shmls.Lower.l_module)));
      Test.make ~name:"pipeline_functional_sim_batched"
        (Staged.stage (fun () -> ignore (Shmls.verify compiled)));
      Test.make ~name:"stage_compile_once"
        (Staged.stage (fun () ->
             ignore (Shmls.Stage_compiler.compile compiled.c_design)));
      Test.make ~name:"stage_compile_once_batched"
        (Staged.stage (fun () ->
             ignore (Shmls.Stage_compiler.compile_batched compiled.c_design)));
      Test.make ~name:"pipeline_llvm_emit_fpp"
        (Staged.stage (fun () ->
             let ll = Shmls_llvmir.Emit.emit_module compiled.c_hls_module in
             ignore (Shmls_llvmir.Fplusplus.run ll)));
    ]
  in
  let tests = tests @ micro_tests () in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let rows = run_bechamel cfg tests in
  print_rows rows;
  let path = Option.value !json_out ~default:"BENCH_pipeline.json" in
  emit_json ~path rows

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
    ("bechamel", bechamel);
    ("bechamel-smoke", bechamel_smoke);
  ]

(* Pull "--json PATH" out of the argument list; everything left is
   experiment names. *)
let rec extract_json acc = function
  | [] -> (List.rev acc, None)
  | [ "--json" ] ->
    Printf.eprintf "--json requires a path argument\n";
    exit 1
  | "--json" :: path :: rest -> (List.rev_append acc rest, Some path)
  | x :: rest -> extract_json (x :: acc) rest

(* Pull "--jobs N" out likewise (concurrent streams of work for the
   ablation sweep; 0 = adaptive, 1 = sequential — the tables are
   byte-identical either way). *)
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
  | _ :: rest -> (
    let args, json = extract_json [] rest in
    let args, j = extract_jobs [] args in
    json_out := json;
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
