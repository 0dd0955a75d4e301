(* FPGA substrate tests: design extraction, stream-depth balancing, the
   functional and cycle simulators, and the resource/power models. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module F = Shmls_fpga
module Design = F.Design

let compile k grid = Shmls.compile k ~grid

(* -- extraction --------------------------------------------------------- *)

let test_extract_structure () =
  let c = compile Shmls_kernels.Pw_advection.kernel [ 12; 8; 6 ] in
  let d = c.c_design in
  Alcotest.(check int) "cu" 4 d.d_cu;
  Alcotest.(check int) "ports" 7 d.d_ports_per_cu;
  Alcotest.(check (list int)) "grid" [ 12; 8; 6 ] d.d_grid;
  Alcotest.(check (list int)) "halo" [ 1; 1; 1 ] d.d_halo;
  let count p = List.length (List.filter p d.d_stages) in
  Alcotest.(check int) "1 load" 1 (count (function Design.Load _ -> true | _ -> false));
  Alcotest.(check int) "3 shifts" 3
    (count (function Design.Shift _ -> true | _ -> false));
  Alcotest.(check int) "3 computes" 3
    (count (function Design.Compute _ -> true | _ -> false));
  Alcotest.(check int) "1 write" 1
    (count (function Design.Write _ -> true | _ -> false));
  Alcotest.(check int) "interfaces" 10 (List.length d.d_interfaces)

let test_extract_toposort () =
  let c = compile H.chain_3d [ 8; 6; 6 ] in
  (* every stage's inputs must be produced by an earlier stage *)
  let produced = Hashtbl.create 32 in
  List.iter
    (fun stage ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem produced s) then
            Alcotest.failf "stage %s consumes stream %d before production"
              (Design.stage_name stage) s)
        (Design.inputs_of_stage stage);
      List.iter (fun s -> Hashtbl.replace produced s ()) (Design.outputs_of_stage stage))
    c.c_design.d_stages

let test_shift_geometry () =
  (* 1D halo-1 over extent 10: lookahead 1, window 3 *)
  Alcotest.(check int) "1d lookahead" 1
    (Design.shift_lookahead ~halo:[ 1 ] ~extent:[ 10 ]);
  Alcotest.(check int) "1d window" 3 (Design.shift_window ~halo:[ 1 ] ~extent:[ 10 ]);
  (* 3D halo-1 over (6,5,4): lookahead = 20 + 4 + 1 = 25 *)
  Alcotest.(check int) "3d lookahead" 25
    (Design.shift_lookahead ~halo:[ 1; 1; 1 ] ~extent:[ 6; 5; 4 ]);
  Alcotest.(check int) "3d window" 51
    (Design.shift_window ~halo:[ 1; 1; 1 ] ~extent:[ 6; 5; 4 ])

let test_summary () =
  let c = compile Shmls_kernels.Pw_advection.kernel [ 12; 8; 6 ] in
  let s = Design.summarise c.c_design in
  Alcotest.(check int) "computes" 3 s.n_compute;
  Alcotest.(check int) "shifts" 3 s.n_shift;
  Alcotest.(check int) "ii" 1 s.max_ii;
  Alcotest.(check bool) "flops counted" true (s.flops > 30);
  Alcotest.(check bool) "shift storage" true (s.shift_bytes > 0);
  Alcotest.(check bool) "small copies" true (s.small_bytes > 0)

(* -- functional simulation ---------------------------------------------- *)

let test_functional_matches_interpreter_all_kernels () =
  List.iter
    (fun (k, grid) ->
      let c = compile k grid in
      let v = Shmls.verify c in
      if v.v_max_diff > 0.0 then
        Alcotest.failf "%s: functional sim differs by %g" k.k_name v.v_max_diff)
    H.all_test_kernels

let qcheck_functional_matches_random =
  H.qtest ~count:25 "functional sim matches interpreter on random kernels"
    H.gen_kernel (fun k ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let c = compile k (H.small_grid k.k_rank) in
        let v = Shmls.verify c in
        v.v_max_diff = 0.0)

(* -- depth balancing and the cycle simulator ----------------------------- *)

let test_balance_enlarges_chain_fifos () =
  let l = Shmls_frontend.Lower.lower H.chain_3d ~grid:[ 8; 6; 6 ] in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  let m_hls, _ = Shmls_transforms.Stencil_to_hls.run l.l_module in
  let d0 = List.hd (F.Extract.extract_module m_hls) in
  let enlarged = F.Depth_balance.balance d0 in
  Alcotest.(check bool) "some fifos enlarged" true (enlarged > 0);
  let d1 = F.Extract.extract d0.d_func in
  let max_depth =
    List.fold_left (fun acc (s : Design.stream) -> max acc s.st_depth) 0 d1.d_streams
  in
  Alcotest.(check bool) "deep skew fifo exists" true (max_depth > 16)

let test_cycle_sim_ii_one () =
  List.iter
    (fun (k, grid) ->
      let c = compile k grid in
      let r = F.Cycle_sim.run c.c_design in
      if r.deadlocked then Alcotest.failf "%s deadlocked" k.k_name;
      let total = Design.total_padded c.c_design in
      let ii = float_of_int r.cycles /. float_of_int total in
      if ii > 1.6 then
        Alcotest.failf "%s: effective II %.2f, expected ~1" k.k_name ii)
    H.all_test_kernels

let test_cycle_sim_close_to_analytic () =
  let c = compile Shmls_kernels.Didactic.heat_3d [ 12; 10; 8 ] in
  let r = F.Cycle_sim.run c.c_design in
  let est = F.Perf_model.estimate_design ~cu:1 c.c_design in
  let rel =
    Float.abs (float_of_int r.cycles -. est.e_cycles) /. est.e_cycles
  in
  if rel > 0.15 then
    Alcotest.failf "cycle sim %d vs analytic %.0f: %.0f%% apart" r.cycles
      est.e_cycles (100.0 *. rel)

let test_unbalanced_chain_throttles () =
  (* chained kernels with default FIFO depths lose their II=1 behaviour:
     converging paths of different delay stall each other through the
     shallow FIFOs.  (A hard wedge needs an unreplicated shared stream,
     which is the StencilFlow PW scenario tested in test_baselines.) *)
  let l = Shmls_frontend.Lower.lower H.chain_3d ~grid:[ 10; 8; 8 ] in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  let m_hls, _ = Shmls_transforms.Stencil_to_hls.run l.l_module in
  let d = List.hd (F.Extract.extract_module m_hls) in
  let unbalanced = F.Cycle_sim.run d in
  let balanced = F.Cycle_sim.run (F.Depth_balance.balance_and_reextract d) in
  let total = float_of_int (Design.total_padded d) in
  let ii_unbalanced = float_of_int unbalanced.cycles /. total in
  let ii_balanced = float_of_int balanced.cycles /. total in
  Alcotest.(check bool) "balanced streams at ~II 1" true (ii_balanced < 1.6);
  Alcotest.(check bool) "unbalanced is at least 2x slower" true
    (unbalanced.deadlocked || ii_unbalanced > 2.0 *. ii_balanced)

(* -- performance model --------------------------------------------------- *)

let test_perf_model_scaling () =
  let est grid = F.Perf_model.estimate_design (compile Shmls_kernels.Pw_advection.kernel grid).c_design in
  let e1 = est [ 32; 16; 8 ] in
  let e2 = est [ 64; 16; 8 ] in
  (* twice the points, same structure: ~same MPt/s, ~twice the cycles *)
  let ratio = e2.e_cycles /. e1.e_cycles in
  Alcotest.(check bool) "cycles scale with points" true (ratio > 1.7 && ratio < 2.3);
  let mpts_ratio = e2.e_mpts /. e1.e_mpts in
  Alcotest.(check bool) "throughput size-independent" true
    (mpts_ratio > 0.9 && mpts_ratio < 1.1)

let test_perf_model_cu_scaling () =
  let c = compile Shmls_kernels.Pw_advection.kernel [ 32; 16; 8 ] in
  let e1 = F.Perf_model.estimate_design ~cu:1 c.c_design in
  let e4 = F.Perf_model.estimate_design ~cu:4 c.c_design in
  let speedup = e4.e_mpts /. e1.e_mpts in
  Alcotest.(check bool) "4 CUs ~4x" true (speedup > 3.5 && speedup <= 4.1)

let test_estimate_serialisation () =
  let mk serial =
    F.Perf_model.estimate ~total_padded:1_000_000 ~interior:1_000_000 ~fill:0.0
      ~ii:9 ~serial ~cu:1 ~ports:6 ~bytes_per_point:48
      ~clock_hz:F.U280.clock_hz ()
  in
  let e1 = mk 1 and e3 = mk 3 in
  Alcotest.(check (float 1e-6)) "serialisation is linear" 3.0
    (e1.e_mpts /. e3.e_mpts)

let test_estimate_bandwidth_bound () =
  (* 1000 bytes/point through one port cannot stream at II=1 *)
  let e =
    F.Perf_model.estimate ~total_padded:100_000 ~interior:100_000 ~fill:0.0 ~ii:1
      ~serial:1 ~cu:1 ~ports:1 ~bytes_per_point:1000 ~clock_hz:F.U280.clock_hz ()
  in
  Alcotest.(check bool) "flagged" true e.e_bandwidth_bound;
  Alcotest.(check bool) "slower than clock" true
    (e.e_mpts < F.U280.clock_hz /. 1e6)

(* -- resources and power -------------------------------------------------- *)

let test_resources_fit_paper_kernels () =
  List.iter
    (fun (k, grid) ->
      let c = compile k grid in
      let u = F.Resources.of_design c.c_design in
      if not (F.Resources.fits u) then
        Alcotest.failf "%s does not fit the U280" k.k_name)
    [
      (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_8m);
      (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_134m);
      (Shmls_kernels.Tracer_advection.kernel, Shmls_kernels.Tracer_advection.grid_33m);
    ]

let test_resources_scale_with_cu () =
  let c = compile Shmls_kernels.Pw_advection.kernel [ 32; 16; 8 ] in
  let u1 = F.Resources.of_design ~cu:1 c.c_design in
  let u4 = F.Resources.of_design ~cu:4 c.c_design in
  Alcotest.(check int) "luts x4" (4 * u1.r_luts) u4.r_luts;
  Alcotest.(check int) "bram x4" (4 * u1.r_bram) u4.r_bram

let test_resources_big_buffers_in_uram () =
  let c = compile Shmls_kernels.Pw_advection.kernel Shmls_kernels.Pw_advection.grid_8m in
  let u = F.Resources.of_design c.c_design in
  Alcotest.(check bool) "plane buffers in URAM" true (u.r_uram > 0);
  Alcotest.(check bool) "BRAM below device" true (u.r_bram <= F.U280.bram36)

let test_power_activity () =
  let usage =
    { F.Resources.r_luts = 100_000; r_ffs = 150_000; r_bram = 300; r_uram = 50; r_dsps = 200 }
  in
  let busy = F.Power.report ~usage ~activity:1.0 ~bytes_per_second:5e10 ~seconds:1.0 in
  let idle = F.Power.report ~usage ~activity:0.01 ~bytes_per_second:1e8 ~seconds:1.0 in
  Alcotest.(check bool) "busy draws more" true (busy.p_total_w > idle.p_total_w);
  Alcotest.(check bool) "static below both" true
    (idle.p_total_w >= F.U280.static_power_w)

let test_power_energy_is_power_times_time () =
  let usage = { F.Resources.r_luts = 10_000; r_ffs = 10_000; r_bram = 10; r_uram = 0; r_dsps = 10 } in
  let r = F.Power.report ~usage ~activity:0.5 ~bytes_per_second:1e9 ~seconds:2.5 in
  Alcotest.(check (float 1e-9)) "E = P t" (r.p_total_w *. 2.5) r.p_energy_j

(* -- cost records ----------------------------------------------------------- *)

(* Every built-in kernel at a fixed grid: the paper kernels at their
   8M-point sizes, the zoo at its own grids, the didactic kernels at a
   small grid of their rank. *)
let cost_kernels () =
  let small rank = List.filteri (fun i _ -> i < rank) [ 24; 16; 12 ] in
  [
    (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_8m);
    (Shmls_kernels.Tracer_advection.kernel, Shmls_kernels.Tracer_advection.grid_8m);
  ]
  @ Shmls_kernels.Zoo.all
  @ List.map
      (fun (k : Shmls.Ast.kernel) -> (k, small k.k_rank))
      Shmls_kernels.Didactic.all

let cost_variants = [ "full"; "no-split"; "no-pack"; "cu=1" ]

let show_grid g = String.concat "x" (List.map string_of_int g)

let cost_row ~kernel ~grid ~variant ~devices (c : Shmls.Cost_model.t) =
  Printf.sprintf "%s\t%s\t%s\t%d\t%h\t%h\t%d\t%d\t%d\t%d\t%d\t%h" kernel
    (show_grid grid) variant devices c.cycles c.mpts c.lut c.ff c.bram c.uram
    c.dsp c.watts

(* One row per kernel x variant on one device, then heat_3d's slab
   designs priced at 2 and 4 devices through the default link. *)
let cost_rows () =
  let single =
    List.concat_map
      (fun ((k : Shmls.Ast.kernel), grid) ->
        List.map
          (fun v ->
            let c =
              Shmls.compile_cached ~variant:(Shmls.Variant.of_string_exn v) k
                ~grid
            in
            cost_row ~kernel:k.k_name ~grid ~variant:v ~devices:1
              (Shmls.Cost_model.evaluate_design c.c_design))
          cost_variants)
      (cost_kernels ())
  in
  let heat = Shmls_kernels.Didactic.heat_3d in
  let global_grid = [ 32; 12; 8 ] in
  let multi =
    List.concat_map
      (fun devices ->
        List.map
          (fun v ->
            let slab = ((32 + devices - 1) / devices) :: List.tl global_grid in
            let c =
              Shmls.compile_cached ~variant:(Shmls.Variant.of_string_exn v)
                heat ~grid:slab
            in
            cost_row ~kernel:heat.k_name ~grid:global_grid ~variant:v ~devices
              (Shmls.Cost_model.evaluate_multi_device ~devices ~global_grid
                 ~fields:(Shmls.Cost_model.loaded_fields heat)
                 c.c_design))
          cost_variants)
      [ 2; 4 ]
  in
  single @ multi

(* The records were generated before the cost models were folded into
   one evaluation function: every cost figure must stay bit for bit. *)
let test_golden_cost_records () =
  let ic = open_in "golden/cost_records.tsv" in
  let expected =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "cost records" expected (cost_rows ())

(* The Stencil-HMLS flow outcome reports exactly the cost record's
   numbers, at the plan's CU count and at one CU. *)
let test_flow_matches_cost () =
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile_cached k ~grid in
      List.iter
        (fun cu ->
          let cost = Shmls.Cost_model.evaluate_design ?cu c.c_design in
          match Shmls.evaluate_hmls ?cu c with
          | Shmls.Flow.Failure { f_reason; _ } ->
            Alcotest.failf "%s: %s" k.k_name f_reason
          | Shmls.Flow.Success s ->
            let exact what a b =
              if Int64.bits_of_float a <> Int64.bits_of_float b then
                Alcotest.failf "%s %s: flow %h, cost %h" k.k_name what a b
            in
            exact "cycles" s.s_est.e_cycles cost.cycles;
            exact "mpts" s.s_est.e_mpts cost.mpts;
            exact "watts" s.s_power.p_total_w cost.watts;
            Alcotest.(check (list int))
              (k.k_name ^ " usage")
              [ cost.lut; cost.ff; cost.bram; cost.uram; cost.dsp ]
              [
                s.s_usage.r_luts;
                s.s_usage.r_ffs;
                s.s_usage.r_bram;
                s.s_usage.r_uram;
                s.s_usage.r_dsps;
              ])
        [ None; Some 1 ])
    (cost_kernels ())

let test_infeasible_reason () =
  let c =
    Shmls.compile_cached
      ~variant:(Shmls.Variant.of_string_exn "cu=32")
      Shmls_kernels.Pw_advection.kernel ~grid:[ 32; 16; 12 ]
  in
  match Shmls.evaluate_hmls c with
  | Shmls.Flow.Success _ -> Alcotest.fail "32 CUs fit the U280"
  | Shmls.Flow.Failure { f_reason; _ } ->
    Alcotest.(check string)
      "reason"
      "design exceeds the Alveo U280's resources (%LUT 55.55  %FF 44.68  \
       %BRAM 161.90  %URAM 0.00  %DSP 11.70; binding: bram at 162% of the \
       budget)"
      f_reason

let () =
  Alcotest.run "fpga"
    [
      ( "extract",
        [
          Alcotest.test_case "pw structure" `Quick test_extract_structure;
          Alcotest.test_case "topological order" `Quick test_extract_toposort;
          Alcotest.test_case "shift geometry" `Quick test_shift_geometry;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "functional",
        [
          Alcotest.test_case "matches interpreter (all kernels)" `Quick
            test_functional_matches_interpreter_all_kernels;
          qcheck_functional_matches_random;
        ] );
      ( "cycle-sim",
        [
          Alcotest.test_case "balance enlarges chain fifos" `Quick
            test_balance_enlarges_chain_fifos;
          Alcotest.test_case "II ~ 1 on balanced designs" `Quick test_cycle_sim_ii_one;
          Alcotest.test_case "agrees with analytic model" `Quick
            test_cycle_sim_close_to_analytic;
          Alcotest.test_case "unbalanced chains throttle" `Quick
            test_unbalanced_chain_throttles;
        ] );
      ( "perf-model",
        [
          Alcotest.test_case "size scaling" `Quick test_perf_model_scaling;
          Alcotest.test_case "cu scaling" `Quick test_perf_model_cu_scaling;
          Alcotest.test_case "serialisation" `Quick test_estimate_serialisation;
          Alcotest.test_case "bandwidth bound" `Quick test_estimate_bandwidth_bound;
        ] );
      ( "resources-power",
        [
          Alcotest.test_case "paper kernels fit" `Quick test_resources_fit_paper_kernels;
          Alcotest.test_case "scale with CU" `Quick test_resources_scale_with_cu;
          Alcotest.test_case "URAM placement" `Quick test_resources_big_buffers_in_uram;
          Alcotest.test_case "activity model" `Quick test_power_activity;
          Alcotest.test_case "energy identity" `Quick test_power_energy_is_power_times_time;
        ] );
      ( "cost",
        [
          Alcotest.test_case "golden cost records" `Quick test_golden_cost_records;
          Alcotest.test_case "flow outcome matches cost" `Quick
            test_flow_matches_cost;
          Alcotest.test_case "infeasible design reason" `Quick
            test_infeasible_reason;
        ] );
    ]
