(* End-to-end pipeline tests: compile -> verify -> simulate for every
   kernel, the paper's structural claims, and random-kernel property
   tests over the whole stack. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

let test_all_kernels_bit_exact () =
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile k ~grid in
      let v = Shmls.verify c in
      if v.v_max_diff <> 0.0 then
        Alcotest.failf "%s: max diff %g (expected bit-exact)" k.k_name v.v_max_diff)
    H.all_test_kernels

let test_pw_structural_claims () =
  (* the numbers the paper's own accounting uses *)
  let k = PW.kernel in
  Alcotest.(check int) "3 stencil computations" 3 (List.length k.k_stencils);
  Alcotest.(check int) "6 field arguments" 6 (List.length k.k_fields);
  let c = Shmls.compile k ~grid:PW.grid_small in
  Alcotest.(check int) "7 ports per CU" 7 c.c_ports_per_cu;
  Alcotest.(check int) "4 CUs" 4 c.c_cu;
  (* the paper's speedup decomposition: 4 (CU) x 9 (II) x 3 (split) = 108 *)
  Alcotest.(check int) "decomposition" 108 (4 * 9 * 3)

let test_tracer_structural_claims () =
  let k = TA.kernel in
  Alcotest.(check int) "24 stencil computations" 24 (List.length k.k_stencils);
  Alcotest.(check int) "17 memory arguments" 17 TA.n_args;
  let c = Shmls.compile k ~grid:TA.grid_small in
  Alcotest.(check int) "17 ports per CU" 17 c.c_ports_per_cu;
  Alcotest.(check int) "1 CU" 1 c.c_cu

let test_grid_sizes_match_paper () =
  let points g = List.fold_left ( * ) 1 g in
  let mpoints g = float_of_int (points g) /. 1e6 in
  Alcotest.(check bool) "PW 8M" true (Float.abs (mpoints PW.grid_8m -. 8.4) < 0.5);
  Alcotest.(check bool) "PW 32M" true (Float.abs (mpoints PW.grid_32m -. 33.6) < 2.0);
  Alcotest.(check bool) "PW 134M" true (Float.abs (mpoints PW.grid_134m -. 134.2) < 5.0);
  Alcotest.(check bool) "tracer 33M" true
    (Float.abs (mpoints TA.grid_33m -. 33.6) < 2.0);
  (* all sizes fit the U280's 8 GB of HBM *)
  List.iter
    (fun (k, g) ->
      let fields = List.length (k : Shmls.Ast.kernel).k_fields in
      let bytes = fields * 8 * points g in
      Alcotest.(check bool) "fits HBM" true (bytes < Shmls.U280.hbm_bytes))
    [ (PW.kernel, PW.grid_134m); (TA.kernel, TA.grid_33m) ]

(* The design [Shmls.compile] builds, minus [Depth_balance]: the same
   lowering, shape inference, apply split and nine HLS steps, then a
   bare extraction. *)
let unbalanced_design (kernel : Shmls.Ast.kernel) ~grid =
  let lowered = Shmls.Lower.lower kernel ~grid in
  Shmls_transforms.Shape_inference.run_on_module lowered.l_module;
  ignore (Shmls_transforms.Apply_split.run_on_module lowered.l_module);
  Shmls.Verifier.verify_exn lowered.l_module;
  let hls_module, plans, _ =
    Shmls_transforms.Stencil_to_hls.run_with_stats
      ~variant:Shmls.Variant.default lowered.l_module
  in
  Shmls.Verifier.verify_exn hls_module;
  match plans with
  | [ (_, func) ] -> Shmls_fpga.Extract.extract func
  | _ -> Alcotest.fail "expected exactly one kernel function"

let test_compile_without_balancing_flag () =
  let design = unbalanced_design H.avg_1d ~grid:[ 16 ] in
  (* skew-free kernels work even without balancing *)
  let r = Shmls.Cycle_sim.run design in
  Alcotest.(check bool) "no deadlock on skew-free kernel" true (not r.deadlocked)

let test_artefacts_nonempty () =
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  Alcotest.(check bool) "stencil text" true
    (String.length (Shmls.emit_stencil_text c) > 100);
  Alcotest.(check bool) "hls text" true (String.length (Shmls.emit_hls_text c) > 100);
  Alcotest.(check bool) "llvm text" true (String.length (Shmls.emit_llvm_text c) > 100);
  Alcotest.(check bool) "connectivity" true (String.length c.c_connectivity > 10)

let test_seeds_vary_data () =
  let c = Shmls.compile H.avg_1d ~grid:[ 16 ] in
  let v1 = Shmls.verify ~seed:1 c in
  let v2 = Shmls.verify ~seed:2 c in
  Alcotest.(check (float 0.0)) "seed 1 exact" 0.0 v1.v_max_diff;
  Alcotest.(check (float 0.0)) "seed 2 exact" 0.0 v2.v_max_diff

let test_inout_kernel_through_hls () =
  (* in-place kernels keep gather semantics on the FPGA path: the load
     stage streams the whole field before write_data lands a value *)
  let open Shmls_frontend.Ast in
  let k =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "inplace";
      k_rank = 1;
      k_fields = [ { fd_name = "a"; fd_role = Inout } ];
      k_smalls = [];
      k_params = [];
      k_stencils =
        [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "a"; sd_expr = fld "a" [ -1 ] +: fld "a" [ 1 ] } ];
    }
  in
  let c = Shmls.compile k ~grid:[ 16 ] in
  Alcotest.(check int) "one port for the inout field" 1 c.c_ports_per_cu;
  let v = Shmls.verify c in
  Alcotest.(check (float 0.0)) "bit-exact" 0.0 v.v_max_diff

let test_output_read_after_write () =
  (* an output field may feed a later stencil; the HLS path routes the
     producer's stream to both the consumer and write_data *)
  let open Shmls_frontend.Ast in
  let k =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "raw";
      k_rank = 2;
      k_fields =
        [
          { fd_name = "src"; fd_role = Input };
          { fd_name = "mid_out"; fd_role = Output };
          { fd_name = "final"; fd_role = Output };
        ];
      k_smalls = [];
      k_params = [];
      k_stencils =
        [
          {
            sd_loc = Shmls_support.Loc.unknown;
            sd_target = "mid_out";
            sd_expr = const 0.5 *: (fld "src" [ -1; 0 ] +: fld "src" [ 1; 0 ]);
          };
          {
            sd_loc = Shmls_support.Loc.unknown;
            sd_target = "final";
            sd_expr = fld "mid_out" [ 0; -1 ] +: fld "mid_out" [ 0; 1 ];
          };
        ];
    }
  in
  let c = Shmls.compile k ~grid:[ 12; 10 ] in
  let v = Shmls.verify c in
  Alcotest.(check (float 0.0)) "bit-exact" 0.0 v.v_max_diff

let qcheck_pipeline_random_kernels =
  H.qtest ~count:25 "full pipeline is bit-exact on random kernels" H.gen_kernel
    (fun k ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let c = Shmls.compile k ~grid:(H.small_grid k.k_rank) in
        let v = Shmls.verify c in
        v.v_max_diff = 0.0)

let qcheck_cycle_sim_never_deadlocks_after_balancing =
  H.qtest ~count:15 "balanced designs never deadlock" H.gen_kernel (fun k ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let c = Shmls.compile k ~grid:(H.small_grid k.k_rank) in
        let r = Shmls.Cycle_sim.run c.c_design in
        not r.deadlocked)

let () =
  Alcotest.run "e2e"
    [
      ( "pipeline",
        [
          Alcotest.test_case "all kernels bit-exact" `Quick test_all_kernels_bit_exact;
          Alcotest.test_case "artefacts non-empty" `Quick test_artefacts_nonempty;
          Alcotest.test_case "seeds vary data" `Quick test_seeds_vary_data;
          Alcotest.test_case "balancing flag" `Quick test_compile_without_balancing_flag;
          Alcotest.test_case "inout kernel through HLS" `Quick
            test_inout_kernel_through_hls;
          Alcotest.test_case "output read after write" `Quick
            test_output_read_after_write;
          qcheck_pipeline_random_kernels;
          qcheck_cycle_sim_never_deadlocks_after_balancing;
        ] );
      ( "paper-claims",
        [
          Alcotest.test_case "PW structure" `Quick test_pw_structural_claims;
          Alcotest.test_case "tracer structure" `Quick test_tracer_structural_claims;
          Alcotest.test_case "grid sizes" `Quick test_grid_sizes_match_paper;
        ] );
    ]
