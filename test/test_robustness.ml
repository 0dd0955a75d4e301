(* Robustness and failure-injection tests: malformed inputs raise typed
   errors (never crash), mis-wired designs are detected, and the models
   behave monotonically. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module F = Shmls_fpga

(* -- psy parser never escapes Parse_error ---------------------------------- *)

let gen_garbage =
  QCheck2.Gen.(
    let token =
      oneofl
        [
          "kernel"; "rank"; "input"; "output"; "small"; "param"; "end"; "=";
          "+"; "-"; "*"; "/"; "("; ")"; "["; "]"; ","; "a"; "b1"; "3"; "0.5";
          "min"; "abs"; "!"; "axis";
        ]
    in
    let* n = int_range 0 40 in
    let* toks = list_repeat n token in
    let* newlines = list_repeat n (oneofl [ " "; "\n" ]) in
    return (String.concat "" (List.concat (List.map2 (fun t s -> [ t; s ]) toks newlines))))

let qcheck_psy_parser_total =
  H.qtest ~count:300 "psy parser: Parse_error or kernel, never a crash"
    gen_garbage (fun src ->
      match Shmls_frontend.Psy_parser.parse src with
      | _ -> true
      | exception Shmls_frontend.Psy_parser.Parse_error _ -> true)

(* -- IR parser never escapes Err.Error -------------------------------------- *)

let gen_ir_garbage =
  QCheck2.Gen.(
    let token =
      oneofl
        [
          "\"builtin.module\""; "\"arith.addf\""; "("; ")"; "{"; "}"; "%0";
          "%1"; "="; ":"; "->"; "f64"; "index"; ","; "<["; "]>"; "1"; "-2";
          "0.5"; "@f"; "^bb0"; "memref"; "x";
        ]
    in
    let* n = int_range 0 30 in
    let* toks = list_repeat n token in
    return (String.concat " " toks))

let qcheck_ir_parser_total =
  H.qtest ~count:300 "IR parser: Err.Error or module, never a crash"
    gen_ir_garbage (fun src ->
      match Shmls_ir.Parser.parse_module src with
      | _ -> true
      | exception Shmls_support.Err.Error _ -> true)

(* -- functional simulator detects mis-wired designs -------------------------- *)

let run_batched d ~args =
  F.Stage_compiler.run (F.Stage_compiler.compile_batched d) ~args

let sabotaged_design () =
  let c = Shmls.compile H.avg_1d ~grid:[ 12 ] in
  let d = c.c_design in
  (* drop the write stage: load/shift/compute still fill streams which
     are then never drained *)
  {
    d with
    Shmls.Design.d_stages =
      List.filter
        (fun s -> match s with Shmls.Design.Write _ -> false | _ -> true)
        d.d_stages;
  }

let test_functional_detects_undrained () =
  let d = sabotaged_design () in
  let st = Shmls.Interp.alloc_state (Shmls.compile H.avg_1d ~grid:[ 12 ]).c_lowered in
  let args =
    List.map (fun (_, g) -> F.Functional.Ptr (g.Shmls.Grid.data, 0)) st.fields
    |> Array.of_list
  in
  match run_batched d ~args with
  | exception Shmls_support.Err.Error _ -> ()
  | () -> Alcotest.fail "undrained streams must be reported"

let test_functional_detects_starved_read () =
  let c = Shmls.compile H.avg_1d ~grid:[ 12 ] in
  let d = c.c_design in
  (* drop the load stage: the shift buffer reads an empty stream *)
  let d =
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s -> match s with Shmls.Design.Load _ -> false | _ -> true)
          d.d_stages;
    }
  in
  let st = Shmls.Interp.alloc_state c.c_lowered in
  let args =
    List.map (fun (_, g) -> F.Functional.Ptr (g.Shmls.Grid.data, 0)) st.fields
    |> Array.of_list
  in
  match run_batched d ~args with
  | exception Shmls_support.Err.Error _ -> ()
  | () -> Alcotest.fail "reads from an unfed stream must be reported"

let test_cycle_sim_rejects_writeless_design () =
  let d = sabotaged_design () in
  (* a design with no write stage has no completion criterion: rejected *)
  match F.Cycle_sim.run d with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "write-less design must be rejected"

(* -- model monotonicity -------------------------------------------------- *)

let test_estimate_monotone_in_ii () =
  let mk ii =
    F.Perf_model.estimate ~total_padded:1_000_000 ~interior:1_000_000 ~fill:0.0
      ~ii ~serial:1 ~cu:1 ~ports:4 ~bytes_per_point:32
      ~clock_hz:F.U280.clock_hz ()
  in
  let prev = ref (mk 1).e_mpts in
  List.iter
    (fun ii ->
      let m = (mk ii).e_mpts in
      Alcotest.(check bool)
        (Printf.sprintf "II %d slower than previous" ii)
        true (m < !prev);
      prev := m)
    [ 2; 4; 9; 50; 163 ]

let qcheck_more_cus_never_slower =
  H.qtest ~count:30 "more CUs never slower (analytic)"
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (cu1, cu2) ->
      let c = Shmls.compile Shmls_kernels.Didactic.heat_3d ~grid:[ 16; 8; 8 ] in
      let est cu = (F.Perf_model.estimate_design ~cu c.c_design).e_mpts in
      if cu1 <= cu2 then est cu1 <= est cu2 +. 1e-9 else est cu2 <= est cu1 +. 1e-9)

let test_depth_balance_idempotent () =
  let l = Shmls_frontend.Lower.lower H.chain_3d ~grid:[ 8; 6; 6 ] in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  let m_hls, _ = Shmls_transforms.Stencil_to_hls.run l.l_module in
  let d = List.hd (F.Extract.extract_module m_hls) in
  let first = F.Depth_balance.balance d in
  Alcotest.(check bool) "first pass changes" true (first > 0);
  let d2 = F.Extract.extract d.d_func in
  Alcotest.(check int) "second pass is a no-op" 0 (F.Depth_balance.balance d2)

(* -- power model sanity --------------------------------------------------- *)

let test_power_bounds () =
  (* even a fully-lit U280 should stay within a plausible card envelope *)
  let full =
    {
      Shmls.Resources.r_luts = F.U280.luts;
      r_ffs = F.U280.ffs;
      r_bram = F.U280.bram36;
      r_uram = F.U280.uram;
      r_dsps = F.U280.dsps;
    }
  in
  let r =
    Shmls.Power.report ~usage:full ~activity:1.0 ~bytes_per_second:4.6e11
      ~seconds:1.0
  in
  Alcotest.(check bool) "above static" true (r.p_total_w > F.U280.static_power_w);
  Alcotest.(check bool) "below 225 W card limit" true (r.p_total_w < 225.0)

let () =
  Alcotest.run "robustness"
    [
      ( "total-parsers",
        [ qcheck_psy_parser_total; qcheck_ir_parser_total ] );
      ( "failure-injection",
        [
          Alcotest.test_case "functional: undrained streams" `Quick
            test_functional_detects_undrained;
          Alcotest.test_case "functional: starved reads" `Quick
            test_functional_detects_starved_read;
          Alcotest.test_case "cycle sim rejects write-less designs" `Quick
            test_cycle_sim_rejects_writeless_design;
        ] );
      ( "monotonicity",
        [
          Alcotest.test_case "mpts falls with II" `Quick test_estimate_monotone_in_ii;
          qcheck_more_cus_never_slower;
          Alcotest.test_case "depth balance idempotent" `Quick
            test_depth_balance_idempotent;
        ] );
      ("power", [ Alcotest.test_case "envelope bounds" `Quick test_power_bounds ]);
    ]
