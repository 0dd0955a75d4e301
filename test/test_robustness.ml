(* Robustness and failure-injection tests: malformed inputs raise typed
   errors (never crash), mis-wired designs are detected, and the models
   behave monotonically. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module F = Shmls_fpga

(* -- psy parser never escapes a located Err.Error -------------------------- *)

let gen_garbage =
  QCheck2.Gen.(
    let token =
      oneofl
        [
          "kernel"; "rank"; "input"; "output"; "small"; "param"; "end"; "=";
          "+"; "-"; "*"; "/"; "("; ")"; "["; "]"; ","; "a"; "b1"; "3"; "0.5";
          "min"; "abs"; "!"; "axis"; "."; "1e"; "99999999999999999999";
        ]
    in
    let* n = int_range 0 40 in
    let* toks = list_repeat n token in
    let* newlines = list_repeat n (oneofl [ " "; "\n" ]) in
    return (String.concat "" (List.concat (List.map2 (fun t s -> [ t; s ]) toks newlines))))

let qcheck_psy_parser_total =
  H.qtest ~count:300 "psy parser: Err.Error or kernel, never a crash"
    gen_garbage (fun src ->
      match Shmls_frontend.Psy_parser.parse src with
      | _ -> true
      | exception Shmls_support.Err.Error e ->
        Shmls_support.Loc.resolve e.d_loc <> None)

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

let run_design d ~args =
  F.Stage_compiler.run (F.Stage_compiler.compile d) ~args

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
  match run_design d ~args:(Shmls.state_args st) with
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
  match run_design d ~args:(Shmls.state_args st) with
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

(* -- kernel/grid rank mismatch --------------------------------------------- *)

(* A sweep row whose grid rank differs from the kernel's fails every flow
   with a reason naming the mismatch, instead of escaping as an
   Invalid_argument from a baseline's halo arithmetic. *)
let test_sweep_rank_mismatch () =
  match
    Shmls.sweep ~jobs:1 ~verify_designs:true
      [ (Shmls_kernels.Didactic.heat_3d, [ 32; 16 ]) ]
  with
  | [ (outcomes, verification) ] ->
    Alcotest.(check (list string))
      "every flow reported"
      [ "Stencil-HMLS"; "DaCe"; "SODA-opt"; "Vitis HLS"; "StencilFlow" ]
      (List.map Shmls.Flow.flow_name outcomes);
    List.iter
      (function
        | Shmls.Flow.Failure f ->
          Alcotest.(check string)
            (f.f_flow ^ " reason")
            "kernel heat_3d has rank 3 but the grid 32x16 has rank 2" f.f_reason
        | Shmls.Flow.Success s -> Alcotest.failf "%s succeeded" s.s_flow)
      outcomes;
    Alcotest.(check bool) "no verification" true (Option.is_none verification)
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

(* -- out-of-range link bandwidths ------------------------------------------- *)

(* A bandwidth whose bytes-per-cycle rate is subnormal (or infinite)
   would make every exchange time inf or nan: the parser rejects it. *)
let test_link_rejects_subnormal_rate () =
  List.iter
    (fun spec ->
      match F.Link.of_string spec with
      | Error _ -> ()
      | Ok l -> Alcotest.failf "%S parsed as %s" spec (F.Link.to_string l))
    [ "1e-320"; "1e-320@10"; "inf"; "nan"; "0"; "-5" ];
  Alcotest.(check bool) "tiny but normal rate accepted" true
    (Result.is_ok (F.Link.of_string "1e-300"))

(* A link slow enough to push the ensemble makespan past the int range
   fails the search with an error naming the point, instead of writing
   an overflowed measured cycle count. *)
let test_tune_rejects_overflowing_makespan () =
  let link = Result.get_ok (F.Link.of_string "1e-300") in
  match
    Shmls_tune.Tune.run ~max_cu:1 ~jobs:1 ~devices:[ 1; 2 ] ~link
      Shmls_kernels.Didactic.heat_3d ~grids:[ [ 48; 8; 6 ] ]
  with
  | _ -> Alcotest.fail "tune accepted an overflowing makespan"
  | exception Shmls_support.Err.Error e ->
    Alcotest.(check string)
      "located, names the point"
      "lib/kernels/didactic.ml:53:24: error: tune: design full on 48x8x6 at \
       2 device(s) has an ensemble makespan of 1.536e+303 cycles, beyond the \
       cycle counter (link 1e-300@250)"
      (Shmls_support.Err.to_string e)

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
      ( "rank-mismatch",
        [
          Alcotest.test_case "sweep fails every flow" `Quick
            test_sweep_rank_mismatch;
        ] );
      ( "link-bandwidth",
        [
          Alcotest.test_case "subnormal rates rejected" `Quick
            test_link_rejects_subnormal_rate;
          Alcotest.test_case "tune: makespan beyond int" `Quick
            test_tune_rejects_overflowing_makespan;
        ] );
      ("power", [ Alcotest.test_case "envelope bounds" `Quick test_power_bounds ]);
    ]
