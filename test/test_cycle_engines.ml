(* Differential suite: the event-driven cycle simulator must be
   bit-exact against the per-cycle tick oracle ({!Test_common.Tick_oracle},
   every stage fired every cycle) — total cycles, deadlock
   verdicts, per-stage progress, final FIFO occupancy, and the full
   tracer-visible occupancy sequence (fast-forwarded cycles synthesise
   their per-cycle records) — across both paper kernels, every ablation
   variant, and random grids. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module F = Shmls_fpga
module Cs = F.Cycle_sim

let run_both ?(trace = false) (d : F.Design.t) =
  let capture
      (run :
        ?on_cycle:(int -> (int * int) list -> unit) -> F.Design.t -> Cs.result)
      =
    if trace then begin
      let log = ref [] in
      let r = run ~on_cycle:(fun c occs -> log := (c, occs) :: !log) d in
      (r, List.rev !log)
    end
    else (run d, [])
  in
  (capture Test_common.Tick_oracle.run, capture Cs.run)

let check_same ?(trace = false) name (d : F.Design.t) =
  let (t, tlog), (e, elog) = run_both ~trace d in
  Alcotest.(check int) (name ^ ": cycles") t.cycles e.cycles;
  Alcotest.(check bool) (name ^ ": deadlocked") t.deadlocked e.deadlocked;
  Alcotest.(check (option string))
    (name ^ ": stalled stage") t.stalled_stage e.stalled_stage;
  Alcotest.(check (list (triple string int int)))
    (name ^ ": progress") t.progress e.progress;
  Alcotest.(check (list (triple int int int)))
    (name ^ ": fifo occupancy") t.fifo_occupancy e.fifo_occupancy;
  (* fast-forward accounting must cover exactly the simulated total *)
  Alcotest.(check int)
    (name ^ ": event cycle accounting") e.cycles
    (e.cycles_simulated + e.cycles_fast_forwarded);
  Alcotest.(check int)
    (name ^ ": tick never fast-forwards") t.cycles t.cycles_simulated;
  if trace then begin
    Alcotest.(check int)
      (name ^ ": trace length") (List.length tlog) (List.length elog);
    List.iter2
      (fun (tc, toccs) (ec, eoccs) ->
        Alcotest.(check int) (name ^ ": trace cycle") tc ec;
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s: occupancies @%d" name tc)
          toccs eoccs)
      tlog elog
  end

(* the longer grids fill their shift buffers over thousands of cycles,
   so each affine jump covers a long stretch the oracle checks *)
let variant_kernels =
  [
    (Shmls_kernels.Pw_advection.kernel, [ 12; 8; 6 ]);
    (Shmls_kernels.Tracer_advection.kernel, [ 10; 8; 8 ]);
    (Shmls_kernels.Tracer_advection.kernel, [ 24; 16; 12 ]);
  ]

(* both paper kernels x every ablation variant: cycles + final state *)
let test_variants_bit_exact () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let name =
            Printf.sprintf "%s{%s}" k.Shmls.Ast.k_name
              (Shmls.Variant.to_string variant)
          in
          check_same name c.c_design)
        variant_kernels)
    Shmls.Variant.ablation_set

(* the full per-cycle tracer sequence, including serial-retirement
   ordering through the fused no-split stages and cu-phased retirement *)
let test_variants_trace_exact () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let name =
            Printf.sprintf "%s{%s} trace" k.Shmls.Ast.k_name
              (Shmls.Variant.to_string variant)
          in
          check_same ~trace:true name c.c_design)
        [
          (Shmls_kernels.Pw_advection.kernel, [ 8; 6; 6 ]);
          (Shmls_kernels.Tracer_advection.kernel, [ 8; 6; 6 ]);
          (Shmls_kernels.Pw_advection.kernel, [ 32; 24; 16 ]);
        ])
    Shmls.Variant.ablation_set

(* [d] with every compute's II and flop count (so its pipeline latency)
   rebuilt from its ordinal and the old value *)
let keep _ v = v
let pw = Shmls_kernels.Pw_advection.kernel
let ta = Shmls_kernels.Tracer_advection.kernel

let rebuild ~ii ~flops (d : F.Design.t) =
  let i = ref 0 in
  {
    d with
    d_stages =
      List.map
        (function
          | F.Design.Compute c ->
            incr i;
            let ii = ii !i c.ii and flops = flops !i c.flops in
            F.Design.Compute { c with ii; flops }
          | s -> s)
        d.d_stages;
  }

let check_rebuilt name rebuilt designs =
  List.iter
    (fun (k, variant, grid, trace) ->
      let variant = Shmls.Variant.of_string_exn variant in
      let c = Shmls.compile_cached ~variant k ~grid in
      check_same ~trace
        (Printf.sprintf "%s{%s} %s %s" k.Shmls.Ast.k_name
           (Shmls.Variant.to_string variant)
           (String.concat "x" (List.map string_of_int grid))
           name)
        (rebuilt c.c_design))
    designs

(* the compile paths emit only II = 1.  Every compute rebuilt at a
   larger II starts once per II cycles, so the affine phases have
   periods 2, 3 and 5, and at II 9 a period past the longest lag tried:
   the lag screen's start-timing test both accepts and rejects *)
let test_ii_bit_exact () =
  List.iter
    (fun ii ->
      check_rebuilt
        (Printf.sprintf "ii=%d" ii)
        (rebuild ~ii:(fun _ _ -> ii) ~flops:keep)
        [
          (pw, "full", [ 12; 8; 6 ], false);
          (pw, "no-split", [ 12; 8; 6 ], false);
          (ta, "full", [ 10; 8; 8 ], false);
          (ta, "no-split", [ 10; 8; 8 ], false);
          (ta, "full", [ 8; 6; 6 ], true);
        ])
    [ 2; 3; 5; 9 ]

(* unequal latencies on reconverging paths leave tokens parked in the
   short path's FIFOs, so a pipeline drains (or backs up behind a
   slower II) while its consumers still hold work: only the in-flight
   guard bounds those jumps.  A compute at II 9 among II 1 ones blocks
   its producers' retirement while they keep starting, so their
   in-flight queues outgrow their pipelines *)
let test_skewed_bit_exact () =
  List.iter
    (fun (name, rebuilt) ->
      check_rebuilt name rebuilt
        [
          (pw, "full", [ 12; 8; 6 ], true);
          (ta, "full", [ 10; 8; 8 ], false);
          (ta, "full", [ 8; 6; 6 ], true);
        ])
    [
      ("latencies 8-107", rebuild ~ii:keep ~flops:(fun i _ -> i * 37 mod 100));
      ( "every other latency +90",
        rebuild ~ii:keep ~flops:(fun i v -> if i mod 2 = 0 then v + 90 else v)
      );
      ("II 1-3", rebuild ~ii:(fun i _ -> 1 + (i mod 3)) ~flops:keep);
      ( "compute 3 at II 9",
        rebuild ~ii:(fun i _ -> if i = 3 then 9 else 1) ~flops:keep );
    ]

(* a converging chain with unbalanced FIFO depths throttles or wedges;
   both engines must agree on the verdict and the blamed stage *)
let test_unbalanced_chain_bit_exact () =
  let l = Shmls_frontend.Lower.lower H.chain_3d ~grid:[ 10; 8; 8 ] in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  let m_hls, _ = Shmls_transforms.Stencil_to_hls.run l.l_module in
  let d = List.hd (F.Extract.extract_module m_hls) in
  check_same "unbalanced chain" d;
  check_same "balanced chain" (F.Depth_balance.balance_and_reextract d)

(* the fast-forward must actually engage on the paper kernels: nearly
   everything is covered in closed form.  At the five paper_eval
   configurations and both no-split designs at 256x256x128 the measured
   cycles, the detected period and a stepped-cycle budget are pinned:
   fill, drain and filling or draining compute pipelines jump too, so
   only the cycles between affine phases are stepped.  A budget is the
   count measured when it was set; it may only be tightened *)
let test_steady_state_detected () =
  let module PW = Shmls_kernels.Pw_advection in
  let module TA = Shmls_kernels.Tracer_advection in
  let pw = PW.kernel and ta = TA.kernel in
  List.iter
    (fun (k, variant, grid, pinned) ->
      let variant = Shmls.Variant.of_string_exn variant in
      let c = Shmls.compile_cached ~variant k ~grid in
      let r = Cs.run c.c_design in
      let name =
        Printf.sprintf "%s{%s} %s" k.Shmls.Ast.k_name
          (Shmls.Variant.to_string variant)
          (String.concat "x" (List.map string_of_int grid))
      in
      Alcotest.(check bool) (name ^ ": not deadlocked") false r.deadlocked;
      (match r.ss_period with
      | None -> Alcotest.failf "%s: no steady-state period detected" name
      | Some (p, w) ->
        Alcotest.(check bool) (name ^ ": period sane") true (p >= 1 && p <= 8);
        Alcotest.(check bool) (name ^ ": writes per period positive") true
          (w >= 1));
      let ff_share =
        float_of_int r.cycles_fast_forwarded /. float_of_int r.cycles
      in
      if ff_share < 0.5 then
        Alcotest.failf "%s: only %.0f%% of cycles fast-forwarded" name
          (100.0 *. ff_share);
      match pinned with
      | None -> ()
      | Some (cycles, period, max_stepped) ->
        Alcotest.(check int) (name ^ ": cycles") cycles r.cycles;
        Alcotest.(check (option (pair int int)))
          (name ^ ": period") (Some period) r.ss_period;
        if r.cycles_simulated > max_stepped then
          Alcotest.failf "%s: %d cycles stepped (budget %d)" name
            r.cycles_simulated max_stepped)
    [
      (pw, "full", [ 16; 12; 10 ], None);
      (ta, "full", [ 12; 10; 8 ], None);
      (pw, "full", PW.grid_8m, Some (8_687_020, (1, 3), 9));
      (pw, "full", PW.grid_32m, Some (34_445_740, (1, 3), 9));
      (pw, "full", PW.grid_134m, Some (137_480_620, (1, 3), 9));
      (ta, "full", TA.grid_8m, Some (9_299_769, (1, 6), 76));
      (ta, "full", TA.grid_33m, Some (36_874_041, (1, 6), 76));
      (pw, "no-split", [ 256; 256; 128 ], Some (25_960_031, (1, 1), 6));
      (ta, "no-split", [ 256; 256; 128 ], Some (55_579_937, (1, 1), 9));
    ]

(* the perf model's fill/steady split, cross-checked against the event
   engine's detected period on both paper kernels: the model's fill
   estimate must stay within the tuner's default tolerance of the fill
   the measured run implies (measured cycles minus the steady span) *)
let test_fill_steady_check () =
  List.iter
    (fun (k, grid) ->
      let c = Shmls.compile_cached k ~grid in
      let r = Cs.run c.c_design in
      match F.Perf_model.check_fill_steady c.c_design r with
      | None ->
        Alcotest.failf "%s: no fill/steady cross-check (period undetected)"
          k.Shmls.Ast.k_name
      | Some fs ->
        Alcotest.(check bool)
          (k.Shmls.Ast.k_name ^ ": steady span within the run") true
          (fs.F.Perf_model.fs_measured_steady > 0.0
          && fs.F.Perf_model.fs_measured_steady
             <= float_of_int r.cycles);
        if fs.F.Perf_model.fs_divergence > 0.10 then
          Alcotest.failf
            "%s: fill model diverges %.1f%% of the run (model %.0f vs \
             measured %.0f)"
            k.Shmls.Ast.k_name
            (100.0 *. fs.F.Perf_model.fs_divergence)
            fs.F.Perf_model.fs_model_fill fs.F.Perf_model.fs_measured_fill)
    [
      (Shmls_kernels.Pw_advection.kernel, [ 16; 12; 10 ]);
      (Shmls_kernels.Tracer_advection.kernel, [ 12; 10; 8 ]);
    ]

(* random grids: totals and final state agree everywhere *)
let qcheck_random_grids =
  let gen =
    QCheck2.Gen.(
      triple (int_range 4 14) (int_range 4 12) (int_range 4 10))
  in
  H.qtest ~count:20 "event = tick on random grids" gen (fun (x, y, z) ->
      List.iter
        (fun k ->
          let c = Shmls.compile_cached k ~grid:[ x; y; z ] in
          check_same
            (Printf.sprintf "%s %dx%dx%d" k.Shmls.Ast.k_name x y z)
            c.c_design)
        [ Shmls_kernels.Pw_advection.kernel; Shmls_kernels.Tracer_advection.kernel ];
      true)

let () =
  Alcotest.run "cycle_engines"
    [
      ( "differential",
        [
          Alcotest.test_case "variants bit-exact" `Quick test_variants_bit_exact;
          Alcotest.test_case "variant traces bit-exact" `Quick
            test_variants_trace_exact;
          Alcotest.test_case "unbalanced chain bit-exact" `Quick
            test_unbalanced_chain_bit_exact;
          Alcotest.test_case "II > 1 bit-exact" `Quick test_ii_bit_exact;
          Alcotest.test_case "skewed pipelines bit-exact" `Quick
            test_skewed_bit_exact;
          qcheck_random_grids;
        ] );
      ( "steady state",
        [
          Alcotest.test_case "detected on paper kernels" `Quick
            test_steady_state_detected;
          Alcotest.test_case "fill model vs measured fill" `Quick
            test_fill_steady_check;
        ] );
    ]
