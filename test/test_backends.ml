(* Tests for the alternative backend (CIRCT lowering, the paper's
   further-work item 1), domain decomposition, the one-device host path,
   occupancy tracing and the synthesis report. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Circt = Shmls_circt.Circt

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* -- CIRCT ---------------------------------------------------------------- *)

let test_circt_structure () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 12; 8; 6 ] in
  let circuit = Circt.build c.c_design in
  let externs, instances, buffers = Circt.stats circuit in
  Alcotest.(check int) "one instance per stage" (List.length c.c_design.d_stages)
    instances;
  Alcotest.(check bool) "extern stage library" true (externs >= 4);
  Alcotest.(check int) "one buffer per stream"
    (List.length c.c_design.d_streams)
    buffers

let test_circt_emission () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 12; 8; 6 ] in
  let text = Shmls.emit_circt_text c in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains ~needle text))
    [
      "hw.module @pw_advection";
      "hw.module.extern @load_data";
      "hw.module.extern @shift_buffer_nb27";
      "hw.module.extern @write_data";
      "!esi.channel<f64>";
      "!esi.channel<!hw.array<27xf64>>";
      "!esi.channel<i512>";
      "esi.buffer";
      "hw.instance \"compute_t0\"";
      "hw.output";
    ]

let test_circt_deterministic () =
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  Alcotest.(check string) "same text twice" (Shmls.emit_circt_text c)
    (Shmls.emit_circt_text c)

let test_circt_all_kernels () =
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile k ~grid in
      let text = Shmls.emit_circt_text c in
      Alcotest.(check bool) (k.k_name ^ " emits") true (String.length text > 100);
      Alcotest.(check bool)
        (k.k_name ^ " has its module")
        true
        (contains ~needle:("hw.module @" ^ k.k_name) text))
    H.all_test_kernels

let test_circt_depths_survive () =
  (* the balanced FIFO depths must surface in the esi.buffer stages *)
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  let deepest =
    List.fold_left
      (fun acc (s : Shmls.Design.stream) -> max acc s.st_depth)
      0 c.c_design.d_streams
  in
  let text = Shmls.emit_circt_text c in
  Alcotest.(check bool) "deep buffer in the netlist" true
    (contains ~needle:(Printf.sprintf "{depth = %d}" deepest) text)

(* -- domain decomposition ---------------------------------------------- *)

module MD = Shmls_host.Multi_device

(* The host path on one device, checked against an interpreter run built
   here from the same seed and parameter values (not through
   MD.reference), so the host's seeding and parameter plumbing are
   checked too. *)
let test_host_run_matches_interpreter () =
  let k = H.chain_3d in
  let grid = [ 8; 6; 6 ] in
  let p = MD.plan k ~grid ~devices:1 in
  let r = MD.run ~seed:7 ~params:[ ("alpha", 0.1) ] p in
  let c = Shmls.compile k ~grid in
  let ref_state = Shmls.Interp.alloc_state ~seed:7 c.c_lowered in
  let ref_state =
    { ref_state with Shmls.Interp.params = [ ("alpha", 0.1) ] }
  in
  ignore
    (Shmls.Interp.run_func c.c_lowered.l_func
       ~args:(Shmls.Interp.state_args ref_state));
  let interior = Shmls.Ty.make_bounds ~lb:[ 0; 0; 0 ] ~ub:grid in
  let outputs =
    List.filter
      (fun (fd : Shmls.Ast.field_decl) -> fd.fd_role = Shmls.Ast.Output)
      k.k_fields
  in
  Alcotest.(check bool) "kernel has outputs" true (outputs <> []);
  List.iter
    (fun (fd : Shmls.Ast.field_decl) ->
      let got = List.assoc fd.fd_name r.rr_outputs in
      let ref_grid = List.assoc fd.fd_name ref_state.fields in
      let d = Shmls.Grid.max_abs_diff_on interior ref_grid got in
      if d <> 0.0 then
        Alcotest.failf "host run of %s differs by %g" fd.fd_name d)
    outputs

let test_partition_bit_exact () =
  List.iter
    (fun slabs ->
      let p =
        MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 16; 8; 6 ] ~devices:slabs
      in
      let v = MD.verify_vs_reference ~params:[ ("alpha", 0.05) ] p in
      if v.v_max_diff <> 0.0 then
        Alcotest.failf "%d slabs: diff %g" slabs v.v_max_diff)
    [ 1; 2; 3; 4 ]

let test_partition_pw_advection () =
  let p =
    MD.plan Shmls_kernels.Pw_advection.kernel ~grid:[ 24; 10; 8 ] ~devices:3
  in
  let v = MD.verify_vs_reference ~params:[ ("tcx", 0.12); ("tcy", 0.09) ] p in
  Alcotest.(check (float 0.0)) "pw partitioned" 0.0 v.v_max_diff

let test_partition_scales () =
  (* big enough along dim 0 that compute dominates the fixed fill *)
  let mpts slabs =
    let p =
      MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 96; 8; 6 ] ~devices:slabs
    in
    MD.aggregate_mpts p (MD.estimate p)
  in
  let m1 = mpts 1 and m4 = mpts 4 in
  Alcotest.(check bool) "4 devices faster" true (m4 > 2.0 *. m1)

let test_partition_rejects_oversplit () =
  match MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 4; 6; 6 ] ~devices:8 with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "more slabs than rows must be rejected"

(* -- occupancy tracing ------------------------------------------------------ *)

let test_trace_capture () =
  let c = Shmls.compile H.chain_3d ~grid:[ 8; 6; 6 ] in
  let result, t = Shmls.Trace.capture ~every:8 c.c_design in
  Alcotest.(check bool) "completed" true (not result.deadlocked);
  Alcotest.(check bool) "samples collected" true (List.length t.tr_samples > 5);
  let csv = Shmls.Trace.to_csv t in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 0 && String.sub csv 0 6 = "cycle,");
  Alcotest.(check int) "one line per sample + header"
    (List.length t.tr_samples + 1)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)));
  let ascii = Shmls.Trace.to_ascii t c.c_design in
  Alcotest.(check int) "one row per stream"
    (List.length c.c_design.d_streams)
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' ascii)))

(* -- synthesis report ------------------------------------------------------ *)

let test_report_contents () =
  let c = Shmls.compile Shmls_kernels.Pw_advection.kernel ~grid:[ 16; 8; 6 ] in
  let text = Shmls.report_text c in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle text))
    [
      "Synthesis report: kernel 'pw_advection'";
      "initiation interval : 1";
      "load_data";
      "shift_buffer";
      "write_data";
      "Utilisation";
      "HBM[";
      "shared small-data";
    ]

let () =
  Alcotest.run "backends"
    [
      ( "circt",
        [
          Alcotest.test_case "structure" `Quick test_circt_structure;
          Alcotest.test_case "emission" `Quick test_circt_emission;
          Alcotest.test_case "deterministic" `Quick test_circt_deterministic;
          Alcotest.test_case "all kernels" `Quick test_circt_all_kernels;
          Alcotest.test_case "balanced depths survive" `Quick
            test_circt_depths_survive;
        ] );
      ( "partition",
        [
          Alcotest.test_case "bit-exact at 1-4 slabs" `Quick test_partition_bit_exact;
          Alcotest.test_case "PW advection partitioned" `Quick
            test_partition_pw_advection;
          Alcotest.test_case "aggregate throughput scales" `Quick
            test_partition_scales;
          Alcotest.test_case "rejects oversplitting" `Quick
            test_partition_rejects_oversplit;
        ] );
      ("report", [ Alcotest.test_case "contents" `Quick test_report_contents ]);
      ("trace", [ Alcotest.test_case "capture + export" `Quick test_trace_capture ]);
      ( "host",
        [
          Alcotest.test_case "run matches interpreter" `Quick
            test_host_run_matches_interpreter;
        ] );
    ]
