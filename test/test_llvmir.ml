(* LLVM-IR emission and f++ tests: the paper's stream-legality
   conditions, marker-function encoding, outlined dataflow stages, loop
   metadata and the connectivity configuration. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Ll = Shmls_llvmir.Ll
module Emit = Shmls_llvmir.Emit
module Fpp = Shmls_llvmir.Fplusplus

let hls_module k grid =
  let l = Shmls_frontend.Lower.lower k ~grid in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  fst (Shmls_transforms.Stencil_to_hls.run l.l_module)

let emit k grid = Emit.emit_module (hls_module k grid)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let count_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* -- emission ------------------------------------------------------------ *)

let test_stream_legality_conditions () =
  (* paper 3.2: a stream is a pointer to a struct, with
     @llvm.fpga.set.stream.depth called on its first element *)
  let text = Ll.to_string (emit H.avg_1d [ 16 ]) in
  Alcotest.(check bool) "struct-wrapped stream" true
    (contains ~needle:"alloca { double }" text);
  Alcotest.(check bool) "gep to first element" true
    (contains ~needle:"getelementptr { double }" text);
  Alcotest.(check bool) "set.stream.depth intrinsic" true
    (contains ~needle:"call void @llvm.fpga.set.stream.depth" text)

let test_packed_interface_types () =
  let text = Ll.to_string (emit H.avg_1d [ 16 ]) in
  (* step 2's 512-bit packed pointers appear in the kernel signature *)
  Alcotest.(check bool) "packed pointer arg" true
    (contains ~needle:"{ [8 x double] }* %arg0" text)

let test_markers_before_fpp () =
  let m = emit H.avg_1d [ 16 ] in
  Alcotest.(check bool) "markers present" true (Fpp.remaining_markers m > 0);
  let text = Ll.to_string m in
  Alcotest.(check bool) "pipeline marker" true
    (contains ~needle:"call void @_shmls_pipeline_ii_1()" text);
  Alcotest.(check bool) "dataflow marker" true
    (contains ~needle:"call void @_shmls_dataflow()" text);
  Alcotest.(check bool) "interface markers" true
    (contains ~needle:"call void @_shmls_interface_gmem0_bank0()" text)

let test_dataflow_stages_outlined () =
  let text = Ll.to_string (emit H.avg_1d [ 16 ]) in
  (* each hls.dataflow becomes its own function called from the kernel *)
  Alcotest.(check bool) "load stage function" true
    (contains ~needle:"define void @avg_1d__load_data" text);
  Alcotest.(check bool) "shift stage function" true
    (contains ~needle:"define void @avg_1d__shift_" text);
  Alcotest.(check bool) "compute stage function" true
    (contains ~needle:"define void @avg_1d__compute_" text);
  Alcotest.(check bool) "write stage function" true
    (contains ~needle:"define void @avg_1d__write_data" text)

let test_loop_cfg_shape () =
  let text = Ll.to_string (emit H.copy_1d [ 8 ]) in
  Alcotest.(check bool) "loop header with phi" true
    (contains ~needle:"= phi i64" text);
  Alcotest.(check bool) "loop compare" true (contains ~needle:"icmp slt i64" text);
  Alcotest.(check bool) "conditional branch" true (contains ~needle:"br i1" text)

let test_small_copy_emission () =
  let text = Ll.to_string (emit H.chain_3d [ 8; 6; 6 ]) in
  (* step 8's BRAM copy: a local array alloca plus clamped gather loop *)
  Alcotest.(check bool) "local array" true (contains ~needle:"alloca [" text);
  Alcotest.(check bool) "partition marker" true
    (contains ~needle:"@_shmls_array_partition_cyclic_2()" text);
  Alcotest.(check bool) "select for clamping" true (contains ~needle:"select i1" text)

(* the emitted text depends only on the module, not on what the process
   emitted before: stage functions are numbered per module *)
let test_emission_deterministic () =
  ignore (emit H.chain_3d [ 8; 6; 6 ]);
  let m = hls_module H.avg_1d [ 16 ] in
  let first = Ll.to_string (Emit.emit_module m) in
  ignore (emit Shmls_kernels.Pw_advection.kernel [ 12; 8; 6 ]);
  Alcotest.(check string) "same module, same text" first
    (Ll.to_string (Emit.emit_module m));
  Alcotest.(check bool) "stage functions numbered from 0" true
    (contains ~needle:"define void @avg_1d__load_data_0(" first)

(* -- f++ ------------------------------------------------------------------ *)

let test_fpp_removes_all_markers () =
  let m = emit Shmls_kernels.Pw_advection.kernel [ 12; 8; 6 ] in
  let before = Fpp.remaining_markers m in
  let report = Fpp.run m in
  Alcotest.(check bool) "had markers" true (before > 0);
  Alcotest.(check int) "none left" 0 (Fpp.remaining_markers m);
  Alcotest.(check bool) "pipelines rewritten" true (report.pipelines > 0);
  Alcotest.(check int) "10 interfaces" 10 report.interfaces;
  Alcotest.(check int) "one dataflow function" 1 report.dataflows;
  Alcotest.(check int) "six partitions" 6 report.partitions

let test_fpp_attaches_loop_metadata () =
  let m = emit H.avg_1d [ 16 ] in
  let report = Fpp.run m in
  let text = Ll.to_string m in
  Alcotest.(check bool) "latch carries !llvm.loop" true
    (contains ~needle:", !llvm.loop !" text);
  Alcotest.(check bool) "pipeline metadata body" true
    (contains ~needle:"llvm.loop.pipeline.enable" text);
  Alcotest.(check int) "metadata per pipeline" report.pipelines
    (count_substring ~needle:"llvm.loop.pipeline.enable" text)

let test_fpp_dataflow_attribute () =
  let m = emit H.avg_1d [ 16 ] in
  ignore (Fpp.run m);
  let text = Ll.to_string m in
  Alcotest.(check bool) "kernel tagged dataflow" true
    (contains ~needle:"\"fpga.dataflow.func\"" text)

let test_fpp_keeps_intrinsics () =
  let m = emit H.avg_1d [ 16 ] in
  ignore (Fpp.run m);
  let text = Ll.to_string m in
  Alcotest.(check bool) "set.stream.depth survives" true
    (contains ~needle:"llvm.fpga.set.stream.depth" text)

let test_connectivity_config () =
  let m = emit Shmls_kernels.Pw_advection.kernel [ 12; 8; 6 ] in
  let report = Fpp.run m in
  let cfg = Fpp.connectivity_config ~kernel:"pw_advection" report in
  Alcotest.(check bool) "header" true (contains ~needle:"[connectivity]" cfg);
  (* six field bundles to distinct banks plus the shared small bundle *)
  Alcotest.(check int) "seven sp lines" 7 (count_substring ~needle:"sp=" cfg);
  Alcotest.(check bool) "bank 0 assigned" true
    (contains ~needle:"m_axi_gmem0:HBM[0]" cfg);
  Alcotest.(check bool) "smalls share a bank range" true
    (contains ~needle:"m_axi_gmem_small:HBM[30:31]" cfg)

let test_fpp_idempotent () =
  let m = emit H.avg_1d [ 16 ] in
  ignore (Fpp.run m);
  let text1 = Ll.to_string m in
  let report2 = Fpp.run m in
  Alcotest.(check int) "second run finds nothing" 0 report2.pipelines;
  Alcotest.(check string) "module unchanged" text1 (Ll.to_string m)

(* -- golden digests --------------------------------------------------------- *)

(* Every built-in kernel under every ablation variant: the MD5 of the
   emitted LLVM-IR (after f++) and of the v++ connectivity config.  The
   digests were recorded before the emitter's rewrite for speed, so any
   byte the compile path changes in the printed module shows here. *)
let digest_kernels () =
  let small rank = List.filteri (fun i _ -> i < rank) [ 24; 16; 12 ] in
  [
    (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_small);
    ( Shmls_kernels.Tracer_advection.kernel,
      Shmls_kernels.Tracer_advection.grid_small );
  ]
  @ Shmls_kernels.Zoo.all
  @ List.map
      (fun (k : Shmls.Ast.kernel) -> (k, small k.k_rank))
      Shmls_kernels.Didactic.all

let digest_rows () =
  List.concat_map
    (fun ((k : Shmls.Ast.kernel), grid) ->
      List.map
        (fun variant ->
          let c = Shmls.compile ~variant k ~grid in
          let md5 s = Digest.to_hex (Digest.string s) in
          Printf.sprintf "%s\t%s\t%s\t%s\t%s" k.k_name
            (String.concat "x" (List.map string_of_int grid))
            (Shmls.Variant.to_string variant)
            (md5 (Shmls.emit_llvm_text c))
            (md5 c.c_connectivity))
        Shmls.Variant.ablation_set)
    (digest_kernels ())

let test_golden_llvm_digests () =
  let expected =
    In_channel.with_open_text "golden/llvm_digests.tsv" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "llvm digests" expected (digest_rows ())

let () =
  Alcotest.run "llvmir"
    [
      ( "emission",
        [
          Alcotest.test_case "stream legality (paper 3.2)" `Quick
            test_stream_legality_conditions;
          Alcotest.test_case "packed interface types" `Quick
            test_packed_interface_types;
          Alcotest.test_case "marker encoding" `Quick test_markers_before_fpp;
          Alcotest.test_case "outlined dataflow stages" `Quick
            test_dataflow_stages_outlined;
          Alcotest.test_case "loop CFG shape" `Quick test_loop_cfg_shape;
          Alcotest.test_case "small-data copies" `Quick test_small_copy_emission;
          Alcotest.test_case "deterministic per module" `Quick
            test_emission_deterministic;
        ] );
      ( "fpp",
        [
          Alcotest.test_case "removes all markers" `Quick test_fpp_removes_all_markers;
          Alcotest.test_case "attaches loop metadata" `Quick
            test_fpp_attaches_loop_metadata;
          Alcotest.test_case "dataflow attribute" `Quick test_fpp_dataflow_attribute;
          Alcotest.test_case "keeps backend intrinsics" `Quick test_fpp_keeps_intrinsics;
          Alcotest.test_case "connectivity config" `Quick test_connectivity_config;
          Alcotest.test_case "idempotent" `Quick test_fpp_idempotent;
        ] );
      ( "golden",
        [
          Alcotest.test_case "llvm and connectivity digests" `Quick
            test_golden_llvm_digests;
        ] );
    ]
