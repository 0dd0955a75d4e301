(* Coverage for the smaller corners: error paths, pretty-printers,
   device constants, and helpers not exercised by the main suites. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Ty = Shmls_ir.Ty
module Attr = Shmls_ir.Attr
module Ir = Shmls_ir.Ir
module Grid = Shmls_interp.Grid

(* -- types -------------------------------------------------------------- *)

let test_ty_bitwidth () =
  Alcotest.(check int) "f64" 64 (Ty.bitwidth Ty.F64);
  Alcotest.(check int) "i1" 1 (Ty.bitwidth Ty.I1);
  Alcotest.check_raises "memref has no bitwidth"
    (Shmls_support.Err.Error
       (Shmls_support.Err.make "Ty.bitwidth: not a scalar type")) (fun () ->
      ignore (Ty.bitwidth (Ty.Memref ([ 2 ], Ty.F64))))

let test_ty_element_and_sizes () =
  Alcotest.(check bool) "element of stream" true
    (Ty.equal (Ty.element (Ty.Stream (Ty.Array (9, Ty.F64)))) (Ty.Array (9, Ty.F64)));
  Alcotest.(check bool) "element of scalar is itself" true
    (Ty.equal (Ty.element Ty.F32) Ty.F32);
  Alcotest.check_raises "stream unsized"
    (Shmls_support.Err.Error
       (Shmls_support.Err.make "Ty.byte_size: unsized type")) (fun () ->
      ignore (Ty.byte_size (Ty.Stream Ty.F64)))

let test_ty_printing () =
  Alcotest.(check string) "memref" "memref<4 x ? x f32>"
    (Ty.to_string (Ty.Memref ([ 4; -1 ], Ty.F32)));
  Alcotest.(check string) "stream of array" "!hls.stream<!llvm.array<27 x f64>>"
    (Ty.to_string (Ty.Stream (Ty.Array (27, Ty.F64))));
  Alcotest.(check string) "func" "(f64, index) -> (i1)"
    (Ty.to_string (Ty.Func ([ Ty.F64; Ty.Index ], [ Ty.I1 ])))

let test_attr_printing () =
  Alcotest.(check string) "ints" "<[-1, 0, 1]>" (Attr.to_string (Attr.Ints [ -1; 0; 1 ]));
  Alcotest.(check string) "dict" "{k = 3}"
    (Attr.to_string (Attr.Dict [ ("k", Attr.Int 3) ]));
  Alcotest.(check string) "float keeps point" "2.0" (Attr.to_string (Attr.Float 2.0));
  Alcotest.(check string) "sym" "@callee" (Attr.to_string (Attr.Sym "callee"))

(* -- device constants ----------------------------------------------------- *)

let test_u280_constants () =
  let open Shmls_fpga.U280 in
  Alcotest.(check int) "bram36 bytes" 4608 bram36_bytes;
  Alcotest.(check int) "uram bytes" 36864 uram_bytes;
  Alcotest.(check int) "axi bytes" 64 axi_bytes;
  Alcotest.(check bool) "8 GB HBM" true (hbm_bytes = 8 * 1024 * 1024 * 1024);
  Alcotest.(check bool) "aggregate HBM ~460 GB/s" true
    (Float.abs ((float_of_int hbm_channels *. hbm_bandwidth_per_channel) -. 4.6e11)
    < 1e10)

(* -- design helpers -------------------------------------------------------- *)

let test_toposort_detects_cycles () =
  let cyc =
    [
      Shmls.Design.Dup { input = 1; outputs = [ 2 ] };
      Shmls.Design.Dup { input = 2; outputs = [ 1 ] };
    ]
  in
  match Shmls.Design.toposort cyc with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "cycle must be detected"

let test_find_stream_unknown () =
  let c = Shmls.compile H.avg_1d ~grid:[ 12 ] in
  match Shmls.Design.find_stream c.c_design 999_999 with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "unknown stream must raise"

(* -- grids ------------------------------------------------------------------ *)

let test_grid_helpers () =
  let g = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 4 ]) in
  Grid.map_inplace g (fun idx _ -> float_of_int (List.hd idx));
  Alcotest.(check (float 0.0)) "checksum" 6.0 (Grid.checksum g);
  let g2 = Grid.copy g in
  Grid.set g2 [ 0 ] 0.5;
  Alcotest.(check bool) "within 1" true (Grid.equal_within ~tol:1.0 g g2);
  Alcotest.(check bool) "not within 0.1" false (Grid.equal_within ~tol:0.1 g g2);
  Alcotest.(check int) "rank" 1 (Grid.rank g);
  Alcotest.(check (list int)) "extent" [ 4 ] (Grid.extent g)

(* -- module helpers ----------------------------------------------------------- *)

let test_module_find_func_exn () =
  let m = Ir.Module_.create () in
  match Ir.Module_.find_func_exn m "nope" with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "missing function must raise"

let test_pass_verify_catches_broken_pass () =
  let breaker =
    Shmls_ir.Pass.make ~name:"break-it" (fun m ->
        (* orphan an op with a terminator in the middle *)
        let body = Ir.Module_.body m in
        let b = Shmls_ir.Builder.at_end body in
        ignore
          (Shmls_ir.Builder.insert_op b ~name:"this.does.not.exist" ()))
  in
  let m = Ir.Module_.create () in
  match Shmls_ir.Pass.run_one ~verify:true breaker m with
  | exception Shmls_support.Err.Error e ->
    let msg = Shmls_support.Err.to_string e in
    Alcotest.(check bool) "context names the pass" true
      (let needle = "break-it" in
       let nl = String.length needle and hl = String.length msg in
       let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
       go 0)
  | _ -> Alcotest.fail "verification must fail"

(* -- printers / files ---------------------------------------------------------- *)

let test_psy_file_roundtrip () =
  let path = Filename.temp_file "shmls" ".psy" in
  Shmls_frontend.Psy_printer.to_file path Shmls_kernels.Pw_advection.kernel;
  let k = Shmls_frontend.Psy_parser.parse_file path in
  Sys.remove path;
  Alcotest.(check bool) "identical kernel" true
    (Shmls_frontend.Ast.strip_locs k
    = Shmls_frontend.Ast.strip_locs Shmls_kernels.Pw_advection.kernel)

let test_table_alignment () =
  let t =
    Shmls_support.Table.create
      ~aligns:[ Shmls_support.Table.Left; Shmls_support.Table.Right ]
      [ "ab"; "c" ]
  in
  Shmls_support.Table.add_row t [ "x"; "1234" ];
  let lines = String.split_on_char '\n' (Shmls_support.Table.render t) in
  Alcotest.(check string) "header" "| ab |    c |" (List.nth lines 0);
  Alcotest.(check string) "row" "| x  | 1234 |" (List.nth lines 2)

let test_connectivity_negative_bank () =
  let report =
    {
      Shmls_llvmir.Fplusplus.empty_report with
      interfaces = 1;
      connectivity = [ ("gmem_small", -1) ];
    }
  in
  let cfg = Shmls_llvmir.Fplusplus.connectivity_config ~kernel:"k" report in
  Alcotest.(check bool) "shared bank range" true
    (let needle = "HBM[30:31]" in
     let nl = String.length needle and hl = String.length cfg in
     let rec go i = i + nl <= hl && (String.sub cfg i nl = needle || go (i + 1)) in
     go 0)

(* -- multi-device error paths ------------------------------------------------ *)

module MD = Shmls_host.Multi_device

(* [f] must raise exactly [message], anchored at [loc]. *)
let check_located_error ~message ~loc f =
  match f () with
  | exception Shmls_support.Err.Error e ->
    Alcotest.(check string) "message" message e.Shmls_support.Diagnostic.d_message;
    Alcotest.(check string) "loc" (Shmls_support.Loc.to_string loc)
      (Shmls_support.Loc.to_string e.Shmls_support.Diagnostic.d_loc)
  | _ -> Alcotest.fail "expected an error"

let test_md_unknown_param () =
  let k = Shmls_kernels.Didactic.heat_3d in
  let p = MD.plan k ~grid:[ 8; 6; 6 ] ~devices:2 in
  check_located_error ~message:"multi_device: unknown parameter beta"
    ~loc:k.k_loc (fun () -> MD.run ~params:[ ("beta", 0.1) ] p)

(* Two padded fields of 600M points need about 9.6 GB: too much for one
   device's 8 GB of HBM, enough room on each of two.  Planning checks
   before it compiles or allocates anything per point. *)
let test_md_hbm_at_plan_time () =
  let k = Shmls_kernels.Didactic.sum_neighbours_1d in
  let grid = [ 600_000_000 ] in
  check_located_error
    ~message:
      "multi_device: device 0 needs 9155 MB of HBM for its 600000000 slab, \
       more than the 8192 MB it has"
    ~loc:k.k_loc (fun () -> MD.plan k ~grid ~devices:1);
  let p = MD.plan k ~grid ~devices:2 in
  Alcotest.(check int) "two slabs" 2 (List.length p.mp_slabs)

let () =
  Alcotest.run "coverage"
    [
      ( "types-attrs",
        [
          Alcotest.test_case "bitwidth" `Quick test_ty_bitwidth;
          Alcotest.test_case "element/sizes" `Quick test_ty_element_and_sizes;
          Alcotest.test_case "type printing" `Quick test_ty_printing;
          Alcotest.test_case "attr printing" `Quick test_attr_printing;
        ] );
      ("device", [ Alcotest.test_case "U280 constants" `Quick test_u280_constants ]);
      ( "design",
        [
          Alcotest.test_case "toposort cycle detection" `Quick
            test_toposort_detects_cycles;
          Alcotest.test_case "find_stream unknown" `Quick test_find_stream_unknown;
        ] );
      ("grids", [ Alcotest.test_case "helpers" `Quick test_grid_helpers ]);
      ( "infrastructure",
        [
          Alcotest.test_case "find_func_exn" `Quick test_module_find_func_exn;
          Alcotest.test_case "pass verification context" `Quick
            test_pass_verify_catches_broken_pass;
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
        ] );
      ( "artefacts",
        [
          Alcotest.test_case "psy file round-trip" `Quick test_psy_file_roundtrip;
          Alcotest.test_case "connectivity shared bank" `Quick
            test_connectivity_negative_bank;
        ] );
      ( "multi-device-errors",
        [
          Alcotest.test_case "unknown parameter" `Quick test_md_unknown_param;
          Alcotest.test_case "HBM checked at plan time" `Quick
            test_md_hbm_at_plan_time;
        ] );
    ]
