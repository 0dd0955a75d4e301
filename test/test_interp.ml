(* Interpreter and CPU-lowering tests: closed-form numeric checks, the
   grid substrate, and cross-checks between the stencil-level
   interpreter and the scf/memref executor. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Grid = Shmls_interp.Grid
module Interp = Shmls_interp.Interp
module Lower = Shmls_frontend.Lower
module Ty = Shmls_ir.Ty

(* -- grids ------------------------------------------------------------- *)

let test_grid_indexing () =
  let g = Grid.create (Ty.make_bounds ~lb:[ -1; -1 ] ~ub:[ 3; 2 ]) in
  Alcotest.(check int) "size" 12 (Grid.size g);
  Grid.set g [ -1; -1 ] 1.5;
  Grid.set g [ 2; 1 ] 2.5;
  Alcotest.(check (float 0.0)) "corner lo" 1.5 (Grid.get g [ -1; -1 ]);
  Alcotest.(check (float 0.0)) "corner hi" 2.5 (Grid.get g [ 2; 1 ]);
  Alcotest.check_raises "oob" (Shmls_support.Err.Error
    (Shmls_support.Err.make "Grid: index 3 outside [-1,3)")) (fun () ->
      ignore (Grid.get g [ 3; 0 ]))

let test_grid_iter_order () =
  let g = Grid.create (Ty.make_bounds ~lb:[ 0; 0 ] ~ub:[ 2; 2 ]) in
  let seen = ref [] in
  Grid.iter_bounds g.bounds (fun idx -> seen := idx :: !seen);
  Alcotest.(check (list (list int))) "row-major"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let test_grid_rebase_aliases () =
  let g = Grid.create (Ty.make_bounds ~lb:[ -1 ] ~ub:[ 3 ]) in
  let z = Grid.rebase_zero g in
  Grid.set z [ 0 ] 9.0;
  Alcotest.(check (float 0.0)) "shared storage" 9.0 (Grid.get g [ -1 ])

let test_grid_init_deterministic () =
  let b = Ty.make_bounds ~lb:[ 0 ] ~ub:[ 16 ] in
  let g1 = Grid.create b and g2 = Grid.create b in
  Grid.init_hash ~seed:3 g1;
  Grid.init_hash ~seed:3 g2;
  Alcotest.(check (float 0.0)) "same seed same data" 0.0 (Grid.max_abs_diff g1 g2);
  Grid.init_hash ~seed:4 g2;
  Alcotest.(check bool) "different seed differs" true (Grid.max_abs_diff g1 g2 > 0.0);
  Grid.iter g1 (fun _ v ->
      if v < -1.0 || v > 1.0 then Alcotest.fail "init_hash out of [-1,1]")

(* -- closed-form interpreter checks ------------------------------------ *)

let prepared k grid =
  let l = Lower.lower k ~grid in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  l

let run_kernel k grid = Interp.run_lowered (prepared k grid)

let test_interp_copy () =
  let st = run_kernel H.copy_1d [ 16 ] in
  let a = List.assoc "a" st.fields and b = List.assoc "b" st.fields in
  for i = 0 to 15 do
    H.check_close "copy" (Grid.get a [ i ]) (Grid.get b [ i ])
  done

let test_interp_avg () =
  let st = run_kernel H.avg_1d [ 16 ] in
  let a = List.assoc "a" st.fields and b = List.assoc "b" st.fields in
  for i = 0 to 15 do
    H.check_close "avg"
      (0.5 *. (Grid.get a [ i - 1 ] +. Grid.get a [ i + 1 ]))
      (Grid.get b [ i ])
  done

let test_interp_laplace_constant_field () =
  (* a constant field is a fixed point of the 4-point average *)
  let l = prepared Shmls_kernels.Didactic.laplace_2d [ 8; 8 ] in
  let st = Interp.alloc_state l in
  Grid.fill (List.assoc "phi" st.fields) 3.0;
  ignore (Interp.run_func l.l_func ~args:(Interp.state_args st));
  let out = List.assoc "phi_new" st.fields in
  Grid.iter_bounds (Ty.make_bounds ~lb:[ 0; 0 ] ~ub:[ 8; 8 ]) (fun idx ->
      H.check_close "fixed point" 3.0 (Grid.get out idx))

let test_interp_heat_conserves_constant () =
  let l = prepared Shmls_kernels.Didactic.heat_3d [ 6; 6; 6 ] in
  let st = Interp.alloc_state l in
  Grid.fill (List.assoc "t" st.fields) 1.25;
  ignore (Interp.run_func l.l_func ~args:(Interp.state_args st));
  let out = List.assoc "t_new" st.fields in
  Grid.iter_bounds (Ty.make_bounds ~lb:[ 0; 0; 0 ] ~ub:[ 6; 6; 6 ]) (fun idx ->
      (* laplacian of a constant is 0: t_new = t *)
      H.check_close "conserved" 1.25 (Grid.get out idx))

let test_interp_chain_smalls_params () =
  let l = prepared H.chain_3d [ 8; 6; 6 ] in
  let st = Interp.run_lowered l in
  let src = List.assoc "src" st.fields in
  let dst = List.assoc "dst" st.fields in
  let coef = List.assoc "coef" st.smalls in
  let alpha = List.assoc "alpha" st.params in
  let mid i j k =
    0.5 *. (Grid.get src [ i - 1; j; k ] +. Grid.get src [ i + 1; j; k ])
  in
  for i = 0 to 7 do
    for j = 0 to 5 do
      for k = 0 to 5 do
        H.check_close "chain value"
          (mid i j (k - 1) +. mid i j (k + 1) +. (Grid.get coef [ k + 1 ] *. alpha))
          (Grid.get dst [ i; j; k ])
      done
    done
  done

let test_interp_inout_gather_semantics () =
  (* an in-place kernel must read pre-update values (gather semantics) *)
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
  let l = prepared k [ 8 ] in
  let st = Interp.alloc_state l in
  let a = List.assoc "a" st.fields in
  let before = Grid.copy a in
  ignore (Interp.run_func l.l_func ~args:(Interp.state_args st));
  for i = 0 to 7 do
    H.check_close "gather"
      (Grid.get before [ i - 1 ] +. Grid.get before [ i + 1 ])
      (Grid.get a [ i ])
  done

(* -- golden output digests ----------------------------------------------- *)

(* The bench corpus: the two paper kernels, the Zoo and Didactic kernels
   and every examples/kernels/*.psy file. *)
let digest_corpus () =
  let module Ast = Shmls_frontend.Ast in
  let psy_dir = "../examples/kernels" in
  let psy =
    Sys.readdir psy_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".psy")
    |> List.sort String.compare
    |> List.map (fun f ->
           ( "psy/" ^ Filename.chop_suffix f ".psy",
             Shmls_frontend.Psy_parser.parse_file (Filename.concat psy_dir f) ))
  in
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
  ]
  @ List.map
      (fun ((k : Ast.kernel), _) -> ("zoo/" ^ k.k_name, k))
      Shmls_kernels.Zoo.all
  @ List.map
      (fun (k : Ast.kernel) -> ("didactic/" ^ k.k_name, k))
      Shmls_kernels.Didactic.all
  @ psy

let digest_grid = function 1 -> [ 32 ] | 2 -> [ 16; 12 ] | _ -> [ 10; 8; 6 ]

(* MD5 of a grid's raw float data: IEEE-754 bits, little-endian. *)
let grid_md5 (g : Grid.t) =
  let b = Bytes.create (8 * Array.length g.data) in
  Array.iteri
    (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x))
    g.data;
  Digest.to_hex (Digest.bytes b)

(* One row per output field: kernel, grid, field and the digest of the
   reference result at seed 7, on the shape-inferred, apply-split module
   that --verify interprets. *)
let digest_rows () =
  let module Ast = Shmls_frontend.Ast in
  List.concat_map
    (fun (id, (k : Ast.kernel)) ->
      let grid = digest_grid k.k_rank in
      let l = prepared k grid in
      ignore (Shmls_transforms.Apply_split.run_on_module l.l_module);
      let st = Interp.run_lowered ~seed:7 l in
      List.filter_map
        (fun (fd : Ast.field_decl) ->
          if fd.fd_role = Ast.Input then None
          else
            Some
              (String.concat "\t"
                 [
                   id;
                   String.concat "x" (List.map string_of_int grid);
                   fd.fd_name;
                   grid_md5 (List.assoc fd.fd_name st.fields);
                 ]))
        k.k_fields)
    (digest_corpus ())

(* The digests were recorded before the interpreter was last rewritten:
   the reference's output bits must not drift. *)
let test_golden_digests () =
  let ic = open_in "golden/interp_digests.tsv" in
  let expected =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check int) "corpus size" 23 (List.length (digest_corpus ()));
  Alcotest.(check (list string)) "interp digests" expected (digest_rows ())

(* -- error parity ------------------------------------------------------- *)

(* The first op named [name] in the kernel function, apply bodies
   included. *)
let first_op_named (l : Lower.lowered) name =
  let found = ref None in
  Shmls_ir.Ir.Op.walk l.l_func (fun o ->
      if Option.is_none !found && Shmls_ir.Ir.Op.name o = name then
        found := Some o);
  Option.get !found

let raises_on_run msg (l : Lower.lowered) =
  let st = Interp.alloc_state l in
  Alcotest.check_raises msg
    (Shmls_support.Err.Error (Shmls_support.Err.make msg))
    (fun () -> ignore (Interp.run_func l.l_func ~args:(Interp.state_args st)))

(* An offset past the halo fails the access's corner check, so the
   access is checked at every point and the first point raises. *)
let test_error_out_of_range_access () =
  let l = prepared H.avg_1d [ 16 ] in
  Shmls_ir.Ir.Op.set_attr
    (first_op_named l "stencil.access")
    "offset" (Shmls_ir.Attr.Ints [ 100 ]);
  raises_on_run "Grid: index 100 outside [-1,17)" l

let test_error_unsupported_body_op () =
  let l = prepared H.avg_1d [ 16 ] in
  (first_op_named l "arith.addf").o_name <- "arith.frobf";
  raises_on_run "interp: unsupported op arith.frobf in stencil body" l

(* -- CPU lowering cross-check ------------------------------------------- *)

let cpu_matches_reference (k : Shmls_frontend.Ast.kernel) grid =
  let l = prepared k grid in
  let ref_state = Interp.run_lowered l in
  let m_cpu = Shmls_transforms.Stencil_to_cpu.run l.l_module in
  H.check_verifies "cpu module" m_cpu;
  let cpu_state = Interp.alloc_state l in
  let f = Shmls_ir.Ir.Module_.find_func_exn m_cpu k.k_name in
  let args =
    List.map (fun (_, g) -> Interp.G (Grid.rebase_zero g)) cpu_state.fields
    @ List.map (fun (_, g) -> Interp.G (Grid.rebase_zero g)) cpu_state.smalls
    @ List.map (fun (_, v) -> Interp.F v) cpu_state.params
  in
  ignore (Interp.run_generic_func f ~args);
  let interior = Ty.make_bounds ~lb:(List.map (fun _ -> 0) grid) ~ub:grid in
  List.iter
    (fun (fd : Shmls_frontend.Ast.field_decl) ->
      if fd.fd_role <> Shmls_frontend.Ast.Input then
        let a = List.assoc fd.fd_name ref_state.fields in
        let b = List.assoc fd.fd_name cpu_state.fields in
        let d = Grid.max_abs_diff_on interior a b in
        if d > 1e-12 then
          Alcotest.failf "%s/%s: cpu lowering diverges by %g" k.k_name fd.fd_name d)
    k.k_fields

let test_cpu_lowering_all_kernels () =
  List.iter (fun (k, grid) -> cpu_matches_reference k grid) H.all_test_kernels

let qcheck_cpu_lowering_random =
  H.qtest ~count:30 "cpu lowering matches interpreter on random kernels"
    H.gen_kernel (fun k ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        cpu_matches_reference k (H.small_grid k.k_rank);
        true)

(* -- generic executor --------------------------------------------------- *)

let test_generic_scf_loop () =
  let open Shmls_dialects in
  let m = Shmls_ir.Ir.Module_.create () in
  let _ =
    Func.build_func m ~name:"sumsq" ~arg_tys:[ Ty.Memref ([ 1 ], Ty.F64) ]
      ~result_tys:[] (fun b args ->
        let mr = List.hd args in
        let lb = Arith.constant_index b 0 in
        let ub = Arith.constant_index b 10 in
        let step = Arith.constant_index b 1 in
        let init = Arith.constant_f b 0.0 in
        let loop =
          Scf.for_iter b ~lb ~ub ~step ~init:[ init ] (fun bb iv acc ->
              match acc with
              | [ acc ] ->
                let fi = Arith.sitofp bb ~to_ty:Ty.F64 iv in
                [ Arith.addf bb acc (Arith.mulf bb fi fi) ]
              | _ -> assert false)
        in
        let zero = Arith.constant_index b 0 in
        Memref.store b (Shmls_ir.Ir.Op.result loop 0) mr [ zero ];
        Func.return_ b [])
  in
  H.check_verifies "sumsq" m;
  let g = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 1 ]) in
  let f = Shmls_ir.Ir.Module_.find_func_exn m "sumsq" in
  ignore (Interp.run_generic_func f ~args:[ Interp.G g ]);
  (* sum of squares 0..9 = 285 *)
  H.check_close "loop-carried sum" 285.0 (Grid.get g [ 0 ])

let test_generic_scf_if () =
  let open Shmls_dialects in
  let m = Shmls_ir.Ir.Module_.create () in
  let _ =
    Func.build_func m ~name:"clamp" ~arg_tys:[ Ty.F64; Ty.Memref ([ 1 ], Ty.F64) ]
      ~result_tys:[] (fun b args ->
        match args with
        | [ x; mr ] ->
          let zero = Arith.constant_f b 0.0 in
          let c = Arith.cmpf b ~predicate:"olt" x zero in
          let r =
            Scf.if_ b ~cond:c
              ~then_:(fun bb -> Scf.yield bb [ Arith.constant_f bb 0.0 ])
              ~else_:(fun bb -> Scf.yield bb [ x ])
              ~result_tys:[ Ty.F64 ]
          in
          let i = Arith.constant_index b 0 in
          Memref.store b (Shmls_ir.Ir.Op.result r 0) mr [ i ];
          Func.return_ b []
        | _ -> assert false)
  in
  H.check_verifies "clamp" m;
  let f = Shmls_ir.Ir.Module_.find_func_exn m "clamp" in
  let run x =
    let g = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 1 ]) in
    ignore (Interp.run_generic_func f ~args:[ Interp.F x; Interp.G g ]);
    Grid.get g [ 0 ]
  in
  H.check_close "negative clamps" 0.0 (run (-2.5));
  H.check_close "positive passes" 1.5 (run 1.5)

let test_generic_select () =
  let open Shmls_dialects in
  let m = Shmls_ir.Ir.Module_.create () in
  let _ =
    Func.build_func m ~name:"relu" ~arg_tys:[ Ty.F64; Ty.Memref ([ 1 ], Ty.F64) ]
      ~result_tys:[] (fun b args ->
        match args with
        | [ x; mr ] ->
          let zero = Arith.constant_f b 0.0 in
          let c = Arith.cmpf b ~predicate:"olt" x zero in
          let r = Arith.select b c zero x in
          Memref.store b r mr [ Arith.constant_index b 0 ];
          Func.return_ b []
        | _ -> assert false)
  in
  H.check_verifies "relu" m;
  let f = Shmls_ir.Ir.Module_.find_func_exn m "relu" in
  let run x =
    let g = Grid.create (Ty.make_bounds ~lb:[ 0 ] ~ub:[ 1 ]) in
    ignore (Interp.run_generic_func f ~args:[ Interp.F x; Interp.G g ]);
    Grid.get g [ 0 ]
  in
  H.check_close "negative selects zero" 0.0 (run (-2.5));
  H.check_close "positive selects x" 1.5 (run 1.5)

let () =
  Alcotest.run "interp"
    [
      ( "grid",
        [
          Alcotest.test_case "indexing" `Quick test_grid_indexing;
          Alcotest.test_case "row-major iteration" `Quick test_grid_iter_order;
          Alcotest.test_case "rebase aliases storage" `Quick test_grid_rebase_aliases;
          Alcotest.test_case "deterministic init" `Quick test_grid_init_deterministic;
        ] );
      ( "stencil-interp",
        [
          Alcotest.test_case "copy" `Quick test_interp_copy;
          Alcotest.test_case "average" `Quick test_interp_avg;
          Alcotest.test_case "laplace fixed point" `Quick
            test_interp_laplace_constant_field;
          Alcotest.test_case "heat conserves constants" `Quick
            test_interp_heat_conserves_constant;
          Alcotest.test_case "chain + smalls + params" `Quick
            test_interp_chain_smalls_params;
          Alcotest.test_case "inout gather semantics" `Quick
            test_interp_inout_gather_semantics;
          Alcotest.test_case "golden output digests" `Quick test_golden_digests;
          Alcotest.test_case "out-of-range access error" `Quick
            test_error_out_of_range_access;
          Alcotest.test_case "unsupported body op error" `Quick
            test_error_unsupported_body_op;
        ] );
      ( "cpu-lowering",
        [
          Alcotest.test_case "all kernels match" `Quick test_cpu_lowering_all_kernels;
          qcheck_cpu_lowering_random;
        ] );
      ( "generic-exec",
        [
          Alcotest.test_case "scf loop with iter args" `Quick test_generic_scf_loop;
          Alcotest.test_case "scf.if" `Quick test_generic_scf_if;
          Alcotest.test_case "cmpf + select" `Quick test_generic_select;
        ]
      );
    ]
