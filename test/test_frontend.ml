(* Frontend tests: AST queries (halo accumulation, dependencies,
   validation), the textual kernel parser, and the lowering to the
   stencil dialect. *)

let () = Shmls_dialects.Register.all ()

open Shmls_frontend.Ast
module H = Test_common.Helpers
module Psy = Shmls_frontend.Psy_parser
module Lower = Shmls_frontend.Lower
module Ir = Shmls_ir.Ir

(* -- AST queries ------------------------------------------------------ *)

let test_field_refs () =
  let e = (fld "a" [ -1; 0 ] +: fld "b" [ 0; 1 ]) *: fld "a" [ -1; 0 ] in
  Alcotest.(check int) "with multiplicity" 3 (List.length (field_refs e));
  Alcotest.(check (list string)) "names" [ "a"; "b"; "a" ]
    (List.map fst (field_refs e))

let test_flops () =
  let e = (fld "a" [ 0 ] +: fld "b" [ 0 ]) *: const 2.0 in
  Alcotest.(check int) "two ops" 2 (flops_expr e);
  Alcotest.(check int) "unop counts" 2 (flops_expr (sqrt_ (neg (fld "a" [ 0 ]))))

let test_halo_simple () =
  Alcotest.(check (list int)) "avg_1d halo" [ 1 ] (halo H.avg_1d);
  Alcotest.(check (list int)) "copy halo" [ 0 ] (halo H.copy_1d);
  Alcotest.(check (list int)) "pw halo" [ 1; 1; 1 ]
    (halo Shmls_kernels.Pw_advection.kernel)

let test_halo_accumulates_through_chains () =
  (* b = a[1]; c = b[1]; out = c[1]  =>  field a needs halo 3 *)
  let k =
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "chain";
      k_rank = 1;
      k_fields =
        [
          { fd_name = "a"; fd_role = Input }; { fd_name = "out"; fd_role = Output };
        ];
      k_smalls = [];
      k_params = [];
      k_stencils =
        [
          { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = fld "a" [ 1 ] };
          { sd_loc = Shmls_support.Loc.unknown; sd_target = "c"; sd_expr = fld "b" [ 1 ] };
          { sd_loc = Shmls_support.Loc.unknown; sd_target = "out"; sd_expr = fld "c" [ 1 ] };
        ];
    }
  in
  Alcotest.(check (list int)) "accumulated" [ 3 ] (halo k)

let test_dependencies () =
  let deps = dependencies H.chain_3d in
  (* mid(0) -> dst(1), mid(0) -> dst2(2) *)
  Alcotest.(check bool) "mid->dst" true (List.mem (0, 1) deps);
  Alcotest.(check bool) "mid->dst2" true (List.mem (0, 2) deps);
  Alcotest.(check int) "two edges" 2 (List.length deps)

let test_intermediates () =
  Alcotest.(check (list string)) "chain_3d" [ "mid" ] (intermediates H.chain_3d);
  Alcotest.(check (list string)) "avg_1d none" [] (intermediates H.avg_1d)

let test_validate_rejections () =
  let expect_invalid what k =
    match validate k with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected validation failure" what
  in
  expect_invalid "no stencils" { H.avg_1d with k_stencils = [] };
  expect_invalid "writes input"
    {
      H.avg_1d with
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "a"; sd_expr = fld "a" [ 0 ] } ];
    };
  expect_invalid "undeclared read"
    {
      H.avg_1d with
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = fld "ghost" [ 0 ] } ];
    };
  expect_invalid "offset rank mismatch"
    {
      H.avg_1d with
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = fld "a" [ 0; 0 ] } ];
    };
  expect_invalid "read before produced"
    {
      H.avg_1d with
      k_stencils =
        [
          { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = fld "later" [ 0 ] };
          { sd_loc = Shmls_support.Loc.unknown; sd_target = "later"; sd_expr = fld "a" [ 0 ] };
        ];
    };
  expect_invalid "undeclared small"
    {
      H.avg_1d with
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = small "nope" } ];
    };
  expect_invalid "undeclared param"
    {
      H.avg_1d with
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = param "nope" } ];
    }

let test_dependency_components () =
  let stats = Shmls_baselines.Flow.stats_of_kernel Shmls_kernels.Pw_advection.kernel in
  Alcotest.(check int) "pw: 3 independent components" 3 stats.ks_components;
  let stats2 =
    Shmls_baselines.Flow.stats_of_kernel Shmls_kernels.Tracer_advection.kernel
  in
  Alcotest.(check int) "tracer: 2 chains" 2 stats2.ks_components

(* -- textual parser ---------------------------------------------------- *)

let test_psy_minimal () =
  let k =
    Psy.parse
      {|
kernel mini
rank 1
input a
output b
b = 0.5 * (a[-1] + a[1])
end
|}
  in
  Alcotest.(check string) "name" "mini" k.k_name;
  Alcotest.(check int) "rank" 1 k.k_rank;
  Alcotest.(check int) "one stencil" 1 (List.length k.k_stencils);
  Alcotest.(check (list int)) "halo" [ 1 ] (halo k)

let test_psy_expressions () =
  let k =
    Psy.parse
      {|
kernel exprs
rank 2
input a
input b
output o
small cf axis 1
param alpha
o = min(a[0,0], max(b[0,0], 2)) + sqrt(abs(a[1,-1])) - cf(-1) * alpha / 3.0
end
|}
  in
  match (List.hd k.k_stencils).sd_expr with
  | Binop (Sub, _, _) -> ()
  | _ -> Alcotest.fail "precedence: top node should be the subtraction"

let test_psy_precedence () =
  let k =
    Psy.parse
      {|
kernel prec
rank 1
input a
output o
o = 1 + 2 * a[0]
end
|}
  in
  (match (List.hd k.k_stencils).sd_expr with
  | Binop (Add, Const 1.0, Binop (Mul, Const 2.0, Field_ref ("a", [ 0 ]))) -> ()
  | _ -> Alcotest.fail "1 + 2*a parsed wrongly");
  let k2 =
    Psy.parse
      {|
kernel prec2
rank 1
input a
output o
o = (1 + 2) * a[0]
end
|}
  in
  match (List.hd k2.k_stencils).sd_expr with
  | Binop (Mul, Binop (Add, _, _), _) -> ()
  | _ -> Alcotest.fail "parens ignored"

let test_psy_bare_names_resolve () =
  (* a bare reference to an intermediate resolves to a zero-offset read *)
  let k =
    Psy.parse
      {|
kernel bare
rank 2
input a
output o
t = a[1,0]
o = t + a[0,0]
end
|}
  in
  match (List.nth k.k_stencils 1).sd_expr with
  | Binop (Add, Field_ref ("t", [ 0; 0 ]), _) -> ()
  | _ -> Alcotest.fail "bare intermediate not resolved to zero-offset field ref"

let test_psy_comments_unary () =
  let k =
    Psy.parse
      {|
kernel c
rank 1
input a
output o
! full-line comment
o = -a[0] + 1  ! trailing comment
end
|}
  in
  match (List.hd k.k_stencils).sd_expr with
  | Binop (Add, Unop (Neg, _), Const 1.0) -> ()
  | _ -> Alcotest.fail "unary minus / comment handling"

let test_psy_errors () =
  let expect_error what src =
    match Psy.parse src with
    | exception Shmls_support.Err.Error _ -> ()
    | _ -> Alcotest.failf "%s: expected Err.Error" what
  in
  expect_error "missing kernel name" "rank 1\nend";
  expect_error "bad token" "kernel k\nrank 1\ninput a\noutput b\nb = a[0] $ 1\nend";
  expect_error "unbalanced paren" "kernel k\nrank 1\ninput a\noutput b\nb = (a[0]\nend";
  expect_error "malformed number" "kernel k\nrank 1\ninput a\noutput b\nb = a[0] + 1e\nend";
  expect_error "integer overflow" "kernel k\nrank 99999999999999999999\nend";
  expect_error "invalid kernel (writes input)"
    "kernel k\nrank 1\ninput a\noutput b\na = b[0]\nend"

let test_psy_roundtrips_through_pipeline () =
  let k =
    Psy.parse
      {|
kernel psy_e2e
rank 2
input a
output o
param w
o = w * (a[-1,0] + a[1,0] + a[0,-1] + a[0,1])
end
|}
  in
  let c = Shmls.compile k ~grid:[ 10; 8 ] in
  let v = Shmls.verify c in
  Alcotest.(check (float 1e-12)) "bit-exact" 0.0 v.v_max_diff

(* -- lowering structure ------------------------------------------------ *)

let test_lower_structure () =
  let l = Lower.lower H.chain_3d ~grid:[ 8; 6; 6 ] in
  H.check_verifies "lowered module" l.l_module;
  let count name = List.length (Ir.Op.collect l.l_module (fun o -> Ir.Op.name o = name)) in
  Alcotest.(check int) "3 applies" 3 (count "stencil.apply");
  Alcotest.(check int) "2 stores (dst, dst2)" 2 (count "stencil.store");
  (* loads: src + small coef *)
  Alcotest.(check int) "2 loads" 2 (count "stencil.load");
  Alcotest.(check int) "1 dyn_access" 1 (count "stencil.dyn_access")

let test_lower_grid_rank_check () =
  match Lower.lower H.chain_3d ~grid:[ 8; 8 ] with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "grid rank mismatch must fail"

let test_lower_field_bounds () =
  let l = Lower.lower H.avg_1d ~grid:[ 16 ] in
  let func = Ir.Module_.find_func_exn l.l_module "avg_1d" in
  let arg_tys, _ = Shmls_dialects.Func.function_type func in
  match arg_tys with
  | [ Shmls_ir.Ty.Field (b, _); _ ] ->
    Alcotest.(check (list int)) "lb" [ -1 ] b.lb;
    Alcotest.(check (list int)) "ub" [ 17 ] b.ub
  | _ -> Alcotest.fail "expected field args"

let test_psy_printer_roundtrip_known () =
  List.iter
    (fun ((k : Shmls_frontend.Ast.kernel), _) ->
      let text = Shmls_frontend.Psy_printer.to_string k in
      let k2 = Psy.parse text in
      if strip_locs k2 <> strip_locs k then
        Alcotest.failf "%s does not round-trip:\n%s" k.k_name text)
    H.all_test_kernels

let qcheck_psy_printer_roundtrip =
  H.qtest ~count:80 "random kernels round-trip through .psy text" H.gen_kernel
    (fun k ->
      match validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let text = Shmls_frontend.Psy_printer.to_string k in
        strip_locs (Psy.parse text) = strip_locs k)

let qcheck_random_kernels_validate_and_lower =
  H.qtest ~count:60 "random kernels validate and lower" H.gen_kernel (fun k ->
      match validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let l = Lower.lower k ~grid:(H.small_grid k.k_rank) in
        (match Shmls_ir.Verifier.verify l.l_module with
        | Ok () -> true
        | Error _ -> false))

let () =
  Alcotest.run "frontend"
    [
      ( "ast",
        [
          Alcotest.test_case "field_refs" `Quick test_field_refs;
          Alcotest.test_case "flops" `Quick test_flops;
          Alcotest.test_case "halo simple" `Quick test_halo_simple;
          Alcotest.test_case "halo accumulates" `Quick
            test_halo_accumulates_through_chains;
          Alcotest.test_case "dependencies" `Quick test_dependencies;
          Alcotest.test_case "intermediates" `Quick test_intermediates;
          Alcotest.test_case "validation rejects" `Quick test_validate_rejections;
          Alcotest.test_case "dependency components" `Quick test_dependency_components;
        ] );
      ( "psy-parser",
        [
          Alcotest.test_case "minimal kernel" `Quick test_psy_minimal;
          Alcotest.test_case "expressions" `Quick test_psy_expressions;
          Alcotest.test_case "precedence" `Quick test_psy_precedence;
          Alcotest.test_case "bare names resolve" `Quick test_psy_bare_names_resolve;
          Alcotest.test_case "comments + unary" `Quick test_psy_comments_unary;
          Alcotest.test_case "errors" `Quick test_psy_errors;
          Alcotest.test_case "through the pipeline" `Quick
            test_psy_roundtrips_through_pipeline;
          Alcotest.test_case "printer round-trips the kernels" `Quick
            test_psy_printer_roundtrip_known;
          qcheck_psy_printer_roundtrip;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "structure" `Quick test_lower_structure;
          Alcotest.test_case "grid rank check" `Quick test_lower_grid_rank_check;
          Alcotest.test_case "field bounds" `Quick test_lower_field_bounds;
          qcheck_random_kernels_validate_and_lower;
        ] );
    ]
