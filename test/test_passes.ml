(* Generic pass tests: DCE, CSE, constant folding, pass manager. *)

let () = Shmls_dialects.Register.all ()

open Shmls_ir
module D = Shmls_dialects

let f64 = Ty.F64

let module_with_body f =
  let m = Ir.Module_.create () in
  let _ =
    D.Func.build_func m ~name:"f" ~arg_tys:[ f64; f64 ] ~result_tys:[]
      (fun b args ->
        f b args;
        D.Func.return_ b [])
  in
  m

let count_op m name =
  List.length (Ir.Op.collect m (fun o -> Ir.Op.name o = name))

let test_dce_removes_dead () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; y ] ->
          let _dead = D.Arith.addf b x y in
          let live = D.Arith.mulf b x y in
          (* keep [live] alive through a side-effecting op *)
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b live mr [ i ]
        | _ -> assert false)
  in
  let removed = Dce.run_on_op m in
  Alcotest.(check int) "one op removed" 1 removed;
  Alcotest.(check int) "addf gone" 0 (count_op m "arith.addf");
  Alcotest.(check int) "mulf alive" 1 (count_op m "arith.mulf");
  Test_common.Helpers.check_verifies "after dce" m

let test_dce_cascades () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; _ ] ->
          let a = D.Arith.addf b x x in
          let bb = D.Arith.mulf b a a in
          ignore (D.Arith.negf b bb)
        | _ -> assert false)
  in
  let removed = Dce.run_on_op m in
  Alcotest.(check int) "whole chain removed" 3 removed

let test_dce_keeps_side_effects () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; _ ] ->
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b x mr [ i ]
        | _ -> assert false)
  in
  let removed = Dce.run_on_op m in
  Alcotest.(check int) "nothing removed" 0 removed

let test_cse_dedups () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; y ] ->
          let a1 = D.Arith.addf b x y in
          let a2 = D.Arith.addf b x y in
          let s = D.Arith.mulf b a1 a2 in
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b s mr [ i ]
        | _ -> assert false)
  in
  let replaced = Cse.run_on_op m in
  Alcotest.(check int) "one duplicate" 1 replaced;
  ignore (Dce.run_on_op m);
  Alcotest.(check int) "single addf remains" 1 (count_op m "arith.addf");
  Test_common.Helpers.check_verifies "after cse" m

let test_cse_commutative () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; y ] ->
          let a1 = D.Arith.addf b x y in
          let a2 = D.Arith.addf b y x in
          let d1 = D.Arith.subf b x y in
          let d2 = D.Arith.subf b y x in
          let s = D.Arith.mulf b (D.Arith.mulf b a1 a2) (D.Arith.mulf b d1 d2) in
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b s mr [ i ]
        | _ -> assert false)
  in
  let replaced = Cse.run_on_op m in
  (* addf commutes -> deduped; subf does not -> kept *)
  Alcotest.(check int) "only the commutative pair" 1 replaced

let test_cse_respects_attrs () =
  let m =
    module_with_body (fun b _ ->
        let c1 = D.Arith.constant_f b 1.0 in
        let c2 = D.Arith.constant_f b 2.0 in
        let s = D.Arith.addf b c1 c2 in
        let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
        let i = D.Arith.constant_index b 0 in
        D.Memref.store b s mr [ i ])
  in
  let replaced = Cse.run_on_op m in
  Alcotest.(check int) "different constants kept" 0 replaced

let test_cse_respects_result_types () =
  (* equal name, attribute and (no) operands, different result type: an
     index constant must not stand in for the i64 one the addi reads *)
  let m =
    Parser.parse_module
      {|"builtin.module"() ({
  "func.func"() ({
  ^bb0(%0: i64):
    %1 = "arith.constant"() {value = 1} : () -> (index)
    %2 = "arith.constant"() {value = 1} : () -> (i64)
    %3 = "arith.addi"(%0, %2) : (i64, i64) -> (i64)
    "func.return"(%1, %3) : (index, i64) -> ()
  }) {sym_name = "f", function_type = (i64) -> (index, i64)} : () -> ()
}) : () -> ()|}
  in
  let replaced = Cse.run_on_op m in
  Alcotest.(check int) "index and i64 constants kept apart" 0 replaced;
  Test_common.Helpers.check_verifies "after cse" m

let test_fold_constants () =
  let m =
    module_with_body (fun b _ ->
        let c1 = D.Arith.constant_f b 2.0 in
        let c2 = D.Arith.constant_f b 3.0 in
        let s = D.Arith.mulf b c1 c2 in
        let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
        let i = D.Arith.constant_index b 0 in
        D.Memref.store b s mr [ i ])
  in
  ignore (Fold.canonicalize_op m);
  Alcotest.(check int) "mulf folded" 0 (count_op m "arith.mulf");
  (* the surviving constant is 6.0 *)
  let stored_constant =
    Ir.Op.collect m (fun o ->
        Ir.Op.name o = "arith.constant"
        && (match Ir.Op.get_attr o "value" with
           | Some (Attr.Float _) -> true
           | _ -> false)
        && Ir.Value.has_uses (Ir.Op.result o 0))
  in
  match stored_constant with
  | [ c ] ->
    Alcotest.(check (float 0.0)) "folded value" 6.0
      (Attr.float_exn (Ir.Op.get_attr_exn c "value"))
  | other -> Alcotest.failf "expected exactly one live constant, got %d" (List.length other)

let test_fold_identities () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; _ ] ->
          let zero = D.Arith.constant_f b 0.0 in
          let one = D.Arith.constant_f b 1.0 in
          let a = D.Arith.addf b x zero in
          let mres = D.Arith.mulf b a one in
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b mres mr [ i ]
        | _ -> assert false)
  in
  ignore (Fold.canonicalize_op m);
  Alcotest.(check int) "x+0 removed" 0 (count_op m "arith.addf");
  Alcotest.(check int) "x*1 removed" 0 (count_op m "arith.mulf");
  Test_common.Helpers.check_verifies "after folding" m

let test_fold_int_identities () =
  let m =
    module_with_body (fun b _ ->
        let c2 = D.Arith.constant_i b 2 in
        let c3 = D.Arith.constant_i b 3 in
        let s = D.Arith.muli b c2 c3 in
        let s2 = D.Arith.addi b s (D.Arith.constant_i b 0) in
        (* keep alive: write through float conversion *)
        let f = D.Arith.sitofp b ~to_ty:f64 s2 in
        let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
        let i = D.Arith.constant_index b 0 in
        D.Memref.store b f mr [ i ])
  in
  ignore (Fold.canonicalize_op m);
  Alcotest.(check int) "muli folded" 0 (count_op m "arith.muli");
  Alcotest.(check int) "addi folded" 0 (count_op m "arith.addi")

let test_rewriter_applies_to_fixpoint () =
  (* (2*3)*4 folds completely through repeated pattern application *)
  let m =
    module_with_body (fun b _ ->
        let a = D.Arith.mulf b (D.Arith.constant_f b 2.0) (D.Arith.constant_f b 3.0) in
        let r = D.Arith.mulf b a (D.Arith.constant_f b 4.0) in
        let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
        let i = D.Arith.constant_index b 0 in
        D.Memref.store b r mr [ i ])
  in
  let changed = Rewriter.apply_patterns [ Fold.fold_pattern ] m in
  Alcotest.(check bool) "changed" true changed;
  Alcotest.(check int) "all mulf folded" 0 (count_op m "arith.mulf")

let test_rewriter_benefit_order () =
  (* a higher-benefit pattern must win over a lower-benefit one *)
  let hits = ref [] in
  let make name benefit =
    Rewriter.make_pattern ~benefit ~name
      ~matches:(fun o -> Ir.Op.name o = "arith.negf")
      ~rewrite:(fun _ ->
        hits := name :: !hits;
        false)
      ()
  in
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; _ ] -> ignore (D.Arith.negf b x)
        | _ -> assert false)
  in
  ignore (Rewriter.apply_patterns [ make "low" 1; make "high" 10 ] m);
  Alcotest.(check (list string)) "high benefit chosen" [ "high" ] !hits

let test_rewriter_convergence_cap () =
  (* a pattern that always reports change must hit the iteration cap *)
  let always =
    Rewriter.make_pattern ~name:"ping"
      ~matches:(fun o -> Ir.Op.name o = "arith.constant")
      ~rewrite:(fun _ -> true)
      ()
  in
  let m = module_with_body (fun b _ -> ignore (D.Arith.constant_f b 1.0)) in
  match Rewriter.apply_patterns [ always ] m with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "non-converging rewrite must be reported"

let test_pass_manager_pipeline () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; y ] ->
          let a1 = D.Arith.addf b x y in
          let _dead = D.Arith.subf b x y in
          let a2 = D.Arith.addf b x y in
          let s = D.Arith.mulf b a1 a2 in
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b s mr [ i ]
        | _ -> assert false)
  in
  let stats =
    Pass.run_pipeline ~verify_each:true ~op_stats:true
      (Pass.parse_pipeline "cse,dce") m
  in
  Alcotest.(check int) "two passes ran" 2 (List.length stats);
  Alcotest.(check bool) "ops decreased" true
    ((List.nth stats 1).Pass.ops_after < (List.hd stats).Pass.ops_before);
  Alcotest.(check int) "one addf" 1 (count_op m "arith.addf");
  Alcotest.(check int) "no subf" 0 (count_op m "arith.subf")

let test_pass_lookup_unknown () =
  match Pass.parse_pipeline "definitely-not-a-pass" with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "unknown pass must raise"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let names passes = List.map (fun p -> p.Pass.pass_name) passes

let test_pipeline_order_preserved () =
  Alcotest.(check (list string))
    "elements run in spec order" [ "cse"; "dce"; "canonicalize" ]
    (names (Pass.parse_pipeline "cse,dce,canonicalize"))

let step_names =
  [
    "hls-classify-args"; "hls-pack-interfaces"; "hls-stream-conversion";
    "hls-split-dataflow"; "hls-map-accesses"; "hls-write-data";
    "hls-dedup-loads"; "hls-bram-smalls"; "hls-axi-bundles";
  ]

let test_composite_expansion () =
  Test_common.Helpers.ensure_passes_linked ();
  Alcotest.(check (list string))
    "stencil-to-hls expands to the nine steps" step_names
    (names (Pass.parse_pipeline "stencil-to-hls"));
  Alcotest.(check (list string))
    "composite expands in-line between atomics"
    ([ "cse" ] @ step_names @ [ "dce" ])
    (names (Pass.parse_pipeline "cse,stencil-to-hls,dce"))

let test_composite_options () =
  Test_common.Helpers.ensure_passes_linked ();
  (* braces protect commas from the top-level split *)
  Alcotest.(check (list string))
    "steps=2-4 selects a subrange"
    [ "dce"; "hls-pack-interfaces"; "hls-stream-conversion";
      "hls-split-dataflow"; "cse" ]
    (names (Pass.parse_pipeline "dce,stencil-to-hls{steps=2-4},cse"));
  Alcotest.(check (list string))
    "steps=7 selects a single step" [ "hls-dedup-loads" ]
    (names (Pass.parse_pipeline "stencil-to-hls{steps=7}"));
  (match Pass.parse_pipeline "stencil-to-hls{steps=3-99}" with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "out-of-range steps must raise");
  (match Pass.parse_pipeline "stencil-to-hls{bogus=1}" with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "unknown option must raise")

let test_atomic_rejects_options () =
  match Pass.parse_pipeline "dce{level=2}" with
  | exception Shmls_support.Err.Error e ->
    Alcotest.(check bool)
      "error names the pass" true
      (contains (Shmls_support.Err.to_string e) "dce")
  | _ -> Alcotest.fail "options on an atomic pass must raise"

let test_pipeline_unbalanced_braces () =
  match Pass.parse_pipeline "stencil-to-hls{steps=1-9" with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "unbalanced braces must raise"

let test_pass_hooks () =
  let m =
    module_with_body (fun b args ->
        match args with
        | [ x; y ] ->
          let a1 = D.Arith.addf b x y in
          let a2 = D.Arith.addf b x y in
          let s = D.Arith.mulf b a1 a2 in
          let mr = D.Memref.alloc b ~shape:[ 1 ] ~elem:f64 in
          let i = D.Arith.constant_index b 0 in
          D.Memref.store b s mr [ i ]
        | _ -> assert false)
  in
  let befores = ref [] and afters = ref [] in
  let h =
    Pass.hook
      ~before:(fun p _ -> befores := p.Pass.pass_name :: !befores)
      ~after:(fun p stat _ ->
        Alcotest.(check string) "stat matches pass" p.Pass.pass_name
          stat.Pass.stat_pass;
        afters := p.Pass.pass_name :: !afters)
      ()
  in
  let _ = Pass.run_pipeline ~hooks:[ h ] (Pass.parse_pipeline "cse,dce") m in
  Alcotest.(check (list string)) "before hook per pass" [ "cse"; "dce" ]
    (List.rev !befores);
  Alcotest.(check (list string)) "after hook per pass" [ "cse"; "dce" ]
    (List.rev !afters)

let test_verification_names_pass () =
  (* a rogue pass that inserts an unregistered op must be named by the
     inter-pass verification error *)
  let rogue =
    Pass.make ~name:"rogue-insert" (fun m ->
        Ir.Block.append
          (Ir.Region.entry (List.hd (Ir.Op.regions m)))
          (Ir.Op.create ~name:"bogus.op" ()))
  in
  let m = module_with_body (fun _ _ -> ()) in
  match Pass.run_pipeline ~verify_each:true [ rogue ] m with
  | exception Shmls_support.Err.Error e ->
    let msg = Shmls_support.Err.to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "%S names the pass" msg)
      true
      (contains msg "invariant broken by pass \"rogue-insert\"")
  | _ -> Alcotest.fail "broken invariant must raise"

let test_nonconvergence_names_pattern () =
  let always =
    Rewriter.make_pattern ~name:"ping"
      ~matches:(fun o -> Ir.Op.name o = "arith.constant")
      ~rewrite:(fun _ -> true)
      ()
  in
  let m = module_with_body (fun b _ -> ignore (D.Arith.constant_f b 1.0)) in
  match Rewriter.apply_patterns ~name:"ping-driver" [ always ] m with
  | exception Shmls_support.Err.Error e ->
    let msg = Shmls_support.Err.to_string e in
    Alcotest.(check bool)
      (Printf.sprintf "%S names driver and pattern" msg)
      true
      (contains msg "ping-driver" && contains msg "\"ping\"")
  | _ -> Alcotest.fail "non-converging rewrite must be reported"

let test_registered_passes () =
  Test_common.Helpers.ensure_passes_linked ();
  let names = Pass.registered_passes () in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    ([
       "dce"; "cse"; "canonicalize"; "stencil-shape-inference";
       "stencil-to-cpu"; "stencil-to-hls"; "stencil-apply-split";
       "stencil-apply-fuse"; "raise-to-stencil";
     ]
    @ step_names)

let () =
  Alcotest.run "passes"
    [
      ( "dce",
        [
          Alcotest.test_case "removes dead pure ops" `Quick test_dce_removes_dead;
          Alcotest.test_case "cascades through chains" `Quick test_dce_cascades;
          Alcotest.test_case "keeps side effects" `Quick test_dce_keeps_side_effects;
        ] );
      ( "cse",
        [
          Alcotest.test_case "dedups identical ops" `Quick test_cse_dedups;
          Alcotest.test_case "commutativity" `Quick test_cse_commutative;
          Alcotest.test_case "respects attributes" `Quick test_cse_respects_attrs;
          Alcotest.test_case "respects result types" `Quick
            test_cse_respects_result_types;
        ] );
      ( "fold",
        [
          Alcotest.test_case "constants" `Quick test_fold_constants;
          Alcotest.test_case "float identities" `Quick test_fold_identities;
          Alcotest.test_case "int identities" `Quick test_fold_int_identities;
        ] );
      ( "rewriter",
        [
          Alcotest.test_case "fixpoint folding" `Quick test_rewriter_applies_to_fixpoint;
          Alcotest.test_case "benefit ordering" `Quick test_rewriter_benefit_order;
          Alcotest.test_case "convergence cap" `Quick test_rewriter_convergence_cap;
        ] );
      ( "manager",
        [
          Alcotest.test_case "pipeline" `Quick test_pass_manager_pipeline;
          Alcotest.test_case "unknown pass" `Quick test_pass_lookup_unknown;
          Alcotest.test_case "registry contents" `Quick test_registered_passes;
          Alcotest.test_case "spec order preserved" `Quick
            test_pipeline_order_preserved;
          Alcotest.test_case "composite expansion" `Quick test_composite_expansion;
          Alcotest.test_case "composite options" `Quick test_composite_options;
          Alcotest.test_case "atomic rejects options" `Quick
            test_atomic_rejects_options;
          Alcotest.test_case "unbalanced braces" `Quick
            test_pipeline_unbalanced_braces;
          Alcotest.test_case "hooks" `Quick test_pass_hooks;
          Alcotest.test_case "verification names pass" `Quick
            test_verification_names_pass;
          Alcotest.test_case "non-convergence names pattern" `Quick
            test_nonconvergence_names_pattern;
        ] );
    ]
