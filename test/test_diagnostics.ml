(* The locations + diagnostics engine, end to end: Loc algebra,
   Diagnostic rendering/capture, expected-diagnostic checking, parser
   and PSy-frontend error positions, loc threading through lowering,
   and — the acceptance case — a verifier failure injected mid-way
   through the nine-step HLS lowering that names the pass, the offending
   op, and a location chain resolving back to the originating kernel
   source line. *)

open Shmls_support
module Ir = Shmls_ir.Ir
module Parser = Shmls_ir.Parser
module Printer = Shmls_ir.Printer
module Verifier = Shmls_ir.Verifier
module Pass = Shmls_ir.Pass
module Psy = Shmls_frontend.Psy_parser
module Lower = Shmls_frontend.Lower

let () = Shmls_transforms.Register.all ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Loc *)

let test_loc_to_string () =
  Alcotest.(check string) "unknown" "unknown" (Loc.to_string Loc.Unknown);
  let f = Loc.file ~file:"k.psy" ~line:3 ~col:7 in
  Alcotest.(check string) "file" "\"k.psy\":3:7" (Loc.to_string f);
  Alcotest.(check string)
    "derived" "\"p\"(\"k.psy\":3:7)"
    (Loc.to_string (Loc.derived "p" f));
  Alcotest.(check string)
    "fused" "fused[\"k.psy\":3:7, unknown]"
    (Loc.to_string (Loc.Fused [ f; Loc.Unknown ]))

let test_loc_algebra () =
  let f = Loc.file ~file:"a.psy" ~line:9 ~col:2 in
  Alcotest.(check bool) "fused [] collapses" true (Loc.fused [] = Loc.Unknown);
  Alcotest.(check bool) "fused singleton collapses" true (Loc.fused [ f ] = f);
  let chain = Loc.derived "outer" (Loc.derived "inner" f) in
  Alcotest.(check bool) "root strips derivation" true (Loc.root chain = f);
  Alcotest.(check (option (triple string int int)))
    "resolve" (Some ("a.psy", 9, 2)) (Loc.resolve chain);
  Alcotest.(check (option int)) "line" (Some 9) (Loc.line chain);
  Alcotest.(check (list string))
    "derivation most recent first" [ "outer"; "inner" ] (Loc.derivation chain);
  Alcotest.(check bool) "unknown not known" false (Loc.is_known Loc.Unknown);
  Alcotest.(check bool) "chain known" true (Loc.is_known chain);
  Alcotest.(check (option (triple string int int)))
    "unknown resolves to nothing" None (Loc.resolve Loc.Unknown)

let test_loc_of_pos () =
  (* __POS__ columns are 0-based; Loc columns are 1-based *)
  match Loc.of_pos ("f.ml", 10, 4, 9) with
  | Loc.File ("f.ml", 10, 5) -> ()
  | l -> Alcotest.failf "of_pos gave %s" (Loc.to_string l)

(* ------------------------------------------------------------------ *)
(* Diagnostic *)

let test_diagnostic_rendering () =
  let loc = Loc.file ~file:"k.psy" ~line:4 ~col:1 in
  let d = Diagnostic.make ~loc "bad stencil" in
  Alcotest.(check string)
    "located error" "k.psy:4:1: error: bad stencil"
    (Diagnostic.to_string d);
  let d = Diagnostic.add_context "pass \"x\"" d in
  Alcotest.(check bool) "context suffix" true
    (contains (Diagnostic.to_string d) "[in pass \"x\"]");
  let d = Diagnostic.add_note ~loc "defined here" d in
  Alcotest.(check bool) "note line" true
    (contains (Diagnostic.to_string d) "note: defined here");
  (* unlocated errors keep the legacy plain-message form *)
  Alcotest.(check string) "legacy" "boom"
    (Diagnostic.to_string (Diagnostic.make "boom"));
  Alcotest.(check string) "unlocated warning" "warning: careful"
    (Diagnostic.to_string (Diagnostic.make ~severity:Diagnostic.Warning "careful"))

let test_diagnostic_capture () =
  let seen, result =
    Diagnostic.capture (fun () ->
        Diagnostic.emit (Diagnostic.make ~severity:Diagnostic.Warning "w1");
        Diagnostic.emit (Diagnostic.make ~severity:Diagnostic.Remark "r1");
        42)
  in
  Alcotest.(check int) "collected" 2 (List.length seen);
  Alcotest.(check (option int)) "result" (Some 42) result;
  let seen, result =
    Diagnostic.capture (fun () ->
        Diagnostic.emit (Diagnostic.make ~severity:Diagnostic.Warning "w");
        Err.raise_error "fatal")
  in
  Alcotest.(check (option unit)) "aborted" None result;
  match seen with
  | [ w; e ] ->
    Alcotest.(check string) "warning first" "warning: w" (Diagnostic.to_string w);
    Alcotest.(check bool) "error last" true
      (e.Diagnostic.d_severity = Diagnostic.Error)
  | _ -> Alcotest.failf "expected 2 diagnostics, got %d" (List.length seen)

let test_err_compat () =
  (* every construction path defaults identically, so structural
     exception equality keeps working across the codebase's tests *)
  Alcotest.check_raises "structural equality"
    (Err.Error (Err.make "Stats.mean: empty")) (fun () ->
      ignore (Stats.mean []));
  let e =
    try Err.with_pass "my-pass" (fun () -> Err.raise_error "inner")
    with Err.Error e -> e
  in
  Alcotest.(check (option string))
    "with_pass records provenance" (Some "my-pass") e.Diagnostic.d_pass;
  Alcotest.(check bool) "and pushes context" true
    (contains (Err.to_string e) "[in pass my-pass]");
  let e2 =
    try Err.with_pass "outer" (fun () -> raise (Err.Error e))
    with Err.Error e2 -> e2
  in
  Alcotest.(check (option string))
    "innermost pass wins" (Some "my-pass") e2.Diagnostic.d_pass

(* ------------------------------------------------------------------ *)
(* Expected-diagnostic comments *)

let test_expected_parse () =
  let src =
    "line one\n\
     // expected-error@+1 {{bad thing}}\n\
     target line\n\
     // expected-warning@1 {{heads up}}\n\
     // expected-note {{right here}}\n"
  in
  match Diagnostic.Expected.parse src with
  | [ e1; e2; e3 ] ->
    Alcotest.(check bool) "error severity" true
      (e1.Diagnostic.Expected.x_severity = Diagnostic.Error);
    Alcotest.(check int) "relative line" 3 e1.Diagnostic.Expected.x_line;
    Alcotest.(check string) "msg" "bad thing" e1.Diagnostic.Expected.x_msg;
    Alcotest.(check int) "absolute line" 1 e2.Diagnostic.Expected.x_line;
    Alcotest.(check int) "own line" 5 e3.Diagnostic.Expected.x_line
  | l -> Alcotest.failf "expected 3 expectations, got %d" (List.length l)

let test_expected_check () =
  let loc = Loc.file ~file:"t.mlir" ~line:3 ~col:1 in
  let seen = [ Diagnostic.make ~loc "something bad happened" ] in
  let expected =
    Diagnostic.Expected.parse "// expected-error@3 {{bad thing}}\n"
  in
  (match Diagnostic.Expected.check ~expected ~seen with
  | Error msg -> Alcotest.(check bool) "names the miss" true
      (contains msg "bad thing")
  | Ok () -> Alcotest.fail "mismatched substring must fail");
  let expected =
    Diagnostic.Expected.parse "// expected-error@3 {{something bad}}\n"
  in
  (match Diagnostic.Expected.check ~expected ~seen with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "should match: %s" msg);
  (* an unexpected error is a failure even with no expectations *)
  match Diagnostic.Expected.check ~expected:[] ~seen with
  | Error msg -> Alcotest.(check bool) "unexpected reported" true
      (contains msg "unexpected")
  | Ok () -> Alcotest.fail "unexpected error must fail the check"

(* ------------------------------------------------------------------ *)
(* PSy parser positions *)

let test_psy_syntax_error_position () =
  let src = "kernel k\nrank 1\ninput a\noutput b\nb = a[0] + @\nend\n" in
  match Psy.parse ~file:"k.psy" src with
  | exception Err.Error { d_loc; _ } ->
    (match Loc.resolve d_loc with
    | Some ("k.psy", 5, col) ->
      Alcotest.(check bool) "column past the =" true (col > 4)
    | other ->
      Alcotest.failf "wrong position %s"
        (match other with
        | Some (f, l, c) -> Printf.sprintf "%s:%d:%d" f l c
        | None -> "<none>"))
  | _ -> Alcotest.fail "expected Err.Error"

let test_psy_validation_error_position () =
  let src = "kernel k\nrank 1\ninput a\noutput b\nb = nosuch[0]\nend\n" in
  match Psy.parse ~file:"k.psy" src with
  | exception Err.Error e ->
    Alcotest.(check (option int)) "anchored at the stencil line" (Some 5)
      (Loc.line e.d_loc);
    Alcotest.(check bool) "names the undeclared read" true
      (contains e.d_message "nosuch");
    Alcotest.(check bool) "message renders position" true
      (contains (Err.to_string e) "k.psy:5:")
  | _ -> Alcotest.fail "expected Err.Error"

let test_psy_locs_thread_into_ir () =
  let src =
    "kernel k\nrank 1\ninput a\noutput b\nb = a[-1] + a[1]\nend\n"
  in
  let k = Psy.parse ~file:"k.psy" src in
  Alcotest.(check (option int)) "kernel loc" (Some 1) (Loc.line k.Shmls_frontend.Ast.k_loc);
  let l = Lower.lower k ~grid:[ 16 ] in
  let applies =
    Ir.Op.collect l.Lower.l_module (fun o -> Ir.Op.name o = "stencil.apply")
  in
  Alcotest.(check int) "one apply" 1 (List.length applies);
  let apply = List.hd applies in
  (match Loc.resolve (Ir.Op.loc apply) with
  | Some ("k.psy", 5, _) -> ()
  | _ ->
    Alcotest.failf "apply at %s, wanted k.psy:5"
      (Loc.to_string (Ir.Op.loc apply)));
  (* body ops inherit the stencil's location *)
  Ir.Op.walk apply (fun o ->
      if not (Loc.is_known (Ir.Op.loc o)) then
        Alcotest.failf "unlocated op %s in apply body" (Ir.Op.name o))

(* ------------------------------------------------------------------ *)
(* IR parser positions and loc round-trip *)

let test_ir_parse_error_position () =
  let src = "\"builtin.module\"() ({\n  bogus\n}) : () -> ()" in
  match Parser.parse_module ~file:"t.mlir" src with
  | exception Err.Error e ->
    Alcotest.(check (option (triple string int int)))
      "position" (Some ("t.mlir", 2, 3))
      (Loc.resolve e.Diagnostic.d_loc)
  | _ -> Alcotest.fail "expected a parse error"

(* Operand errors anchor at the operand's own token, not at whatever
   follows the op. *)
let test_ir_operand_error_position () =
  let check what src msg pos =
    match Parser.parse_module ~file:"t.mlir" src with
    | exception Err.Error e ->
      Alcotest.(check string) (what ^ ": message") msg e.Diagnostic.d_message;
      Alcotest.(check (option (triple string int int)))
        (what ^ ": position") (Some pos)
        (Loc.resolve e.Diagnostic.d_loc)
    | _ -> Alcotest.failf "%s: expected a parse error" what
  in
  check "forward reference"
    "\"builtin.module\"() ({\n\
    \  %0 = \"arith.addi\"(%1, %1) : (index, index) -> (index)\n\
    \  %1 = \"arith.constant\"() {value = 1} : () -> (index)\n\
     }) : () -> ()"
    "parse error: use of undefined value %1" ("t.mlir", 2, 21);
  check "operand type mismatch"
    "\"builtin.module\"() ({\n\
    \  %0 = \"arith.constant\"() {value = 1} : () -> (index)\n\
    \  %1 = \"arith.addi\"(%0, %0) : (index, i32) -> (index)\n\
    \  %2 = \"arith.constant\"() {value = 2} : () -> (index)\n\
     }) : () -> ()"
    "parse error: op arith.addi: operand %0 has type index, expected i32"
    ("t.mlir", 3, 25)

let test_ir_auto_stamp_and_explicit_loc () =
  let src =
    "\"builtin.module\"() ({\n\
    \  %0 = \"arith.constant\"() {value = 1} : () -> (index)\n\
    \  %1 = \"arith.constant\"() {value = 2} : () -> (index) \
     loc(\"orig.psy\":7:9)\n\
     }) : () -> ()"
  in
  let m = Parser.parse_module ~file:"t.mlir" src in
  match Ir.Module_.ops m with
  | [ a; b ] ->
    Alcotest.(check (option (triple string int int)))
      "auto-stamped from the token position"
      (Some ("t.mlir", 2, 3))
      (Loc.resolve (Ir.Op.loc a));
    Alcotest.(check (option (triple string int int)))
      "explicit loc wins" (Some ("orig.psy", 7, 9))
      (Loc.resolve (Ir.Op.loc b))
  | ops -> Alcotest.failf "expected 2 ops, got %d" (List.length ops)

let test_verifier_anchors_at_op () =
  let src =
    "\"builtin.module\"() ({\n\
    \  \"bogus.op\"() : () -> ()\n\
     }) : () -> ()"
  in
  let m = Parser.parse_module ~file:"t.mlir" src in
  match Verifier.verify_exn m with
  | exception Err.Error e ->
    Alcotest.(check bool) "names the op" true
      (contains e.Diagnostic.d_message "bogus.op");
    Alcotest.(check (option int)) "anchored at its line" (Some 2)
      (Loc.line e.Diagnostic.d_loc)
  | () -> Alcotest.fail "unregistered op must not verify"

(* ------------------------------------------------------------------ *)
(* Verifier negative cases: each names its op and value, and anchors at
   the offending op's line. Textual IR cannot spell a forward reference,
   so the same-block cases are built by rewiring a parsed operand. *)

(* A module holding [outer] and then one func.func; with no [outer], the
   func body starts on line 3. *)
let func_module ?(outer = "") body =
  Parser.parse_module ~file:"t.mlir"
    ("\"builtin.module\"() ({\n" ^ outer ^ "  \"func.func\"() ({\n" ^ body
   ^ "    \"func.return\"() : () -> ()\n\
     \  }) {function_type = () -> (), sym_name = \"f\"} : () -> ()\n\
      }) : () -> ()")

let ops_named m name = Ir.Op.collect m (fun o -> Ir.Op.name o = name)

let expect_error m ~msg ~line =
  match Verifier.verify m with
  | Ok () -> Alcotest.failf "expected %S at line %d; the module verified" msg line
  | Error e ->
    Alcotest.(check string) "message" msg e.Diagnostic.d_message;
    Alcotest.(check (option int)) "line" (Some line) (Loc.line e.d_loc);
    Alcotest.(check (list string)) "no context" [] e.d_context

let undefined op_name v =
  Printf.sprintf "op %s: operand %%v%d used before definition" op_name
    (Ir.Value.id v)

let invisible op_name v why =
  Printf.sprintf "op %s: operand %%v%d is not visible here: it is defined %s"
    op_name (Ir.Value.id v) why

let three_ops =
  "    %0 = \"arith.constant\"() {value = 0} : () -> (index)\n\
  \    %1 = \"arith.addi\"(%0, %0) : (index, index) -> (index)\n\
  \    %2 = \"arith.constant\"() {value = 1} : () -> (index)\n"

let test_use_before_def_same_block () =
  let m = func_module three_ops in
  let add = List.hd (ops_named m "arith.addi") in
  let later = Ir.Op.result (List.nth (ops_named m "arith.constant") 1) 0 in
  Ir.Op.set_operand add 1 later;
  expect_error m ~msg:(undefined "arith.addi" later) ~line:4

let test_op_reads_own_result () =
  let m = func_module three_ops in
  let add = List.hd (ops_named m "arith.addi") in
  Ir.Op.set_operand add 0 (Ir.Op.result add 0);
  expect_error m ~msg:(undefined "arith.addi" (Ir.Op.result add 0)) ~line:4

let loop ?(indent = "    ") ~iv body =
  Printf.sprintf
    "%s\"scf.for\"(%%c, %%c, %%c) ({\n%s^bb%s(%%%s: index):\n%s%s  \"scf.yield\"() : () -> ()\n%s}) : (index, index, index) -> ()\n"
    indent indent iv iv body indent indent

let const_c = "    %c = \"arith.constant\"() {value = 0} : () -> (index)\n"

let test_sibling_region_value () =
  let m =
    func_module
      (const_c
      ^ loop ~iv:"1" "      %2 = \"arith.addi\"(%1, %1) : (index, index) -> (index)\n"
      ^ loop ~iv:"3" "      %4 = \"arith.addi\"(%3, %2) : (index, index) -> (index)\n")
  in
  let first = Ir.Op.result (List.hd (ops_named m "arith.addi")) 0 in
  expect_error m
    ~msg:
      (invisible "arith.addi" first
         "in a region of scf.for that does not enclose this use")
    ~line:11

(* A module-level value is invisible inside a func.func at any depth: the
   scope chain stops before the block around the isolated op. *)
let test_use_across_isolation () =
  let outer = "  %g = \"arith.constant\"() {value = 1} : () -> (index)\n" in
  let check body ~line =
    let m = func_module ~outer body in
    let g = Ir.Op.result (List.hd (ops_named m "arith.constant")) 0 in
    expect_error m
      ~msg:
        (invisible "arith.addi" g
           "above func.func, which is isolated from above")
      ~line
  in
  (* depth 1: the func body itself *)
  check "    %1 = \"arith.addi\"(%g, %g) : (index, index) -> (index)\n" ~line:4;
  (* depth 2: inside a loop in the func, the block around the func stays
     invisible too *)
  check
    (const_c ^ loop ~iv:"1" "      %2 = \"arith.addi\"(%1, %g) : (index, index) -> (index)\n")
    ~line:7;
  (* depth 3 *)
  check
    (const_c
    ^ loop ~iv:"1"
        (loop ~indent:"      " ~iv:"2"
           "        %3 = \"arith.addi\"(%2, %g) : (index, index) -> (index)\n"))
    ~line:9

let test_operand_missing_from_use_list () =
  (* [uses] extra readers put %0 past the verifier's short-list cutoff,
     so both of its use-list paths are exercised *)
  List.iter
    (fun uses ->
      let body =
        "    %0 = \"arith.constant\"() {value = 0} : () -> (index)\n\
        \    %1 = \"arith.constant\"() {value = 1} : () -> (index)\n\
        \    %2 = \"arith.addi\"(%0, %1) : (index, index) -> (index)\n"
        ^ String.concat ""
            (List.init uses (fun i ->
                 Printf.sprintf
                   "    %%r%d = \"arith.addi\"(%%0, %%0) : (index, index) -> (index)\n"
                   i))
      in
      let m = func_module body in
      let add = List.hd (ops_named m "arith.addi") in
      (* bypass Op.set_operand: %0's use list never hears of this slot,
         and %1's keeps a stale entry for it *)
      add.Ir.o_operands.(1) <- add.Ir.o_operands.(0);
      expect_error m
        ~msg:"op arith.addi: operand 1 not recorded in value's use list"
        ~line:5)
    [ 0; 6 ]

(* Known deviation from MLIR dominance, kept on purpose: a nested region
   may read any value of an enclosing block, even one defined after the
   op that owns the region. *)
let test_enclosing_value_defined_later () =
  let m =
    func_module
      (const_c
      ^ loop ~iv:"1" "      %2 = \"arith.addi\"(%1, %c) : (index, index) -> (index)\n"
      ^ "    %late = \"arith.constant\"() {value = 1} : () -> (index)\n")
  in
  let add = List.hd (ops_named m "arith.addi") in
  let late = Ir.Op.result (List.nth (ops_named m "arith.constant") 1) 0 in
  Ir.Op.set_operand add 1 late;
  match Verifier.verify m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected: %s" (Err.to_string e)

(* ------------------------------------------------------------------ *)
(* Acceptance: an injected verifier failure mid-way through the HLS
   lowering names the pass, the op, and resolves to the kernel source. *)

let run_pipeline spec m =
  ignore (Pass.run_pipeline ~verify_each:true (Pass.parse_pipeline spec) m)

let test_injected_failure (kernel : Shmls_frontend.Ast.kernel) ~grid
    ~source_file () =
  let l = Lower.lower kernel ~grid in
  let m = l.Lower.l_module in
  run_pipeline "stencil-shape-inference,stencil-to-hls{steps=1-4}" m;
  (* find an op whose provenance chain reaches the kernel's source *)
  let victim = ref None in
  Ir.Op.walk m (fun o ->
      if !victim = None then
        match (Ir.Op.loc o, Loc.resolve (Ir.Op.loc o)) with
        | Loc.Pass_derived _, Some (f, _, _) when contains f source_file ->
          !victim |> ignore;
          victim := Some o
        | _ -> ());
  let victim =
    match !victim with
    | Some o -> o
    | None -> Alcotest.fail "no pass-derived op chained to kernel source"
  in
  let parent =
    match victim.Ir.o_parent with
    | Some b -> b
    | None -> Alcotest.fail "victim op is detached"
  in
  (* inject: an unregistered op carrying the same provenance chain *)
  let bogus = Ir.Op.create ~name:"bogus.op" ~loc:(Ir.Op.loc victim) () in
  Ir.Block.insert_after parent ~anchor:victim bogus;
  match run_pipeline "stencil-to-hls{steps=5}" m with
  | exception Err.Error e ->
    Alcotest.(check (option string))
      "diagnostic names the pass" (Some "hls-map-accesses")
      e.Diagnostic.d_pass;
    Alcotest.(check bool) "diagnostic names the op" true
      (contains e.Diagnostic.d_message "bogus.op");
    (match Loc.resolve e.Diagnostic.d_loc with
    | Some (f, line, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "location resolves into %s" source_file)
        true
        (contains f source_file && line > 0)
    | None -> Alcotest.fail "diagnostic location does not resolve");
    Alcotest.(check bool) "derivation chain recorded" true
      (Loc.derivation e.Diagnostic.d_loc <> [])
  | () -> Alcotest.fail "verification must fail on the injected op"

let () =
  Alcotest.run "diagnostics"
    [
      ( "loc",
        [
          Alcotest.test_case "to_string forms" `Quick test_loc_to_string;
          Alcotest.test_case "algebra" `Quick test_loc_algebra;
          Alcotest.test_case "of_pos" `Quick test_loc_of_pos;
        ] );
      ( "diagnostic",
        [
          Alcotest.test_case "rendering" `Quick test_diagnostic_rendering;
          Alcotest.test_case "capture" `Quick test_diagnostic_capture;
          Alcotest.test_case "err compatibility" `Quick test_err_compat;
        ] );
      ( "expected",
        [
          Alcotest.test_case "parse" `Quick test_expected_parse;
          Alcotest.test_case "check" `Quick test_expected_check;
        ] );
      ( "psy",
        [
          Alcotest.test_case "syntax error position" `Quick
            test_psy_syntax_error_position;
          Alcotest.test_case "validation error position" `Quick
            test_psy_validation_error_position;
          Alcotest.test_case "locations thread into IR" `Quick
            test_psy_locs_thread_into_ir;
        ] );
      ( "ir",
        [
          Alcotest.test_case "parse error position" `Quick
            test_ir_parse_error_position;
          Alcotest.test_case "operand errors at the operand" `Quick
            test_ir_operand_error_position;
          Alcotest.test_case "auto-stamp and explicit loc" `Quick
            test_ir_auto_stamp_and_explicit_loc;
          Alcotest.test_case "verifier anchors at the op" `Quick
            test_verifier_anchors_at_op;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "use before definition in the block" `Quick
            test_use_before_def_same_block;
          Alcotest.test_case "op reads its own result" `Quick
            test_op_reads_own_result;
          Alcotest.test_case "value from a sibling region" `Quick
            test_sibling_region_value;
          Alcotest.test_case "use across isolation at any depth" `Quick
            test_use_across_isolation;
          Alcotest.test_case "operand missing from its use list" `Quick
            test_operand_missing_from_use_list;
          Alcotest.test_case "enclosing value defined later" `Quick
            test_enclosing_value_defined_later;
        ] );
      ( "injected-verifier-failure",
        [
          Alcotest.test_case "pw advection" `Quick
            (test_injected_failure Shmls_kernels.Pw_advection.kernel
               ~grid:Shmls_kernels.Pw_advection.grid_small
               ~source_file:"pw_advection.ml");
          Alcotest.test_case "tracer advection" `Quick
            (test_injected_failure Shmls_kernels.Tracer_advection.kernel
               ~grid:Shmls_kernels.Tracer_advection.grid_small
               ~source_file:"tracer_advection.ml");
        ] );
    ]
