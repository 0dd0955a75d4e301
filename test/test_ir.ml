(* Tests for the IR core: types, attributes, ops/blocks/regions, use-def
   maintenance, rewriting helpers. *)

let () = Shmls_dialects.Register.all ()

open Shmls_ir

let f64 = Ty.F64

let test_ty_equal () =
  Alcotest.(check bool) "f64 = f64" true (Ty.equal Ty.F64 Ty.F64);
  Alcotest.(check bool) "f64 <> f32" false (Ty.equal Ty.F64 Ty.F32);
  let b = Ty.make_bounds ~lb:[ 0 ] ~ub:[ 4 ] in
  Alcotest.(check bool) "field equality" true
    (Ty.equal (Ty.Field (b, f64)) (Ty.Field (b, f64)));
  Alcotest.(check bool) "stream covariance" true
    (Ty.equal (Ty.Stream (Ty.Array (27, f64))) (Ty.Stream (Ty.Array (27, f64))));
  Alcotest.(check bool) "array length matters" false
    (Ty.equal (Ty.Array (8, f64)) (Ty.Array (9, f64)))

let test_ty_byte_size () =
  Alcotest.(check int) "f64" 8 (Ty.byte_size f64);
  Alcotest.(check int) "struct of array" 64
    (Ty.byte_size (Ty.Struct [ Ty.Array (8, f64) ]));
  Alcotest.(check int) "memref" (4 * 4 * 8) (Ty.byte_size (Ty.Memref ([ 4; 4 ], f64)));
  let b = Ty.make_bounds ~lb:[ -1 ] ~ub:[ 3 ] in
  Alcotest.(check int) "field includes halo" 32 (Ty.byte_size (Ty.Field (b, f64)))

let test_ty_bounds () =
  let b = Ty.make_bounds ~lb:[ -1; 0 ] ~ub:[ 3; 2 ] in
  Alcotest.(check (list int)) "extent" [ 4; 2 ] (Ty.bounds_extent b);
  Alcotest.(check int) "points" 8 (Ty.bounds_points b);
  Alcotest.(check int) "rank" 2 (Ty.bounds_rank b);
  Alcotest.check_raises "inverted bounds"
    (Shmls_support.Err.Error (Shmls_support.Err.make "Ty.make_bounds: ub < lb"))
    (fun () ->
      ignore (Ty.make_bounds ~lb:[ 2 ] ~ub:[ 1 ]))

let test_attr_accessors () =
  Alcotest.(check int) "int" 3 (Attr.int_exn (Attr.Int 3));
  Alcotest.(check string) "sym" "foo" (Attr.sym_exn (Attr.Sym "foo"));
  Alcotest.(check (list int)) "ints" [ 1; -2 ] (Attr.ints_exn (Attr.Ints [ 1; -2 ]));
  Alcotest.check_raises "kind mismatch"
    (Shmls_support.Err.Error (Shmls_support.Err.make "Attr.int_exn"))
    (fun () -> ignore (Attr.int_exn (Attr.Str "x")))

let test_attr_equal () =
  Alcotest.(check bool) "dicts" true
    (Attr.equal
       (Attr.Dict [ ("a", Attr.Int 1) ])
       (Attr.Dict [ ("a", Attr.Int 1) ]));
  Alcotest.(check bool) "arr vs ints" false
    (Attr.equal (Attr.Arr [ Attr.Int 1 ]) (Attr.Ints [ 1 ]))

(* -- op / use-def ----------------------------------------------------- *)

let make_const v =
  Ir.Op.create ~name:"arith.constant" ~result_tys:[ f64 ]
    ~attrs:[ ("value", Attr.Float v) ] ()

let test_op_create_uses () =
  let c1 = make_const 1.0 and c2 = make_const 2.0 in
  let add =
    Ir.Op.create ~name:"arith.addf"
      ~operands:[ Ir.Op.result c1 0; Ir.Op.result c2 0 ]
      ~result_tys:[ f64 ] ()
  in
  Alcotest.(check int) "c1 used once" 1 (Ir.Value.num_uses (Ir.Op.result c1 0));
  Alcotest.(check int) "add has 2 operands" 2 (Ir.Op.num_operands add);
  Alcotest.(check bool) "defining op" true
    (match Ir.Value.defining_op (Ir.Op.result add 0) with
    | Some o -> Ir.Op.equal o add
    | None -> false)

let test_set_operand () =
  let c1 = make_const 1.0 and c2 = make_const 2.0 in
  let neg =
    Ir.Op.create ~name:"arith.negf" ~operands:[ Ir.Op.result c1 0 ]
      ~result_tys:[ f64 ] ()
  in
  Ir.Op.set_operand neg 0 (Ir.Op.result c2 0);
  Alcotest.(check int) "c1 released" 0 (Ir.Value.num_uses (Ir.Op.result c1 0));
  Alcotest.(check int) "c2 acquired" 1 (Ir.Value.num_uses (Ir.Op.result c2 0))

let test_replace_all_uses () =
  let c1 = make_const 1.0 and c2 = make_const 2.0 in
  let u1 =
    Ir.Op.create ~name:"arith.negf" ~operands:[ Ir.Op.result c1 0 ]
      ~result_tys:[ f64 ] ()
  in
  let u2 =
    Ir.Op.create ~name:"arith.negf" ~operands:[ Ir.Op.result c1 0 ]
      ~result_tys:[ f64 ] ()
  in
  Ir.replace_all_uses ~from:(Ir.Op.result c1 0) ~to_:(Ir.Op.result c2 0);
  Alcotest.(check int) "c1 dead" 0 (Ir.Value.num_uses (Ir.Op.result c1 0));
  Alcotest.(check int) "c2 has both" 2 (Ir.Value.num_uses (Ir.Op.result c2 0));
  Alcotest.(check bool) "operands updated" true
    (Ir.Value.equal (Ir.Op.operand u1 0) (Ir.Op.result c2 0)
    && Ir.Value.equal (Ir.Op.operand u2 0) (Ir.Op.result c2 0))

let test_erase_refuses_used () =
  let c1 = make_const 1.0 in
  let _user =
    Ir.Op.create ~name:"arith.negf" ~operands:[ Ir.Op.result c1 0 ]
      ~result_tys:[ f64 ] ()
  in
  match Ir.Op.erase c1 with
  | exception Shmls_support.Err.Error _ -> ()
  | () -> Alcotest.fail "erasing a used op must fail"

let test_block_insertion () =
  let b = Ir.Block.create () in
  let c1 = make_const 1.0 and c2 = make_const 2.0 and c3 = make_const 3.0 in
  Ir.Block.append b c1;
  Ir.Block.append b c3;
  Ir.Block.insert_before b ~anchor:c3 c2;
  let values =
    List.map
      (fun o -> Attr.float_exn (Ir.Op.get_attr_exn o "value"))
      (Ir.Block.ops b)
  in
  Alcotest.(check (list (float 0.0))) "ordered" [ 1.0; 2.0; 3.0 ] values;
  let c0 = make_const 0.0 in
  Ir.Block.prepend b c0;
  Alcotest.(check int) "four ops" 4 (List.length (Ir.Block.ops b));
  Ir.Op.detach c0;
  Alcotest.(check int) "detached" 3 (List.length (Ir.Block.ops b))

let test_insert_after () =
  let b = Ir.Block.create () in
  let c1 = make_const 1.0 and c2 = make_const 2.0 in
  Ir.Block.append b c1;
  Ir.Block.insert_after b ~anchor:c1 c2;
  let values =
    List.map
      (fun o -> Attr.float_exn (Ir.Op.get_attr_exn o "value"))
      (Ir.Block.ops b)
  in
  Alcotest.(check (list (float 0.0))) "after anchor" [ 1.0; 2.0 ] values

let test_is_before_in_block () =
  let b = Ir.Block.create () in
  let c1 = make_const 1.0 and c2 = make_const 2.0 and c3 = make_const 3.0 in
  Ir.Block.append b c1;
  Ir.Block.append b c2;
  let before x y = Ir.Op.is_before_in_block x y in
  Alcotest.(check (list bool)) "appended" [ true; false; false ]
    [ before c1 c2; before c2 c1; before c1 c1 ];
  (* an insertion after a query renumbers on the next query *)
  Ir.Block.insert_before b ~anchor:c1 c3;
  Alcotest.(check (list bool)) "inserted first" [ true; true; false ]
    [ before c3 c1; before c3 c2; before c2 c3 ];
  Ir.Op.detach c1;
  Alcotest.(check (list bool)) "detached" [ true; false; false ]
    [ before c3 c2; before c1 c2; before c2 c1 ];
  Ir.Block.append b c1;
  Alcotest.(check bool) "re-appended last" true (before c2 c1)

let test_walk_collect () =
  let m = Ir.Module_.create () in
  let region = Builder.build_region (fun b _ ->
      let c = Shmls_dialects.Arith.constant_f b 1.0 in
      ignore (Shmls_dialects.Arith.addf b c c))
  in
  let wrapper = Ir.Op.create ~name:"hls.dataflow" ~regions:[ region ] () in
  Ir.Block.append (Ir.Module_.body m) wrapper;
  Alcotest.(check int) "count_ops" 4 (Ir.count_ops m);
  let adds = Ir.Op.collect m (fun o -> Ir.Op.name o = "arith.addf") in
  Alcotest.(check int) "collect finds nested" 1 (List.length adds)

let test_module_find_func () =
  let m = Ir.Module_.create () in
  let _f =
    Shmls_dialects.Func.build_func m ~name:"foo" ~arg_tys:[ f64 ] ~result_tys:[]
      (fun b _ -> Shmls_dialects.Func.return_ b [])
  in
  Alcotest.(check bool) "found" true (Ir.Module_.find_func m "foo" <> None);
  Alcotest.(check bool) "missing" true (Ir.Module_.find_func m "bar" = None);
  Alcotest.(check int) "one func" 1 (List.length (Ir.Module_.funcs m))

let test_replace_op () =
  let b = Ir.Block.create () in
  let c1 = make_const 1.0 and c2 = make_const 2.0 in
  Ir.Block.append b c1;
  Ir.Block.append b c2;
  let neg =
    Ir.Op.create ~name:"arith.negf" ~operands:[ Ir.Op.result c1 0 ]
      ~result_tys:[ f64 ] ()
  in
  Ir.Block.append b neg;
  Ir.replace_op neg [ Ir.Op.result c2 0 ];
  Alcotest.(check int) "neg removed" 2 (List.length (Ir.Block.ops b))

(* -- builder ----------------------------------------------------------- *)

let test_builder_points () =
  let blk = Ir.Block.create () in
  let b = Builder.at_end blk in
  let c1 = Shmls_dialects.Arith.constant_f b 1.0 in
  let c2 = Shmls_dialects.Arith.constant_f b 2.0 in
  ignore c2;
  (match Ir.Value.defining_op c1 with
  | Some anchor ->
    Builder.set_before b blk anchor;
    ignore (Shmls_dialects.Arith.constant_f b 0.0)
  | None -> Alcotest.fail "constant has no defining op");
  let values =
    List.map
      (fun o -> Attr.float_exn (Ir.Op.get_attr_exn o "value"))
      (Ir.Block.ops blk)
  in
  Alcotest.(check (list (float 0.0))) "insert before works" [ 0.0; 1.0; 2.0 ] values

let () =
  Alcotest.run "ir"
    [
      ( "types",
        [
          Alcotest.test_case "equality" `Quick test_ty_equal;
          Alcotest.test_case "byte sizes" `Quick test_ty_byte_size;
          Alcotest.test_case "bounds" `Quick test_ty_bounds;
        ] );
      ( "attrs",
        [
          Alcotest.test_case "accessors" `Quick test_attr_accessors;
          Alcotest.test_case "equality" `Quick test_attr_equal;
        ] );
      ( "ops",
        [
          Alcotest.test_case "create + uses" `Quick test_op_create_uses;
          Alcotest.test_case "set_operand" `Quick test_set_operand;
          Alcotest.test_case "replace_all_uses" `Quick test_replace_all_uses;
          Alcotest.test_case "erase refuses live uses" `Quick test_erase_refuses_used;
          Alcotest.test_case "replace_op" `Quick test_replace_op;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "insertion order" `Quick test_block_insertion;
          Alcotest.test_case "insert_after" `Quick test_insert_after;
          Alcotest.test_case "is_before_in_block" `Quick test_is_before_in_block;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "walk/collect/count" `Quick test_walk_collect;
          Alcotest.test_case "module find_func" `Quick test_module_find_func;
        ] );
      ( "builder", [ Alcotest.test_case "insertion points" `Quick test_builder_points ] );
    ]
