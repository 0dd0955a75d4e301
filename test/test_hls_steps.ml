(* The nine-pass stencil->HLS decomposition: golden-output equivalence
   with the pre-refactor monolith, step-pass plumbing, and the
   neighbourhood-index edge cases of the shift-buffer access mapping. *)

let () = Test_common.Helpers.ensure_passes_linked ()

open Shmls_ir
module S2H = Shmls_transforms.Stencil_to_hls

(* The golden files were produced by the monolithic transformation before
   the nine-pass split; bit-identity modulo nothing (the printer numbers
   values over the printed subtree, so identical structure prints
   identically). *)
let kernels =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel, [ 12; 8; 6 ]);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel, [ 10; 8; 8 ]);
  ]

let golden name =
  In_channel.with_open_text
    (Filename.concat "golden" (name ^ ".hls.mlir"))
    In_channel.input_all

let prepared kernel grid =
  let l = Shmls_frontend.Lower.lower kernel ~grid in
  Shmls_transforms.Shape_inference.run_on_module
    l.Shmls_frontend.Lower.l_module;
  l.Shmls_frontend.Lower.l_module

let print_module m = Printer.to_string m ^ "\n"

let check_golden ctx name got =
  if got <> golden name then
    Alcotest.failf "%s: %s output differs from the monolith's golden file"
      name ctx

let test_functional_matches_golden () =
  List.iter
    (fun (name, kernel, grid) ->
      let m = prepared kernel grid in
      let m_hls, _plans = S2H.run m in
      Verifier.verify_exn m_hls;
      check_golden "functional run" name (print_module m_hls);
      (* the input module must be left intact: Shmls.verify re-interprets
         the stencil-dialect module after compilation *)
      Verifier.verify_exn m;
      Alcotest.(check bool)
        (name ^ ": stencil ops still present") true
        (Ir.Op.collect m (fun o -> Ir.Op.name o = "stencil.apply") <> []))
    kernels

let test_composite_pass_matches_golden () =
  List.iter
    (fun (name, kernel, grid) ->
      let m = prepared kernel grid in
      let stats =
        Pass.run_pipeline ~verify_each:true
          (Pass.parse_pipeline "stencil-to-hls")
          m
      in
      Alcotest.(check int) (name ^ ": nine steps ran") 9 (List.length stats);
      check_golden "in-place composite pipeline" name (print_module m))
    kernels

let test_subrange_resumes () =
  (* running steps 1-4 and then 5-9 as separate pipeline invocations must
     land on the same result: the lowering context survives between
     pipelines via the module attribute *)
  List.iter
    (fun (name, kernel, grid) ->
      let m = prepared kernel grid in
      let s1 =
        Pass.run_pipeline (Pass.parse_pipeline "stencil-to-hls{steps=1-4}") m
      in
      let s2 =
        Pass.run_pipeline (Pass.parse_pipeline "stencil-to-hls{steps=5-9}") m
      in
      Alcotest.(check int) "4 + 5 steps" 9 (List.length s1 + List.length s2);
      check_golden "split 1-4 / 5-9 pipelines" name (print_module m))
    kernels

let test_individually_named_passes () =
  (* each step is a registered pass of its own; running them by name in
     paper order reproduces the composite *)
  List.iter
    (fun (name, kernel, grid) ->
      let m = prepared kernel grid in
      List.iter
        (fun p -> p.Pass.run m)
        (List.map
           (fun p -> Pass.lookup_exn p.Pass.pass_name)
           S2H.step_passes);
      check_golden "individually looked-up step passes" name (print_module m))
    kernels

let test_run_with_stats () =
  let _, kernel, grid = List.hd kernels in
  let m = prepared kernel grid in
  let m_hls, plans, stats = S2H.run_with_stats m in
  Verifier.verify_exn m_hls;
  Alcotest.(check int) "one plan" 1 (List.length plans);
  Alcotest.(check (list string))
    "nine stats in step order"
    (List.map (fun p -> p.Pass.pass_name) S2H.step_passes)
    (List.map (fun s -> s.Pass.stat_pass) stats);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Pass.stat_pass ^ ": non-negative duration")
        true
        (s.Pass.duration_s >= 0.0))
    stats;
  (* the lowering only adds ops, it never leaves fewer than it found *)
  let first = List.hd stats and last = List.nth stats 8 in
  Alcotest.(check bool) "pipeline grows the module" true
    (last.Pass.ops_after > first.Pass.ops_before)

(* Op counts at every step boundary, [ops_before>ops_after] per step, as
   the pipeline counted them when it walked the module before and after
   every step (PW and tracer at their small grids, after apply-split). *)
let pinned_op_counts =
  let split = "1>1 1>2 2>59 59>233 233>233 233>235 235>237 237>363 363>374" in
  let fused = "1>1 1>2 2>5 5>157 157>401 401>403 403>403 403>527 527>538" in
  let t_split =
    "1>1 1>2 2>358 358>901 901>895 895>897 897>899 899>899 899>917"
  in
  let t_fused =
    "1>1 1>2 2>8 8>891 891>1206 1206>1208 1208>1208 1208>1208 1208>1226"
  in
  let by_split v s f = if v.Shmls.Variant.v_split then s else f in
  [
    ( Shmls_kernels.Pw_advection.kernel,
      Shmls_kernels.Pw_advection.grid_small,
      fun v -> by_split v split fused );
    ( Shmls_kernels.Tracer_advection.kernel,
      Shmls_kernels.Tracer_advection.grid_small,
      fun v -> by_split v t_split t_fused );
  ]

let show_counts stats =
  String.concat " "
    (List.map
       (fun s -> Printf.sprintf "%d>%d" s.Pass.ops_before s.Pass.ops_after)
       stats)

(* Each pass's ops_before is the previous pass's ops_after, carried over
   rather than recounted; the carried numbers must be the ones an
   explicit count at that boundary gives. *)
let test_threaded_op_counts () =
  List.iter
    (fun ((kernel : Shmls.Ast.kernel), grid, expected) ->
      List.iter
        (fun variant ->
          let what = kernel.k_name ^ "@" ^ Shmls.Variant.to_string variant in
          let m = prepared kernel grid in
          ignore (Shmls_transforms.Apply_split.run_on_module m);
          let m_hls, _, stats = S2H.run_with_stats ~variant m in
          Alcotest.(check string) (what ^ ": step op counts") (expected variant)
            (show_counts stats);
          ignore
            (List.fold_left
               (fun prev s ->
                 Option.iter
                   (fun p ->
                     Alcotest.(check int)
                       (what ^ ": " ^ s.Pass.stat_pass ^ " starts where the last step ended")
                       p.Pass.ops_after s.Pass.ops_before)
                   prev;
                 Some s)
               None stats);
          Alcotest.(check int) (what ^ ": ops_out") (Ir.count_ops m_hls)
            (List.nth stats 8).Pass.ops_after;
          (* the in-place pipeline, counted by carrying over and, with a
             hook (which forces a recount), explicitly at every boundary *)
          let spec =
            if Shmls.Variant.is_default variant then "stencil-to-hls"
            else "stencil-to-hls{variant=" ^ Shmls.Variant.to_string variant ^ "}"
          in
          let run ?hooks () =
            let m = prepared kernel grid in
            ignore (Shmls_transforms.Apply_split.run_on_module m);
            Pass.run_pipeline ?hooks ~op_stats:true (Pass.parse_pipeline spec) m
          in
          let explicit = ref [] in
          let hook =
            {
              Pass.h_before = (fun _ m -> explicit := Ir.count_ops m :: !explicit);
              h_after = (fun _ _ m -> explicit := Ir.count_ops m :: !explicit);
            }
          in
          let counted = run ~hooks:[ hook ] () in
          let carried = run () in
          Alcotest.(check string) (what ^ ": carried counts") (show_counts counted)
            (show_counts carried);
          Alcotest.(check (list int))
            (what ^ ": explicit counts")
            (List.rev !explicit)
            (List.concat_map (fun s -> [ s.Pass.ops_before; s.Pass.ops_after ]) carried))
        Shmls.Variant.ablation_set)
    pinned_op_counts

let test_steps_require_order () =
  let _, kernel, grid = List.hd kernels in
  (* a mid-pipeline step without a lowering in progress must fail with a
     pointer at the missing predecessor *)
  let m = prepared kernel grid in
  (match Pass.run_pipeline (Pass.parse_pipeline "stencil-to-hls{steps=3}") m with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "step 3 without steps 1-2 must raise");
  (* skipping a predecessor inside an active lowering must also fail *)
  let m2 = prepared kernel grid in
  let _ = Pass.run_pipeline (Pass.parse_pipeline "stencil-to-hls{steps=1}") m2 in
  match Pass.run_pipeline (Pass.parse_pipeline "stencil-to-hls{steps=3}") m2 with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "step 3 without step 2 must raise"

(* -- fused (no-split) bodies: value-numbered address arithmetic ------- *)

let no_split =
  match Shmls_transforms.Variant.of_string "no-split" with
  | Ok v -> v
  | Error e -> failwith e

let fused_kernels =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
    ("heat_3d", Shmls_kernels.Didactic.heat_3d);
    ("acoustic_wave_3d", Shmls_kernels.Zoo.acoustic_wave_3d);
  ]

let fused_grid = [ 12; 10; 8 ]

(* The loop bodies of the fused compute stage. *)
let fused_bodies m =
  Ir.Op.collect m (fun o ->
      Ir.Op.name o = "hls.dataflow"
      && Ir.Op.get_attr o "target" = Some (Attr.Str "fused"))
  |> List.concat_map (fun df -> Ir.Op.collect df (fun o -> Ir.Op.name o = "scf.for"))
  |> List.map (fun loop -> Ir.Region.entry (List.hd (Ir.Op.regions loop)))

let test_fused_no_duplicate_address_ops () =
  (* after step 5, no two index- or i1-typed ops and no two constants in
     a fused loop body may compute the same value: every constant,
     coordinate, clamp, range compare and stride product is built once *)
  List.iter
    (fun (name, kernel) ->
      let m = prepared kernel fused_grid in
      ignore
        (Pass.run_pipeline
           (Pass.parse_pipeline "stencil-to-hls{variant=no-split,steps=1-5}")
           m);
      let bodies = fused_bodies m in
      if bodies = [] then Alcotest.failf "%s: no fused loop body" name;
      List.iter
        (fun body ->
          let seen = Hashtbl.create 64 in
          Ir.Block.iter_ops body (fun op ->
              match Ir.Op.results op with
              | [ r ]
                when Ir.Op.name op = "arith.constant"
                     || Ty.equal (Ir.Value.ty r) Ty.Index
                     || Ty.equal (Ir.Value.ty r) Ty.I1 ->
                let key =
                  ( Ir.Op.name op,
                    List.map Ir.Value.id (Ir.Op.operands op),
                    List.map (fun (k, a) -> (k, Attr.to_string a)) (Ir.Op.attrs op),
                    Ir.Value.ty r )
                in
                if Hashtbl.mem seen key then
                  Alcotest.failf "%s: duplicate %s in a fused loop body" name
                    (Printer.to_string op);
                Hashtbl.add seen key ()
              | _ -> ()))
        bodies)
    fused_kernels

(* The loop indices step 4 recovers from a fused body's induction
   variable: [iv / s0], [(iv mod s0) / s1], ..., the last remainder. *)
let recovered_indices body ~rank =
  let user name v =
    List.find_map
      (fun (u : Ir.use) ->
        if Ir.Op.name u.u_op = name && u.u_index = 0 then
          Some (Ir.Op.result u.u_op 0)
        else None)
      (Ir.Value.uses v)
    |> function
    | Some r -> r
    | None -> Alcotest.failf "fused body: no %s recovering a loop index" name
  in
  let rec go x d =
    if d = rank - 1 then [ x ]
    else user "arith.divsi" x :: go (user "arith.remsi" x) (d + 1)
  in
  go (Ir.Block.arg body 0) 0

let int_constant v =
  match Ir.Value.defining_op v with
  | Some d when Ir.Op.name d = "arith.constant" ->
    Some (Attr.int_exn (Ir.Op.get_attr_exn d "value"))
  | _ -> None

let test_fused_bounds_follow_offset () =
  (* every recovered index lies in [0, ext), so [idx + o] can leave the
     padded extent only below when o < 0 and only above when o > 0:
     after step 5 an unshifted index is never compared or selected, and
     a shifted one has one clamp (a compare and a select) and one range
     compare, both on the side its offset can leave *)
  let seen_neg = ref 0 and seen_pos = ref 0 in
  List.iter
    (fun (name, kernel) ->
      let m = prepared kernel fused_grid in
      ignore
        (Pass.run_pipeline
           (Pass.parse_pipeline "stencil-to-hls{variant=no-split,steps=1-5}")
           m);
      List.iter
        (fun body ->
          List.iter
            (fun idx ->
              List.iter
                (fun (u : Ir.use) ->
                  let op = u.u_op in
                  match Ir.Op.name op with
                  | "arith.cmpi" | "arith.select" ->
                    Alcotest.failf "%s: %s reads an unshifted loop index" name
                      (Printer.to_string op)
                  | "arith.addi" -> (
                    match int_constant (Ir.Op.operand op 1) with
                    | None -> ()
                    | Some o ->
                      let c = Ir.Op.result op 0 in
                      let users = List.map (fun (u : Ir.use) -> u.u_op) (Ir.Value.uses c) in
                      let compares =
                        List.filter_map
                          (fun o' ->
                            if Ir.Op.name o' <> "arith.cmpi" then None
                            else
                              Some
                                ( Attr.str_exn (Ir.Op.get_attr_exn o' "predicate"),
                                  int_constant (Ir.Op.operand o' 1) ))
                          users
                        |> List.sort compare
                      in
                      let selects =
                        List.filter (fun o' -> Ir.Op.name o' = "arith.select") users
                      in
                      let what = Printf.sprintf "%s: coordinate at offset %d" name o in
                      Alcotest.(check int) (what ^ ": one clamp select") 1
                        (List.length selects);
                      (match compares with
                      | [ (ge, Some 0); (lt, Some 0) ] when o < 0 ->
                        incr seen_neg;
                        Alcotest.(check (pair string string))
                          (what ^ ": clamp and range compare below") ("sge", "slt")
                          (ge, lt)
                      | [ (gt, Some maxi); (lt, Some ext) ] when o > 0 ->
                        incr seen_pos;
                        Alcotest.(check (pair string string))
                          (what ^ ": clamp and range compare above") ("sgt", "slt")
                          (gt, lt);
                        Alcotest.(check int) (what ^ ": clamp at ext - 1") (ext - 1) maxi
                      | _ ->
                        Alcotest.failf "%s: compares [%s]" what
                          (String.concat "; " (List.map fst compares))))
                  | _ -> ())
                (Ir.Value.uses idx))
            (recovered_indices body ~rank:(List.length fused_grid)))
        (fused_bodies m))
    fused_kernels;
  Alcotest.(check bool) "negative and positive offsets both met" true
    (!seen_neg > 0 && !seen_pos > 0)

let value_defining_ops m =
  List.length (Ir.Op.collect m (fun o -> Ir.Op.results o <> []))

let test_fused_op_count () =
  (* 352 value-defining ops when every access rebuilt its own address
     arithmetic, 163 with value numbering and two-sided bounds checks *)
  let m = prepared Shmls_kernels.Didactic.heat_3d fused_grid in
  let m_hls, _ = S2H.run ~variant:no_split m in
  let n = value_defining_ops m_hls in
  if n > 91 then
    Alcotest.failf "heat_3d no-split %s: %d value-defining ops (want <= 91)"
      (String.concat "x" (List.map string_of_int fused_grid))
      n

let test_fused_flops_unchanged () =
  (* sharing never reaches float ops: the cost and cycle models price the
     fused stage from its flop count (values as before value numbering) *)
  let expected =
    [
      ("pw_advection", 63);
      ("tracer_advection", 537);
      ("heat_3d", 9);
      ("acoustic_wave_3d", 28);
    ]
  in
  List.iter
    (fun (name, kernel) ->
      let m = prepared kernel fused_grid in
      let m_hls, _ = S2H.run ~variant:no_split m in
      let flops =
        Shmls_fpga.Extract.extract_module m_hls
        |> List.concat_map (fun (d : Shmls_fpga.Design.t) -> d.Shmls_fpga.Design.d_stages)
        |> List.filter_map (function
             | Shmls_fpga.Design.Compute c -> Some c.flops
             | _ -> None)
      in
      Alcotest.(check (list int)) (name ^ ": fused stage flops")
        [ List.assoc name expected ] flops)
    fused_kernels

(* -- nb_index: the halo/boundary arithmetic of step 5 ----------------- *)

let test_nb_index_cube_corners () =
  let halo = [ 1; 1; 1 ] in
  Alcotest.(check int) "27-point cube" 27 (S2H.nb_size halo);
  Alcotest.(check int) "low corner" 0 (S2H.nb_index halo [ -1; -1; -1 ]);
  Alcotest.(check int) "centre" 13 (S2H.nb_index halo [ 0; 0; 0 ]);
  Alcotest.(check int) "high corner" 26 (S2H.nb_index halo [ 1; 1; 1 ]);
  (* row-major: the last dimension is contiguous *)
  Alcotest.(check int) "unit step in z" 14 (S2H.nb_index halo [ 0; 0; 1 ]);
  Alcotest.(check int) "unit step in y" 16 (S2H.nb_index halo [ 0; 1; 0 ]);
  Alcotest.(check int) "unit step in x" 22 (S2H.nb_index halo [ 1; 0; 0 ])

let test_nb_index_asymmetric_halo () =
  (* zero-halo dimensions collapse to a single plane *)
  let halo = [ 2; 0; 1 ] in
  Alcotest.(check int) "5x1x3 cube" 15 (S2H.nb_size halo);
  Alcotest.(check int) "low corner" 0 (S2H.nb_index halo [ -2; 0; -1 ]);
  Alcotest.(check int) "centre" 7 (S2H.nb_index halo [ 0; 0; 0 ]);
  Alcotest.(check int) "high corner" 14 (S2H.nb_index halo [ 2; 0; 1 ]);
  Alcotest.(check int) "mixed" 9 (S2H.nb_index halo [ 1; 0; -1 ])

let test_nb_index_beyond_halo_raises () =
  List.iter
    (fun (halo, offset) ->
      match S2H.nb_index halo offset with
      | exception Shmls_support.Err.Error _ -> ()
      | i ->
        Alcotest.failf "offset beyond halo must raise (got index %d)" i)
    [
      ([ 1; 1; 1 ], [ 2; 0; 0 ]);
      ([ 1; 1; 1 ], [ 0; 0; -2 ]);
      ([ 2; 0; 1 ], [ 0; 1; 0 ]);
      ([ 0 ], [ 1 ]);
    ]

let () =
  Alcotest.run "hls_steps"
    [
      ( "golden",
        [
          Alcotest.test_case "functional run" `Quick
            test_functional_matches_golden;
          Alcotest.test_case "composite pipeline" `Quick
            test_composite_pass_matches_golden;
          Alcotest.test_case "subrange pipelines resume" `Quick
            test_subrange_resumes;
          Alcotest.test_case "individually named passes" `Quick
            test_individually_named_passes;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "run_with_stats" `Quick test_run_with_stats;
          Alcotest.test_case "threaded op counts" `Quick test_threaded_op_counts;
          Alcotest.test_case "steps require order" `Quick
            test_steps_require_order;
        ] );
      ( "fused",
        [
          Alcotest.test_case "no duplicate address ops" `Quick
            test_fused_no_duplicate_address_ops;
          Alcotest.test_case "fused bounds follow the offset" `Quick
            test_fused_bounds_follow_offset;
          Alcotest.test_case "heat_3d op count" `Quick test_fused_op_count;
          Alcotest.test_case "flops unchanged" `Quick
            test_fused_flops_unchanged;
        ] );
      ( "nb_index",
        [
          Alcotest.test_case "cube corners" `Quick test_nb_index_cube_corners;
          Alcotest.test_case "asymmetric halo" `Quick
            test_nb_index_asymmetric_halo;
          Alcotest.test_case "beyond halo raises" `Quick
            test_nb_index_beyond_halo_raises;
        ] );
    ]
