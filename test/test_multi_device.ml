(* Multi-device slab decomposition: bit-exactness of the reassembled
   N-slab result against the single-device reference — for every test
   kernel and ablation variant, including mid-run
   halo exchange between sweeps for time-stepping kernels — plus the
   inter-device link model and the ensemble cycle estimate. *)

let () = Shmls_dialects.Register.all ()
let () = Test_common.Helpers.ensure_passes_linked ()

module H = Test_common.Helpers
module MD = Shmls_host.Multi_device
module Link = Shmls_fpga.Link
module Cycle_sim = Shmls_fpga.Cycle_sim

let check_exact what (v : Shmls.verification) =
  if v.v_max_diff <> 0.0 then
    Alcotest.failf "%s: max diff %g (fields: %s)" what v.v_max_diff
      (String.concat ", "
         (List.map (fun (n, d) -> Printf.sprintf "%s=%g" n d) v.v_fields))

(* An in-place (Inout) kernel: the strongest mid-run exchange test —
   every sweep reads what the previous sweep wrote in place. *)
let inout_1d =
  let open Shmls_frontend.Ast in
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "relax_inplace";
    k_rank = 1;
    k_fields = [ { fd_name = "u"; fd_role = Inout } ];
    k_smalls = [];
    k_params = [];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "u";
          sd_expr = const 0.25 *: (fld "u" [ -1 ] +: fld "u" [ 1 ]);
        };
      ];
  }

(* -- plan structure -------------------------------------------------- *)

let test_slab_extents () =
  List.iter
    (fun (n, p) ->
      let e = MD.slab_extents n p in
      Alcotest.(check int) "slab count" p (List.length e);
      Alcotest.(check int) "rows covered" n (List.fold_left ( + ) 0 e);
      List.iter
        (fun x ->
          if x < n / p || x > (n / p) + 1 then
            Alcotest.failf "uneven slab %d for n=%d p=%d" x n p)
        e)
    [ (16, 1); (16, 4); (17, 4); (7, 3); (5, 5) ]

let test_feedback_pairs () =
  let pairs k = MD.feedback_pairs k in
  Alcotest.(check (list (pair string string)))
    "heat_3d"
    [ ("t", "t_new") ]
    (pairs Shmls_kernels.Didactic.heat_3d);
  Alcotest.(check (list (pair string string)))
    "laplace_2d"
    [ ("phi", "phi_new") ]
    (pairs Shmls_kernels.Didactic.laplace_2d);
  Alcotest.(check (list (pair string string)))
    "inout self-pair"
    [ ("u", "u") ]
    (pairs inout_1d);
  Alcotest.(check (list (pair string string)))
    "pw_advection has none" []
    (pairs Shmls_kernels.Pw_advection.kernel)

let test_plan_structure () =
  let p =
    MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 16; 8; 6 ] ~devices:3
  in
  Alcotest.(check int) "three slabs" 3 (List.length p.mp_slabs);
  let slabs = Array.of_list p.mp_slabs in
  Alcotest.(check int) "offsets tile" 0 slabs.(0).sl_offset;
  Alcotest.(check int) "rows covered" 16
    (Array.fold_left (fun a sl -> a + sl.MD.sl_extent) 0 slabs);
  (* heat_3d loads one field (t); edge slabs have one neighbour, the
     middle one two; each (field, neighbour) pair is a recv + a send *)
  Alcotest.(check int) "edge streams" 2 (List.length slabs.(0).sl_exchanges);
  Alcotest.(check int) "middle streams" 4 (List.length slabs.(1).sl_exchanges);
  let h0 = List.hd p.mp_halo in
  let plane =
    Link.halo_plane_bytes ~grid:slabs.(1).sl_grid ~halo:p.mp_halo
  in
  Alcotest.(check int) "middle recv bytes" (2 * h0 * plane)
    (MD.recv_bytes_per_phase slabs.(1));
  match MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 4; 6; 6 ] ~devices:8 with
  | exception Shmls_support.Err.Error _ -> ()
  | _ -> Alcotest.fail "more devices than rows must be rejected"

(* -- bit-exactness --------------------------------------------------- *)

let test_all_kernels_bit_exact () =
  List.iter
    (fun (k, grid) ->
      List.iter
        (fun devices ->
          let p = MD.plan k ~grid ~devices in
          check_exact
            (Printf.sprintf "%s devices=%d" k.Shmls.Ast.k_name devices)
            (MD.verify_vs_reference p))
        [ 1; 2; 3; 4 ])
    (* PW advection sliced into three slabs along a longer dim 0 too *)
    (H.all_test_kernels @ [ (Shmls_kernels.Pw_advection.kernel, [ 24; 10; 8 ]) ])

let test_multi_sweep_bit_exact () =
  (* time-stepping kernels: feedback + halo exchange between sweeps *)
  List.iter
    (fun (k, grid, params) ->
      List.iter
        (fun devices ->
          List.iter
            (fun sweeps ->
              let p = MD.plan k ~grid ~devices ~sweeps in
              check_exact
                (Printf.sprintf "%s devices=%d sweeps=%d" k.Shmls.Ast.k_name
                   devices sweeps)
                (MD.verify_vs_reference ~params p))
            [ 2; 3 ])
        [ 1; 2; 3; 4 ])
    [
      (Shmls_kernels.Didactic.heat_3d, [ 12; 8; 6 ], [ ("alpha", 0.05) ]);
      (Shmls_kernels.Didactic.laplace_2d, [ 14; 12 ], []);
      (inout_1d, [ 24 ], []);
    ]

(* The multi-device ensemble, the reference interpreter and the
   stage-compiler engine agree on a 4-device, 3-sweep heat_3d: the
   ensemble against the interpreter, and on every slab design the
   engine against the interpreter bit for bit (padded arrays, halos
   included) and through [Shmls.verify]. *)
let test_engines_bit_exact () =
  let module Interp = Shmls_interp.Interp in
  let module Grid = Shmls_interp.Grid in
  let module F = Shmls_fpga.Functional in
  let p =
    MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 8; 6 ] ~devices:4
      ~sweeps:3
  in
  check_exact "heat_3d ensemble vs interpreter"
    (MD.verify_vs_reference ~params:[ ("alpha", 0.05) ] p);
  List.iter
    (fun (sl : MD.slab) ->
      let c = sl.sl_compiled in
      let a = Interp.run_lowered ~seed:7 c.c_lowered in
      let b = Interp.alloc_state ~seed:7 c.c_lowered in
      let ptr (_, g) = F.Ptr (g.Grid.data, 0) in
      Shmls_fpga.Stage_compiler.run (Lazy.force c.c_plan)
        ~args:
          (Array.of_list
             (List.map ptr b.fields @ List.map ptr b.smalls
             @ List.map (fun (_, v) -> F.F v) b.params));
      H.check_states_identical (Printf.sprintf "slab %d" sl.sl_device) a b;
      check_exact
        (Printf.sprintf "slab %d verify vs interpreter" sl.sl_device)
        (Shmls.verify c))
    p.mp_slabs

let test_variants_bit_exact () =
  List.iter
    (fun variant ->
      let p =
        MD.plan ~variant Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 8; 6 ]
          ~devices:3 ~sweeps:2
      in
      check_exact
        (Printf.sprintf "heat_3d variant=%s" (Shmls.Variant.to_string variant))
        (MD.verify_vs_reference ~params:[ ("alpha", 0.05) ] p))
    Shmls.Variant.ablation_set

let test_run_accounting () =
  let p =
    MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 8; 6 ] ~devices:3
      ~sweeps:3
  in
  let r = MD.run ~params:[ ("alpha", 0.05) ] p in
  Alcotest.(check int) "one event per slab per sweep" 9
    (List.length r.rr_events);
  Alcotest.(check int) "exchange phases" 2 r.rr_exchange_phases;
  Alcotest.(check bool) "halo bytes moved" true (r.rr_exchanged_bytes > 0);
  let single =
    MD.run ~params:[ ("alpha", 0.05) ]
      (MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 12; 8; 6 ] ~devices:1)
  in
  Alcotest.(check int) "single device exchanges nothing" 0
    single.rr_exchanged_bytes

(* qcheck: random multi-stage kernels, random slab counts and sweeps —
   the reassembled result is always bit-exact. *)
let prop_random_kernel_bit_exact =
  let open QCheck2.Gen in
  let gen =
    let* k = H.gen_kernel in
    let* devices = int_range 1 3 in
    let* sweeps = int_range 1 2 in
    return (k, devices, sweeps)
  in
  H.qtest ~count:12 "random kernels reassemble bit-exactly" gen
    (fun (k, devices, sweeps) ->
      let grid = H.small_grid k.Shmls.Ast.k_rank in
      let p = MD.plan k ~grid ~devices ~sweeps in
      let v = MD.verify_vs_reference p in
      v.v_max_diff = 0.0)

(* The same, with host-level feedback: rename an output to "<in>_out"
   so the plan time-steps it back onto the first input between sweeps. *)
let prop_random_feedback_bit_exact =
  let open QCheck2.Gen in
  let with_feedback (k : Shmls.Ast.kernel) =
    let old_name = "out0" and new_name = "in0_out" in
    {
      k with
      Shmls.Ast.k_fields =
        List.map
          (fun (fd : Shmls.Ast.field_decl) ->
            if fd.fd_name = old_name then { fd with fd_name = new_name }
            else fd)
          k.k_fields;
      k_stencils =
        List.map
          (fun (s : Shmls.Ast.stencil_def) ->
            if s.sd_target = old_name then { s with sd_target = new_name }
            else s)
          k.k_stencils;
    }
  in
  let gen =
    let* k = H.gen_kernel in
    let* devices = int_range 1 3 in
    return (with_feedback k, devices)
  in
  H.qtest ~count:12 "random time-stepped kernels bit-exact" gen
    (fun (k, devices) ->
      let grid = H.small_grid k.Shmls.Ast.k_rank in
      let p = MD.plan k ~grid ~devices ~sweeps:3 in
      Alcotest.(check (list (pair string string)))
        "feedback wired"
        [ ("in0", "in0_out") ]
        (MD.feedback_pairs k);
      let v = MD.verify_vs_reference p in
      v.v_max_diff = 0.0)

(* -- link model ------------------------------------------------------ *)

let test_link_parse () =
  (match Link.of_string "100@250" with
  | Ok l ->
    Alcotest.(check (float 0.0)) "gbps" 100.0 l.lk_gbps;
    Alcotest.(check int) "latency" 250 l.lk_latency
  | Error e -> Alcotest.fail e);
  (match Link.of_string "12.5" with
  | Ok l ->
    Alcotest.(check (float 0.0)) "gbps only" 12.5 l.lk_gbps;
    Alcotest.(check int) "default latency" Link.default.lk_latency l.lk_latency
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Link.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "-3"; "0"; "100@-1"; "100@x" ];
  match Link.of_string (Link.to_string Link.default) with
  | Ok l -> Alcotest.(check bool) "roundtrip" true (l = Link.default)
  | Error e -> Alcotest.fail e

let test_link_charging () =
  let l = { Link.lk_gbps = 24.0; lk_latency = 100 } in
  Alcotest.(check (float 0.0)) "no bytes, no charge" 0.0
    (Link.charged_cycles l ~bytes:0 ~fill:1000);
  let bytes = 80_000 in
  let ser = float_of_int bytes /. Link.bytes_per_cycle l in
  Alcotest.(check (float 1e-9)) "latency never hidden" 100.0
    (Link.charged_cycles l ~bytes ~fill:(int_of_float ser + 500));
  Alcotest.(check (float 1e-9)) "serialisation overlaps fill"
    (100.0 +. (ser -. 100.0))
    (Link.charged_cycles l ~bytes ~fill:100);
  Alcotest.(check (float 1e-9)) "transfer = latency + serialisation"
    (100.0 +. ser)
    (Link.transfer_cycles l ~bytes)

let test_cost_model_identity_and_charge () =
  let fields = Shmls.Cost_model.loaded_fields Shmls_kernels.Didactic.heat_3d in
  Alcotest.(check int) "heat_3d loads one field" 1 fields;
  let c = Shmls.compile_cached Shmls_kernels.Didactic.heat_3d ~grid:[ 32; 8; 6 ] in
  let base = Shmls.Cost_model.evaluate_design c.c_design in
  let one =
    Shmls.Cost_model.evaluate_multi_device ~devices:1 ~global_grid:[ 32; 8; 6 ]
      ~fields c.c_design
  in
  Alcotest.(check (float 0.0)) "devices=1 identity (cycles)" base.cycles
    one.cycles;
  Alcotest.(check (float 0.0)) "devices=1 identity (mpts)" base.mpts one.mpts;
  let slab =
    Shmls.Cost_model.evaluate_multi_device ~devices:4
      ~global_grid:[ 128; 8; 6 ] ~fields
      (Shmls.compile_cached Shmls_kernels.Didactic.heat_3d ~grid:[ 32; 8; 6 ])
        .c_design
  in
  Alcotest.(check bool) "link cycles charged" true (slab.cycles > base.cycles);
  Alcotest.(check bool) "multi-device throughput wins" true
    (slab.mpts > base.mpts)

(* -- ensemble cycle estimate ---------------------------------------- *)

let test_estimate_ensemble () =
  let p4 =
    MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 96; 8; 6 ] ~devices:4
      ~sweeps:2
  in
  let mr = MD.estimate p4 in
  Alcotest.(check int) "four lanes" 4 (List.length mr.Cycle_sim.mr_lanes);
  Alcotest.(check bool) "no deadlock" true (not mr.mr_deadlocked);
  Alcotest.(check bool) "exchange charged" true (mr.mr_exchange_charged > 0.0);
  List.iter
    (fun lane ->
      Alcotest.(check bool) "lane totals consistent" true
        (lane.Cycle_sim.dl_total
        >= float_of_int lane.Cycle_sim.dl_result.Cycle_sim.cycles))
    mr.mr_lanes;
  let p1 = MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 96; 8; 6 ] ~devices:1 in
  let mr1 = MD.estimate p1 in
  Alcotest.(check (float 0.0)) "single device: nothing charged" 0.0
    mr1.mr_exchange_charged;
  let mpts1 = MD.aggregate_mpts p1 mr1 in
  let mpts4 = MD.aggregate_mpts p4 mr in
  Alcotest.(check bool) "aggregate throughput scales" true
    (mpts4 > 2.0 *. mpts1)

let test_summarise () =
  let p =
    MD.plan Shmls_kernels.Didactic.heat_3d ~grid:[ 16; 8; 6 ] ~devices:2
      ~sweeps:2
  in
  let s = MD.summarise p in
  List.iter
    (fun needle ->
      if
        not
          (let nl = String.length needle and sl = String.length s in
           let rec go i =
             i + nl <= sl && (String.sub s i nl = needle || go (i + 1))
           in
           go 0)
      then Alcotest.failf "summary missing %S:\n%s" needle s)
    [ "2 device(s)"; "2 sweep(s)"; "device 0"; "device 1"; "t_new->t" ]

let () =
  Alcotest.run "multi_device"
    [
      ( "plan",
        [
          Alcotest.test_case "slab extents" `Quick test_slab_extents;
          Alcotest.test_case "feedback pairs" `Quick test_feedback_pairs;
          Alcotest.test_case "plan structure" `Quick test_plan_structure;
          Alcotest.test_case "summary" `Quick test_summarise;
        ] );
      ( "bit-exact",
        [
          Alcotest.test_case "all kernels, 1-4 devices" `Quick
            test_all_kernels_bit_exact;
          Alcotest.test_case "multi-sweep time-stepping" `Quick
            test_multi_sweep_bit_exact;
          Alcotest.test_case "all three engines" `Quick test_engines_bit_exact;
          Alcotest.test_case "ablation variants" `Quick test_variants_bit_exact;
          Alcotest.test_case "run accounting" `Quick test_run_accounting;
          prop_random_kernel_bit_exact;
          prop_random_feedback_bit_exact;
        ] );
      ( "link",
        [
          Alcotest.test_case "parse + print" `Quick test_link_parse;
          Alcotest.test_case "charging rules" `Quick test_link_charging;
          Alcotest.test_case "cost-model identity and charge" `Quick
            test_cost_model_identity_and_charge;
        ] );
      ( "estimate",
        [ Alcotest.test_case "ensemble cycles" `Quick test_estimate_ensemble ] );
    ]
