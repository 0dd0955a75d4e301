(* Tests for the design-space autotuner: Pareto-frontier properties
   (qcheck), end-to-end searches on both paper kernels, resumable
   search state (zero recompiles / zero re-simulations / byte-identical
   file), and the model/measured divergence flag on a seeded bad
   model. *)

module T = Shmls_tune.Tune
module Cost = Shmls_fpga.Cost

let mk_eval ~idx ~mpts ~frac =
  {
    T.ev_point =
      { T.pt_grid = [ idx + 1 ]; pt_variant = Shmls.Variant.default;
        pt_devices = 1 };
    ev_cu = 1;
    ev_ports_per_cu = 1;
    ev_cost = { Cost.zero with Cost.mpts };
    ev_frac = frac;
    ev_feasible = true;
  }

let evals_of_pairs pairs = List.mapi (fun i (m, f) -> mk_eval ~idx:i ~mpts:m ~frac:f) pairs

let pairs_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 30)
      (pair (float_bound_exclusive 1000.0) (float_bound_exclusive 1.0)))

let qcheck_pareto_no_dominated =
  QCheck.Test.make ~count:200 ~name:"pareto frontier has no dominated member"
    pairs_gen (fun pairs ->
      let evals = evals_of_pairs pairs in
      let front = T.pareto evals in
      List.for_all
        (fun e -> not (List.exists (fun f -> T.dominates f e) front))
        front)

let qcheck_pareto_covers =
  QCheck.Test.make ~count:200
    ~name:"every point is on the frontier or dominated by it" pairs_gen
    (fun pairs ->
      let evals = evals_of_pairs pairs in
      let front = T.pareto evals in
      List.for_all
        (fun e ->
          List.exists (fun f -> f == e) front
          || List.exists (fun f -> T.dominates f e) front)
        evals)

let qcheck_pareto_order_invariant =
  QCheck.Test.make ~count:200 ~name:"pareto is invariant under input order"
    QCheck.(pair pairs_gen int)
    (fun (pairs, seed) ->
      let evals = evals_of_pairs pairs in
      let st = Random.State.make [| seed |] in
      let shuffled =
        List.map (fun e -> (Random.State.bits st, e)) evals
        |> List.sort compare |> List.map snd
      in
      T.pareto evals = T.pareto shuffled && T.pareto evals = T.pareto (List.rev evals))

(* ------------------------------------------------------------------ *)
(* End-to-end searches *)

let paper_kernels =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
  ]

let test_paper_kernels_frontier () =
  List.iter
    (fun (name, kernel) ->
      let r = T.run ~max_cu:4 ~jobs:1 kernel ~grids:[ [ 8; 8; 8 ] ] in
      Alcotest.(check bool)
        (name ^ ": frontier non-empty")
        true
        (r.T.r_frontier <> []);
      List.iter
        (fun (fp : T.frontier_point) ->
          Alcotest.(check bool)
            (name ^ ": frontier point bit-exact")
            true
            (fp.T.fp_validation.T.va_max_diff <= 1e-9);
          Alcotest.(check bool)
            (name ^ ": model within tolerance of measured cycles")
            false fp.T.fp_validation.T.va_flagged)
        r.T.r_frontier;
      (* the frontier is sorted by resource fraction, ascending *)
      let fracs = List.map (fun fp -> fp.T.fp_eval.T.ev_frac) r.T.r_frontier in
      Alcotest.(check bool)
        (name ^ ": frontier sorted by fraction")
        true
        (List.sort compare fracs = fracs))
    paper_kernels

(* The default validation scope covers every feasible point (not just
   the frontier). *)
let test_validate_scope () =
  let kernel = Shmls_kernels.Didactic.laplace_2d in
  let grids = [ [ 12; 12 ] ] in
  let all = T.run ~max_cu:2 ~jobs:1 kernel ~grids in
  let feasible = List.filter (fun e -> e.T.ev_feasible) all.T.r_evals in
  Alcotest.(check int)
    "default scope validates every feasible point" (List.length feasible)
    (List.length all.T.r_validations);
  let frontier_only =
    T.run ~max_cu:2 ~jobs:1 ~validate:T.Frontier kernel ~grids
  in
  Alcotest.(check int)
    "frontier scope validates the frontier only"
    (List.length frontier_only.T.r_frontier)
    (List.length frontier_only.T.r_validations);
  Alcotest.(check bool)
    "narrowing the scope keeps the frontier" true
    (frontier_only.T.r_frontier = all.T.r_frontier);
  let top = T.run ~max_cu:2 ~jobs:1 ~validate:(T.Top 1) kernel ~grids in
  Alcotest.(check bool)
    "top-1 still validates the whole frontier" true
    (List.length top.T.r_validations >= List.length top.T.r_frontier);
  Alcotest.(check bool)
    "top-1 adds at most one extra point" true
    (List.length top.T.r_validations
    <= List.length top.T.r_frontier + 1)

let test_validate_scope_parse () =
  Alcotest.(check bool)
    "frontier parses" true
    (T.validate_scope_of_string "frontier" = Ok T.Frontier);
  Alcotest.(check bool)
    "all parses" true
    (T.validate_scope_of_string "all" = Ok T.All);
  Alcotest.(check bool)
    "counts parse" true
    (T.validate_scope_of_string "3" = Ok (T.Top 3));
  Alcotest.(check bool)
    "garbage rejected" true
    (Result.is_error (T.validate_scope_of_string "some"));
  Alcotest.(check string)
    "round-trip" "frontier"
    (T.validate_scope_to_string T.Frontier)

let test_jobs_invariance () =
  let kernel = Shmls_kernels.Didactic.laplace_2d in
  let r1 = T.run ~max_cu:3 ~jobs:1 kernel ~grids:[ [ 12; 12 ] ] in
  let r2 = T.run ~max_cu:3 ~jobs:2 kernel ~grids:[ [ 12; 12 ] ] in
  Alcotest.(check bool) "same evals" true (r1.T.r_evals = r2.T.r_evals);
  Alcotest.(check bool)
    "same validated frontier" true
    (r1.T.r_frontier = r2.T.r_frontier)

let test_infeasible_budget_empty_frontier () =
  let kernel = Shmls_kernels.Didactic.laplace_2d in
  let budget = Shmls.U280.scaled_budget 0.001 in
  let r = T.run ~budget ~max_cu:2 ~jobs:1 kernel ~grids:[ [ 12; 12 ] ] in
  Alcotest.(check (list (Alcotest.testable (fun _ _ -> ()) ( = ))))
    "no feasible point" [] r.T.r_frontier

(* ------------------------------------------------------------------ *)
(* The devices axis: multi-device points priced via the link model,
   validated by the reassembled slab run, competitive on the frontier. *)

let test_devices_axis () =
  let kernel = Shmls_kernels.Didactic.heat_3d in
  let grid = [ 48; 8; 6 ] in
  let r = T.run ~max_cu:2 ~jobs:1 ~devices:[ 1; 2; 4 ] kernel ~grids:[ grid ] in
  let devs (e : T.eval) = e.T.ev_point.T.pt_devices in
  Alcotest.(check bool)
    "multi-device points evaluated" true
    (List.exists (fun e -> devs e = 4) r.T.r_evals);
  Alcotest.(check bool)
    "frontier has a multi-device point" true
    (List.exists (fun (fp : T.frontier_point) -> devs fp.T.fp_eval > 1) r.T.r_frontier);
  (* every multi-device eval carries the link charge: strictly more
     cycles than its slab design priced without the link *)
  List.iter
    (fun (e : T.eval) ->
      if devs e > 1 then begin
        let slab_grid =
          ((List.hd grid + devs e - 1) / devs e) :: List.tl grid
        in
        let c =
          Shmls.compile_cached ~variant:e.T.ev_point.T.pt_variant kernel
            ~grid:slab_grid
        in
        let base = Shmls.Cost_model.evaluate_design c.Shmls.c_design in
        Alcotest.(check bool)
          "link cycles charged" true
          (e.T.ev_cost.Cost.cycles > base.Cost.cycles)
      end)
    r.T.r_evals;
  (* multi-device validations are bit-exact reassembled runs *)
  List.iter
    (fun ((e : T.eval), (v : T.validation)) ->
      if devs e > 1 then
        Alcotest.(check bool) "reassembled run bit-exact" true
          (v.T.va_max_diff <= 1e-9))
    r.T.r_validations;
  (* slab counts beyond the grid's dim-0 rows are pruned *)
  let r2 =
    T.run ~max_cu:1 ~jobs:1 ~devices:[ 1; 64 ] kernel ~grids:[ [ 12; 8; 6 ] ]
  in
  Alcotest.(check bool) "oversplit pruned" true (r2.T.r_pruned_devices > 0);
  Alcotest.(check bool)
    "pruned counts contribute no points" true
    (List.for_all (fun e -> devs e = 1) r2.T.r_evals)

let test_devices_resume () =
  let path = Filename.temp_file "tune_state_md" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let kernel = Shmls_kernels.Didactic.laplace_2d in
      let grids = [ [ 24; 12 ] ] in
      let devices = [ 1; 3 ] in
      let r1 = T.run ~max_cu:2 ~jobs:1 ~devices ~state:path kernel ~grids in
      Alcotest.(check bool) "first run simulates" true (r1.T.r_simulated > 0);
      let ic = open_in_bin path in
      let bytes1 = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let r2 =
        T.run ~max_cu:2 ~jobs:1 ~devices ~state:path ~resume:true kernel
          ~grids
      in
      Alcotest.(check int) "zero new evaluations" 0 r2.T.r_evaluated_new;
      Alcotest.(check int) "zero re-simulations" 0 r2.T.r_simulated;
      let ic = open_in_bin path in
      let bytes2 = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "state byte-identical" bytes1 bytes2;
      Alcotest.(check bool)
        "same frontier" true
        (r1.T.r_frontier = r2.T.r_frontier))

(* ------------------------------------------------------------------ *)
(* Resume *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_resume_zero_work () =
  let path = Filename.temp_file "tune_state" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let kernel = Shmls_kernels.Pw_advection.kernel in
      let grids = [ [ 8; 8; 8 ] ] in
      let r1 = T.run ~max_cu:4 ~jobs:1 ~state:path kernel ~grids in
      Alcotest.(check bool) "first run evaluates" true (r1.T.r_evaluated_new > 0);
      Alcotest.(check bool) "first run simulates" true (r1.T.r_simulated > 0);
      let bytes1 = read_file path in
      (* a resumed identical run does zero compiles and zero sims *)
      Shmls.reset_compile_cache ();
      let r2 = T.run ~max_cu:4 ~jobs:1 ~state:path ~resume:true kernel ~grids in
      Alcotest.(check int) "zero recompiles" 0 (Shmls.compile_runs ());
      Alcotest.(check int) "zero new evaluations" 0 r2.T.r_evaluated_new;
      Alcotest.(check int) "zero re-simulations" 0 r2.T.r_simulated;
      Alcotest.(check int)
        "every point resumed" r1.T.r_evaluated_new r2.T.r_resumed;
      Alcotest.(check string) "state byte-identical" bytes1 (read_file path);
      (* and the resumed report reaches the same frontier *)
      Alcotest.(check bool)
        "same frontier" true
        (r1.T.r_frontier = r2.T.r_frontier);
      (* state written when validation rows still named the cycle-sim
         engine resumes the same way *)
      let legacy =
        String.split_on_char '\n' bytes1
        |> List.map (fun line ->
               if Shmls_support.Jsonl.find_string line "type" = Some "validation"
               then "{\"engine\":\"event\"," ^ String.sub line 1 (String.length line - 1)
               else line)
        |> String.concat "\n"
      in
      let oc = open_out_bin path in
      output_string oc legacy;
      close_out oc;
      let r3 = T.run ~max_cu:4 ~jobs:1 ~state:path ~resume:true kernel ~grids in
      Alcotest.(check int) "legacy state: zero re-simulations" 0 r3.T.r_simulated;
      Alcotest.(check string) "legacy state untouched" legacy (read_file path))

(* ------------------------------------------------------------------ *)
(* Divergence flagging: a model that triples the predicted cycles must
   trip the >10% model/measured comparison on every frontier point. *)

let test_bad_model_flagged () =
  let kernel = Shmls_kernels.Didactic.laplace_2d in
  let ok = T.run ~max_cu:2 ~jobs:1 kernel ~grids:[ [ 12; 12 ] ] in
  Alcotest.(check bool) "frontier non-empty" true (ok.T.r_frontier <> []);
  List.iter
    (fun (fp : T.frontier_point) ->
      let p = fp.T.fp_eval.T.ev_point and v = fp.T.fp_validation in
      (* the model side of a validation is the cost evaluation at one CU *)
      let c =
        Shmls.compile_cached ~variant:p.T.pt_variant kernel ~grid:p.T.pt_grid
      in
      Alcotest.(check (float 0.0))
        "model cycles are the one-CU cost" v.T.va_model_cycles
        (Shmls.Cost_model.evaluate_design ~cu:1 c.Shmls.c_design).Cost.cycles;
      let bad =
        T.judge ~max_diff:v.T.va_max_diff
          ~model_cycles:(3.0 *. v.T.va_model_cycles)
          ~measured_cycles:v.T.va_measured_cycles
          ~fill_divergence:v.T.va_fill_divergence ()
      in
      Alcotest.(check bool)
        "seeded bad model trips the divergence flag" true bad.T.va_flagged)
    ok.T.r_frontier;
  (* the honest model on the same configurations does not *)
  List.iter
    (fun (fp : T.frontier_point) ->
      Alcotest.(check bool)
        "honest model stays within tolerance" false
        fp.T.fp_validation.T.va_flagged)
    ok.T.r_frontier

let () =
  Alcotest.run "tune"
    [
      ( "pareto",
        [
          QCheck_alcotest.to_alcotest qcheck_pareto_no_dominated;
          QCheck_alcotest.to_alcotest qcheck_pareto_covers;
          QCheck_alcotest.to_alcotest qcheck_pareto_order_invariant;
        ] );
      ( "search",
        [
          Alcotest.test_case "paper kernels: validated frontier" `Quick
            test_paper_kernels_frontier;
          Alcotest.test_case "validation scopes (all/frontier/top-n)" `Quick
            test_validate_scope;
          Alcotest.test_case "validate-scope CLI parsing" `Quick
            test_validate_scope_parse;
          Alcotest.test_case "jobs-invariant results" `Quick
            test_jobs_invariance;
          Alcotest.test_case "infeasible budget empties the frontier" `Quick
            test_infeasible_budget_empty_frontier;
          Alcotest.test_case "devices axis: priced, validated, on the frontier"
            `Quick test_devices_axis;
          Alcotest.test_case "devices axis resumes byte-identically" `Quick
            test_devices_resume;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resume does zero work and keeps bytes" `Quick
            test_resume_zero_work;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "seeded bad model is flagged" `Quick
            test_bad_model_flagged;
        ] );
    ]
