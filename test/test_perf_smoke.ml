(* Deterministic performance-smoke tests: instead of timing (noisy on
   shared CI), assert the algorithmic counters the perf work targets —
   worklist-driver visit/iteration budgets on the paper kernels, the
   compile-once guarantee of evaluate_all, and the pass-manager memo.
   The one timed check, verifier scaling, compares two sizes in one
   process, so the machine's speed cancels out. *)

let () = Shmls_dialects.Register.all ()
let () = Shmls_transforms.Register.all ()

open Shmls_ir
module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

let canonicalize m = (Pass.lookup_exn "canonicalize").Pass.run m

(* ------------------------------------------------------------------ *)
(* Worklist driver budgets *)

(* A chain of n foldable addf ops: x0 = 1.0, x_{i+1} = x_i + x_i.  The
   old re-snapshot driver re-walked the whole tree every iteration; the
   worklist driver folds the seeded queue in O(1) generations because
   each op's operands are already folded when it is dequeued. *)
let fold_chain n =
  let m = Ir.Module_.create () in
  let _ =
    Shmls_dialects.Func.build_func m ~name:"f" ~arg_tys:[] ~result_tys:[]
      (fun b _ ->
        let x = ref (Shmls_dialects.Arith.constant_f b 1.0) in
        for _ = 1 to n do
          x := Shmls_dialects.Arith.addf b !x !x
        done;
        Shmls_dialects.Func.return_ b [])
  in
  m

let driver_stats () =
  match Rewriter.last_stats () with
  | Some s -> s
  | None -> Alcotest.fail "rewrite driver recorded no stats"

let test_chain_budget () =
  let n = 256 in
  let m = fold_chain n in
  canonicalize m;
  let s = driver_stats () in
  Alcotest.(check string) "driver name" "canonicalize" s.Rewriter.ds_driver;
  Alcotest.(check int) "all adds folded" n s.Rewriter.ds_rewrites;
  (* seeded drain + at most one rewrite generation + verification sweeps *)
  if s.Rewriter.ds_iterations > 4 then
    Alcotest.failf "fold chain took %d driver iterations (budget 4)"
      s.Rewriter.ds_iterations;
  (* each op is visited from the seed, once per neighbourhood re-enqueue,
     and once by the confirmation sweep: comfortably under 5 visits/op *)
  let budget = 5 * ((2 * n) + 4) in
  if s.Rewriter.ds_visits > budget then
    Alcotest.failf "fold chain made %d visits (budget %d)"
      s.Rewriter.ds_visits budget;
  Alcotest.(check (list (pair string int)))
    "per-pattern fire counts"
    [ ("arith-fold", n) ]
    s.Rewriter.ds_fires

let kernel_budget name (kernel : Shmls_frontend.Ast.kernel) ~grid () =
  let lowered = Shmls_frontend.Lower.lower kernel ~grid in
  let m = lowered.Shmls_frontend.Lower.l_module in
  Shmls_transforms.Shape_inference.run_on_module m;
  let ops = Ir.count_ops m in
  canonicalize m;
  let s = driver_stats () in
  if s.Rewriter.ds_iterations > 6 then
    Alcotest.failf "%s: %d driver iterations (budget 6)" name
      s.Rewriter.ds_iterations;
  if s.Rewriter.ds_visits > 6 * ops then
    Alcotest.failf "%s: %d visits on %d ops (budget %d)" name
      s.Rewriter.ds_visits ops (6 * ops)

(* ------------------------------------------------------------------ *)
(* Compile-once evaluation *)

let test_compile_once () =
  Shmls.reset_compile_cache ();
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "first evaluate_all compiles once" 1
    (Shmls.compile_runs ());
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "second evaluate_all compiles nothing" 1
    (Shmls.compile_runs ());
  ignore (Shmls.evaluate_all TA.kernel ~grid:TA.grid_small);
  Alcotest.(check int) "new kernel compiles once more" 2
    (Shmls.compile_runs ());
  let hits, misses = Shmls.compile_cache_stats () in
  Alcotest.(check (pair int int)) "cache hits/misses" (1, 2) (hits, misses);
  Shmls.reset_compile_cache ()

(* ------------------------------------------------------------------ *)
(* Compile-once functional-sim plans *)

(* The stage-compiler plan is memoised on the compiled record (a lazy
   forced on first verify): repeated verifications — the 10-run bench
   protocol — compile the plan exactly once, and a second evaluate_all
   recompiles nothing at either level. *)
let test_stage_compile_once () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  Alcotest.(check int) "compile builds no plan eagerly" 0
    (Shmls.Stage_compiler.compile_count ());
  let v1 = Shmls.verify c in
  Alcotest.(check (float 0.0)) "verify is bit-exact" 0.0 v1.v_max_diff;
  Alcotest.(check int) "first verify builds one plan" 1
    (Shmls.Stage_compiler.compile_count ());
  for _ = 1 to 9 do
    ignore (Shmls.verify c)
  done;
  Alcotest.(check int) "ten verifications share the plan" 1
    (Shmls.Stage_compiler.compile_count ());
  ignore (Shmls.report_text c);
  (* and a second evaluate_all recompiles nothing at either level *)
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  let runs = Shmls.compile_runs () in
  ignore (Shmls.evaluate_all PW.kernel ~grid:PW.grid_small);
  Alcotest.(check int) "second evaluate_all: zero pipeline recompiles" runs
    (Shmls.compile_runs ());
  Alcotest.(check int) "second evaluate_all: zero plan recompiles" 1
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ()

(* ------------------------------------------------------------------ *)
(* Plan/run-state split *)

(* A parallel sweep shares immutable plans across jobs: one plan per
   distinct kernel, and repeating the sweep — the bench protocol —
   recompiles nothing. *)
let test_parallel_sweep_zero_recompiles () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  let configs = [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ] in
  ignore (Shmls.sweep ~jobs:4 ~verify_designs:true configs);
  let plans = Shmls.Stage_compiler.compile_count () in
  Alcotest.(check int) "one plan per distinct kernel" 2 plans;
  for _ = 1 to 3 do
    ignore (Shmls.sweep ~jobs:4 ~verify_designs:true configs)
  done;
  Alcotest.(check int) "repeated parallel sweeps: zero plan recompiles" plans
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ()

(* Run states are cached per domain per plan: repeated runs on one
   domain allocate exactly one state, and k runs from each of n fresh
   domains allocate exactly n more. *)
let test_run_state_budget () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_state_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  ignore (Shmls.verify c);
  let base = Shmls.Stage_compiler.state_count () in
  Alcotest.(check int) "first verify allocates one state" 1 base;
  for _ = 1 to 5 do
    ignore (Shmls.verify c)
  done;
  Alcotest.(check int) "same domain reuses its cached state" base
    (Shmls.Stage_compiler.state_count ());
  let domains =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 4 do
              ignore (Shmls.verify c)
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "one state per fresh domain" (base + 3)
    (Shmls.Stage_compiler.state_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_state_count ()

(* The engine's memoisation scheme end to end: one plan per compiled
   record across repeated verifies and repeated sweeps (zero plan
   recompiles), and run states cached per domain — batching must not
   cost a compile or a state allocation per run. *)
let test_batched_plan_and_state_budget () =
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  Shmls.Stage_compiler.reset_state_count ();
  let c = Shmls.compile_cached PW.kernel ~grid:PW.grid_small in
  let v = Shmls.verify c in
  Alcotest.(check (float 0.0)) "batched verify is bit-exact" 0.0 v.v_max_diff;
  Alcotest.(check int) "first batched verify builds one plan" 1
    (Shmls.Stage_compiler.compile_count ());
  let base = Shmls.Stage_compiler.state_count () in
  Alcotest.(check int) "first batched verify allocates one state" 1 base;
  for _ = 1 to 9 do
    ignore (Shmls.verify c)
  done;
  Alcotest.(check int) "ten batched verifications share the plan" 1
    (Shmls.Stage_compiler.compile_count ());
  Alcotest.(check int) "same domain reuses its cached state" base
    (Shmls.Stage_compiler.state_count ());
  (* batched sweeps share the memoised plans too *)
  let configs = [ (PW.kernel, PW.grid_small); (TA.kernel, TA.grid_small) ] in
  ignore (Shmls.sweep ~jobs:4 ~verify_designs:true configs);
  let plans = Shmls.Stage_compiler.compile_count () in
  Alcotest.(check int) "one more plan for the new kernel" 2 plans;
  for _ = 1 to 3 do
    ignore (Shmls.sweep ~jobs:4 ~verify_designs:true configs)
  done;
  Alcotest.(check int) "repeated batched sweeps: zero plan recompiles" plans
    (Shmls.Stage_compiler.compile_count ());
  Shmls.reset_compile_cache ();
  Shmls.Stage_compiler.reset_compile_count ();
  Shmls.Stage_compiler.reset_state_count ()

(* A cached run state must not outlive what it serves: after a run it
   holds no reference to the run's argument grids, and once its plan is
   unreachable the state itself (rings sized to the whole stream) is
   collectable — so repeated searches on one domain do not accumulate
   states. *)
let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let args_of (st : Shmls.Interp.kernel_state) =
  List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Shmls.Grid.data, 0)) st.fields
  @ List.map (fun (_, g) -> Shmls.Functional.Ptr (g.Shmls.Grid.data, 0)) st.smalls
  @ List.map (fun (_, v) -> Shmls.Functional.F v) st.params
  |> Array.of_list

(* Run [plan] on fresh inputs; [weak] is pointed at one input grid. *)
let[@inline never] run_on_fresh_inputs (c : Shmls.compiled) plan weak =
  let st = Shmls.Interp.alloc_state c.c_lowered in
  Weak.set weak 0 (Some (snd (List.hd st.fields)).Shmls.Grid.data);
  Shmls.Stage_compiler.run plan ~args:(args_of st)

let[@inline never] run_on_fresh_plan (c : Shmls.compiled) =
  run_on_fresh_inputs c
    (Shmls.Stage_compiler.compile c.c_design)
    (Weak.create 1)

let test_state_releases_args_and_plan () =
  let c =
    Shmls.compile Shmls_kernels.Didactic.heat_3d ~grid:[ 24; 20; 16 ]
  in
  let plan = Shmls.Stage_compiler.compile c.c_design in
  let weak = Weak.create 1 in
  run_on_fresh_inputs c plan weak;
  ignore (live_words ());
  Alcotest.(check bool) "argument grids collectable after the run" false
    (Weak.check weak 0);
  (* the run state of a dropped plan: its 27-lane neighbourhood ring
     alone holds 27 words per padded point *)
  let before = live_words () in
  run_on_fresh_plan c;
  let retained = live_words () - before in
  let ring_words = 27 * Shmls.Design.total_padded c.c_design in
  if retained > ring_words / 4 then
    Alcotest.failf "a dropped plan's run state is still live (%d words)"
      retained

(* The first run of a fresh plan allocates its run state: rings sized
   from the design plus one padded window per shift.  That is linear in
   (padded points x streams) and independent of the neighbourhood width
   — a materialising shift would allocate 125 floats per padded point
   for this 3-D halo-2 kernel.  The run's arrays, halos included, are
   the reference interpreter's bit for bit. *)
let test_first_run_allocation () =
  let c =
    Shmls.compile Shmls_kernels.Zoo.acoustic_wave_3d ~grid:[ 24; 20; 16 ]
  in
  let d = c.c_design in
  Alcotest.(check bool) "the design shifts 125-lane neighbourhoods" true
    (List.exists
       (fun (s : Shmls.Design.stream) ->
         match s.st_elem with Ty.Array (125, _) -> true | _ -> false)
       d.d_streams);
  let plan = Shmls.Stage_compiler.compile d in
  let st = Shmls.Interp.alloc_state c.c_lowered in
  let args = args_of st in
  let before = Gc.allocated_bytes () in
  Shmls.Stage_compiler.run plan ~args;
  let bytes = Gc.allocated_bytes () -. before in
  Test_common.Helpers.check_states_identical "first run"
    (Shmls.Interp.run_lowered c.c_lowered)
    st;
  let budget =
    3.0 *. 8.0
    *. float_of_int
         (Shmls.Design.total_padded d * List.length d.Shmls.Design.d_streams)
  in
  if bytes > budget then
    Alcotest.failf
      "the first batched run allocates %.0f bytes (budget %.0f: 3 floats per \
       padded point per stream)"
      bytes budget

(* ------------------------------------------------------------------ *)
(* Reference interpreter allocation *)

(* Minor words a warm [Interp.run_func] allocates per interior point, on
   the shape-inferred, apply-split module --verify interprets.  Decoding
   each apply body is paid once per run; the point loop itself must not
   allocate. *)
let interp_words_per_point (kernel : Shmls_frontend.Ast.kernel) ~grid =
  let l = Shmls_frontend.Lower.lower kernel ~grid in
  Shmls_transforms.Shape_inference.run_on_module l.l_module;
  ignore (Shmls_transforms.Apply_split.run_on_module l.l_module);
  let args = Shmls.Interp.state_args (Shmls.Interp.alloc_state l) in
  let run () = ignore (Shmls.Interp.run_func l.l_func ~args) in
  run ();
  let before = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. before) /. float_of_int (List.fold_left ( * ) 1 grid)

let test_interp_allocation () =
  List.iter
    (fun (name, kernel, grid) ->
      let words = interp_words_per_point kernel ~grid in
      if words > 1.0 then
        Alcotest.failf
          "%s: the reference interpreter allocates %.1f minor words per \
           point (budget 1)"
          name words)
    [
      ("heat_3d 48x32x24", Shmls_kernels.Didactic.heat_3d, [ 48; 32; 24 ]);
      ("pw_advection 32x24x16", PW.kernel, [ 32; 24; 16 ]);
      ("tracer_advection 32x24x16", TA.kernel, [ 32; 24; 16 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Pass-result memo *)

let test_pass_memo () =
  Pass.reset_memo ();
  let m = fold_chain 16 in
  let p = Pass.lookup_exn "canonicalize" in
  let s1 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "first run not cached" false s1.Pass.stat_cached;
  (* the module is now canonical: this run is a recorded no-op ... *)
  let s2 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "second run not cached" false s2.Pass.stat_cached;
  (* ... so the third run is skipped by the memo *)
  let s3 = Pass.run_one ~memo:true p m in
  Alcotest.(check bool) "third run served from memo" true s3.Pass.stat_cached;
  let hits, misses = Pass.memo_stats () in
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check int) "two misses" 2 misses;
  Pass.reset_memo ()

(* Op counting is gated off by default and on under op_stats/hooks. *)
let test_op_stats_gated () =
  let m = fold_chain 4 in
  let p = Pass.lookup_exn "dce" in
  let s = Pass.run_one p m in
  Alcotest.(check bool) "ungated run did not count" false s.Pass.ops_counted;
  let s = Pass.run_one ~op_stats:true p m in
  Alcotest.(check bool) "op_stats run counted" true s.Pass.ops_counted;
  Alcotest.(check int) "count matches module" (Ir.count_ops m) s.Pass.ops_after

(* ------------------------------------------------------------------ *)
(* Verifier scaling *)

(* A func.func with [n] sibling scf.for loops on three shared bound
   constants: 12,006 ops at n = 4,000, two constants with n uses and one
   with 2n, and every loop body reads a value of the enclosing block. *)
let sibling_loops n =
  let m = Ir.Module_.create () in
  let _ =
    Shmls_dialects.Func.build_func m ~name:"f" ~arg_tys:[] ~result_tys:[]
      (fun b _ ->
        let lb = Shmls_dialects.Arith.constant_index b 0 in
        let ub = Shmls_dialects.Arith.constant_index b 8 in
        let step = Shmls_dialects.Arith.constant_index b 1 in
        for _ = 1 to n do
          ignore
            (Shmls_dialects.Scf.for_ b ~lb ~ub ~step (fun body iv ->
                 ignore (Shmls_dialects.Arith.addi body iv step)))
        done;
        Shmls_dialects.Func.return_ b [])
  in
  m

(* The verifier is one walk, linear in ops plus uses: 4x the loops may
   not cost 8x the time (a verifier quadratic in the number of sibling
   regions or in use-list length takes about 15x). Median of 5 CPU-time
   runs per size, interleaved, each after a full major collection. *)
let test_verify_scaling () =
  let small = sibling_loops 1000 and big = sibling_loops 4000 in
  let time m =
    Gc.full_major ();
    let t0 = Sys.time () in
    Verifier.verify_exn m;
    Sys.time () -. t0
  in
  ignore (time small, time big);
  let runs = List.init 5 (fun _ -> let s = time small in (s, time big)) in
  let median l = List.nth (List.sort compare l) 2 in
  let ratio = median (List.map snd runs) /. median (List.map fst runs) in
  if ratio > 8.0 then
    Alcotest.failf "verify on 4x the loops took %.1fx the time (budget 8x)"
      ratio

let () =
  Alcotest.run "perf-smoke"
    [
      ( "rewrite driver",
        [
          Alcotest.test_case "fold-chain budget" `Quick test_chain_budget;
          Alcotest.test_case "pw-advection budget" `Quick
            (kernel_budget "pw-advection" PW.kernel ~grid:PW.grid_small);
          Alcotest.test_case "tracer-advection budget" `Quick
            (kernel_budget "tracer-advection" TA.kernel ~grid:TA.grid_small);
        ] );
      ( "compile once",
        [
          Alcotest.test_case "evaluate_all memo" `Quick test_compile_once;
          Alcotest.test_case "stage-compiler plan memo" `Quick
            test_stage_compile_once;
        ] );
      ( "plan/run-state split",
        [
          Alcotest.test_case "parallel sweep recompiles nothing" `Quick
            test_parallel_sweep_zero_recompiles;
          Alcotest.test_case "run-state cache budget" `Quick
            test_run_state_budget;
          Alcotest.test_case "batched plan and state budget" `Quick
            test_batched_plan_and_state_budget;
          Alcotest.test_case "run state releases arguments and plan" `Quick
            test_state_releases_args_and_plan;
          Alcotest.test_case "first batched run allocation" `Quick
            test_first_run_allocation;
        ] );
      ( "interp allocation",
        [
          Alcotest.test_case "point loop allocation" `Quick
            test_interp_allocation;
        ] );
      ( "pass manager",
        [
          Alcotest.test_case "no-op memo" `Quick test_pass_memo;
          Alcotest.test_case "gated op counting" `Quick test_op_stats_gated;
        ] );
      ( "verifier",
        [ Alcotest.test_case "linear scaling" `Quick test_verify_scaling ] );
    ]
