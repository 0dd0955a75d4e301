(* Differential tests for the functional simulator: the plan of
   {!Stage_compiler} must be bit-for-bit identical to the reference
   stencil interpreter on full padded arrays, halos included — on every
   kernel of the suites and the zoo, every pipeline variant and random
   kernels — and must raise pinned diagnostics (message *and* location)
   on mis-wired designs. *)

let () = Shmls_dialects.Register.all ()

module H = Test_common.Helpers
module Stage_compiler = Shmls_fpga.Stage_compiler
module Interp = Shmls_interp.Interp
module Grid = Shmls_interp.Grid

(* Run [plan] on fresh inputs for [c]; the state holds the outputs. *)
let run_plan ?(seed = 7) (c : Shmls.compiled) plan =
  let st = Interp.alloc_state ~seed c.c_lowered in
  Stage_compiler.run plan ~args:(Shmls.state_args st);
  st

(* Run the reference interpreter and the engine on identical fresh
   inputs and compare their states bit for bit. *)
let check_engine_vs_interp ?(seed = 7) name (c : Shmls.compiled) =
  H.check_states_identical name
    (Interp.run_lowered ~seed c.c_lowered)
    (run_plan ~seed c (Lazy.force c.c_plan))

(* The full-padded-array comparison, and [Shmls.verify]'s interior
   comparison on top. *)
let check_bit_identical ?(seed = 7) ?variant (k : Shmls.Ast.kernel) ~grid =
  let c = Shmls.compile_cached ?variant k ~grid in
  check_engine_vs_interp ~seed k.k_name c;
  Alcotest.(check (float 0.0))
    (k.k_name ^ ": verify against the reference interpreter")
    0.0 (Shmls.verify ~seed c).v_max_diff

let test_suite_kernels_bit_identical () =
  List.iter
    (fun (k, grid) -> check_bit_identical k ~grid)
    H.all_test_kernels

(* Window geometries of the engine's shift stages: an inner extent
   below the 64-lane block width (blocks span rows) and above it, the
   125-lane window of a 3-D halo-2 kernel, and dups of shift outputs
   (the dup aliases the window). *)
let window_kernels =
  [
    (Shmls_kernels.Didactic.laplace_2d, [ 7; 30 ]);
    (Shmls_kernels.Didactic.laplace_2d, [ 5; 150 ]);
    (Shmls_kernels.Zoo.acoustic_wave_3d, [ 6; 5; 70 ]);
    (Shmls_kernels.Zoo.shallow_water_2d, [ 9; 70 ]);
  ]

(* MD5 of the engine's outputs on [window_kernels] (seed 7) with the
   write stage storing halo points too, in that order. *)
let exposed_digests =
  [
    "ac86e02cf5d495546fd6972903121f76";
    "b1f0aa4b4e5b75c2271dd0038dbbee9b";
    "9432ab5f8e37fbf3a10fb8e7ffc1eafa";
    "eee9fd77080a5b0349c9a7f2370cd6f4";
  ]

(* MD5 over each output field's name and the bits of its full padded
   array, in declaration order. *)
let outputs_digest (k : Shmls.Ast.kernel) (st : Interp.kernel_state) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (fd : Shmls.Ast.field_decl) ->
      if fd.fd_role <> Shmls.Ast.Input then begin
        Buffer.add_string buf fd.fd_name;
        Array.iter
          (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x))
          (List.assoc fd.fd_name st.fields).Grid.data
      end)
    k.k_fields;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_zoo_bit_identical () =
  List.iter
    (fun (k, grid) -> check_bit_identical k ~grid)
    (Shmls_kernels.Zoo.all @ window_kernels);
  (* the window list keeps covering what it names *)
  let designs =
    List.map
      (fun (k, grid) -> (Shmls.compile_cached k ~grid).c_design)
      window_kernels
  in
  (* (output stream, inner extent) of every shift stage *)
  let shifts (d : Shmls.Design.t) =
    List.filter_map
      (function
        | Shmls.Design.Shift { output; extent; _ } ->
          Some (output, List.nth extent (List.length extent - 1))
        | _ -> None)
      d.d_stages
  in
  let inners = List.concat_map (fun d -> List.map snd (shifts d)) designs in
  Alcotest.(check bool) "an inner extent below 64" true
    (List.exists (fun n -> n < 64) inners);
  Alcotest.(check bool) "an inner extent above 64" true
    (List.exists (fun n -> n > 64) inners);
  Alcotest.(check bool) "a 125-lane window" true
    (List.exists
       (fun (d : Shmls.Design.t) ->
         List.exists
           (fun (st : Shmls.Design.stream) ->
             match st.st_elem with
             | Shmls.Ty.Array (125, _) -> true
             | _ -> false)
           d.d_streams)
       designs);
  Alcotest.(check bool) "a dup of a shift output" true
    (List.exists
       (fun (d : Shmls.Design.t) ->
         let outs = List.map fst (shifts d) in
         List.exists
           (function
             | Shmls.Design.Dup { input; _ } -> List.mem input outs
             | _ -> false)
           d.d_stages)
       designs);
  (* with the write stage storing halo points too, the outputs expose
     the lanes that halo points read past the extent: NaN, read from the
     window's pad.  The interpreter never writes halo points, so these
     outputs are pinned by MD5 digests, recorded while a second plan
     that materialised every neighbourhood still matched them bit for
     bit. *)
  List.iter2
    (fun (((k : Shmls.Ast.kernel), grid), digest) (d : Shmls.Design.t) ->
      let c = Shmls.compile_cached k ~grid in
      let exposed =
        {
          d with
          d_stages =
            List.map
              (function
                | Shmls.Design.Write w ->
                  Shmls.Design.Write
                    { w with halo = List.map (fun _ -> 0) w.halo }
                | st -> st)
              d.d_stages;
        }
      in
      let b = run_plan c (Stage_compiler.compile exposed) in
      Alcotest.(check string)
        (k.k_name ^ " with halo points written: output digest")
        digest
        (outputs_digest k b);
      Alcotest.(check bool)
        (k.k_name ^ ": halo points read past the extent")
        true
        (List.exists
           (fun (_, (g : Grid.t)) -> Array.exists Float.is_nan g.Grid.data)
           b.fields))
    (List.combine window_kernels exposed_digests)
    designs

(* -- stream storage ----------------------------------------------- *)

(* Stream storage is recycled by liveness: a window is released after
   the last stage reading it or a dup alias of it, and a later window
   of the same geometry takes it.  On tracer advection both happen many
   times; the design is checked to have the shapes that an early
   release (at the dup that drains the window) or a wrong reuse would
   corrupt. *)
let storage_kernel = (Shmls_kernels.Tracer_advection.kernel, [ 12; 10; 8 ])

let stage_reads = function
  | Shmls.Design.Load _ -> []
  | Shmls.Design.Shift s -> [ s.input ]
  | Shmls.Design.Dup s -> [ s.input ]
  | Shmls.Design.Compute cc -> cc.in_streams
  | Shmls.Design.Write w -> w.in_streams

(* (stage index, output, halo and extent) of every shift *)
let shifts (d : Shmls.Design.t) =
  List.concat
    (List.mapi
       (fun i -> function
         | Shmls.Design.Shift s -> [ (i, s.output, (s.halo, s.extent)) ]
         | _ -> [])
       d.d_stages)

(* the last stage reading [stream] *)
let last_read (d : Shmls.Design.t) stream =
  List.fold_left max (-1)
    (List.mapi
       (fun i st -> if List.mem stream (stage_reads st) then i else -1)
       d.d_stages)

(* the dup aliases of [stream] *)
let aliases (d : Shmls.Design.t) stream =
  List.concat_map
    (function
      | Shmls.Design.Dup { input; outputs } when input = stream -> outputs
      | _ -> [])
    d.d_stages

(* MD5 of the tracer outputs with halo points written (see
   [exposed_digests]), from the engine that gave every stream a buffer
   of its own *)
let storage_exposed_digest = "6579fbeeced96f655ac1f92e3bfe953c"

(* A fresh plan of [k] on [grid]: its first run allocates, the second
   reuses the free lists, and both are bit-exact against the
   interpreter.  With the write stage storing halo points too, the
   lanes halo points read past the extent come from the windows' NaN
   pads, and the outputs match [digest]. *)
let check_recycled_runs ((k : Shmls.Ast.kernel), grid) digest =
  let c = Shmls.compile_cached k ~grid in
  let d = c.c_design in
  let plan = Stage_compiler.compile d in
  let rs = Stage_compiler.create_state plan in
  let oracle = Interp.run_lowered ~seed:7 c.c_lowered in
  for run = 1 to 2 do
    let st = Interp.alloc_state ~seed:7 c.c_lowered in
    Stage_compiler.run_with plan rs ~args:(Shmls.state_args st);
    H.check_states_identical (Printf.sprintf "run %d" run) oracle st
  done;
  let exposed =
    Stage_compiler.compile
      {
        d with
        d_stages =
          List.map
            (function
              | Shmls.Design.Write w ->
                Shmls.Design.Write { w with halo = List.map (fun _ -> 0) w.halo }
              | st -> st)
            d.d_stages;
      }
  in
  let rs = Stage_compiler.create_state exposed in
  for run = 1 to 2 do
    let st = Interp.alloc_state ~seed:7 c.c_lowered in
    Stage_compiler.run_with exposed rs ~args:(Shmls.state_args st);
    Alcotest.(check string)
      (Printf.sprintf "run %d with halo points written: output digest" run)
      digest (outputs_digest k st);
    Alcotest.(check bool)
      (Printf.sprintf "run %d: halo points read the pad" run)
      true
      (List.exists
         (fun (_, (g : Grid.t)) -> Array.exists Float.is_nan g.Grid.data)
         st.fields)
  done

let test_storage_recycling () =
  let k, grid = storage_kernel in
  let c = Shmls.compile_cached k ~grid in
  let d = c.c_design in
  let sh = shifts d in
  (* a dup alias of a window read after a later window of the same
     geometry was produced: releasing at the dup would hand the
     storage over while the alias still has tokens to read *)
  Alcotest.(check bool) "an alias outlives a dup and a same-geometry shift"
    true
    (List.exists
       (fun (i, w, g) ->
         List.exists
           (fun (j, _, g') ->
             j > i
             && g' = g
             && List.exists
                  (fun (k, st) ->
                    k < j
                    && (match st with
                       | Shmls.Design.Dup { input; _ } -> input = w
                       | _ -> false))
                  (List.mapi (fun k st -> (k, st)) d.d_stages)
             && List.exists (fun a -> last_read d a > j) (aliases d w))
           sh)
       sh);
  (* two windows of one geometry whose live ranges do not overlap, so
     the second takes the first one's storage *)
  Alcotest.(check bool) "two same-geometry windows live apart" true
    (List.exists
       (fun (i, w, g) ->
         List.exists
           (fun (j, _, g') ->
             j > i
             && g' = g
             && List.for_all (fun s -> last_read d s < j) (w :: aliases d w))
           sh)
       sh);
  check_recycled_runs storage_kernel storage_exposed_digest

(* Windows of one size but two geometries: [skew_2d]'s first shift pads
   dimension 0, its second dimension 1, so on a square grid both take
   the same number of floats.  Their pads lie in different places, so
   the second must not reuse the first one's storage. *)
let skew_2d =
  let open Shmls.Ast in
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "skew_2d";
    k_rank = 2;
    k_fields =
      [ { fd_name = "a"; fd_role = Input }; { fd_name = "b"; fd_role = Output } ];
    k_smalls = [];
    k_params = [];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "m";
          sd_expr = fld "a" [ -1; 0 ] +: fld "a" [ 1; 0 ];
        };
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "b";
          sd_expr = fld "m" [ 0; -1 ] -: fld "m" [ 0; 1 ];
        };
      ];
  }

let skew_exposed_digest = "c7f4e6ca171d07be2f887b46d9fdfa62"

let test_storage_window_geometry () =
  let grid = [ 9; 9 ] in
  let d = (Shmls.compile_cached skew_2d ~grid).c_design in
  let size (halo, extent) =
    List.fold_left2 (fun n h e -> n * (e + (2 * h))) 1 halo extent
  in
  let sh = shifts d in
  Alcotest.(check bool) "two windows of one size and two geometries" true
    (List.exists
       (fun (i, w, g) ->
         List.exists
           (fun (j, _, g') ->
             j > i && g' <> g && size g' = size g
             && List.for_all (fun s -> last_read d s < j) (w :: aliases d w))
           sh)
       sh);
  check_recycled_runs (skew_2d, grid) skew_exposed_digest

let test_seeds_bit_identical () =
  List.iter
    (fun seed -> check_bit_identical ~seed H.chain_3d ~grid:[ 10; 8; 6 ])
    [ 0; 1; 42; 1234 ]

(* Random kernels through every pipeline variant, so no-split, no-pack
   and cu=N designs meet shapes the fixed suites do not have.  They draw
   every frontend operator, so each lane loop of the engine (opcode by
   operand form) meets columns, loop invariants ([Const], [Param_ref])
   and window lanes, and NaNs and infinities flow through them. *)
let qcheck_random_kernels_bit_identical =
  H.qtest ~count:25 "compiled sim is bit-identical on random kernels"
    QCheck2.Gen.(pair (H.gen_kernel_ops ~all_ops:true) (int_range 0 1000))
    (fun (k, seed) ->
      match Shmls_frontend.Ast.validate k with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let grid = H.small_grid k.k_rank in
        List.iter
          (fun variant ->
            check_engine_vs_interp ~seed
              (Printf.sprintf "%s{%s}" k.k_name
                 (Shmls.Variant.to_string variant))
              (Shmls.compile ~variant k ~grid))
          Shmls.Variant.ablation_set;
        true)

(* The interpreter and the engine: the verify entry point (interiors of
   the outputs) and the full padded arrays. *)
let test_verify_both_plans () =
  List.iter
    (fun ((k : Shmls.Ast.kernel), grid) ->
      let c = Shmls.compile_cached k ~grid in
      Alcotest.(check (float 0.0)) "verify bit-exact" 0.0
        (Shmls.verify c).v_max_diff;
      check_engine_vs_interp k.k_name c)
    H.all_test_kernels

(* -- pipeline variants ------------------------------------------------ *)

(* The ablated pipelines (no-split / no-pack / cu=N) are real designs:
   every variant must stay bit-exact against the reference stencil
   interpreter, on both paper kernels.  On failure the variant is named
   so the diverging pipeline is identifiable without re-running. *)

let variant_kernels =
  [
    (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_small);
    ( Shmls_kernels.Tracer_advection.kernel,
      Shmls_kernels.Tracer_advection.grid_small );
  ]

let test_variants_bit_exact () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let name = Shmls.Variant.to_string variant in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s{%s} verify bit-exact" k.k_name name)
            0.0 (Shmls.verify c).v_max_diff;
          check_engine_vs_interp (Printf.sprintf "%s{%s}" k.k_name name) c)
        variant_kernels)
    Shmls.Variant.ablation_set

let test_variants_engines_bit_identical () =
  List.iter
    (fun variant ->
      List.iter
        (fun (k, grid) -> check_bit_identical ~variant k ~grid)
        variant_kernels)
    Shmls.Variant.ablation_set

(* Three chained applies: composed offsets reach 3 cells below and above
   along dim 0 and 2 cells along dim 2, beyond any one apply's own
   offset, and dim 1 is read on one side only. *)
let chain_deep_3d =
  let open Shmls_frontend.Ast in
  let stencil sd_target sd_expr =
    { sd_loc = Shmls_support.Loc.unknown; sd_target; sd_expr }
  in
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "chain_deep_3d";
    k_rank = 3;
    k_fields =
      [ { fd_name = "src"; fd_role = Input }; { fd_name = "dst"; fd_role = Output } ];
    k_smalls = [];
    k_params = [];
    k_stencils =
      [
        stencil "a" (fld "src" [ -1; 0; 0 ] +: fld "src" [ 1; 0; 0 ]);
        stencil "b" (fld "a" [ -1; 0; 0 ] *: fld "a" [ 0; 0; 1 ]);
        stencil "dst"
          (fld "b" [ 1; 0; 0 ] -: fld "b" [ 0; 0; -1 ] +: fld "src" [ 0; -1; 0 ]);
      ];
  }

(* The fused (no-split) stage bounds-checks a coordinate only on the
   side its offset can leave the padded grid.  Grids with an extent of
   one or two along some dimension put every loop index next to both
   edges at once; the engine must still match the interpreter on the
   full padded arrays. *)
let test_no_split_edge_grids () =
  let no_split = { Shmls.Variant.default with v_split = false } in
  let no_pack = { no_split with v_pack = false } in
  List.iter
    (fun (k : Shmls.Ast.kernel) ->
      List.iter
        (fun grid ->
          List.iter
            (fun variant ->
              check_engine_vs_interp
                (Printf.sprintf "%s{%s} at %s" k.k_name
                   (Shmls.Variant.to_string variant)
                   (String.concat "x" (List.map string_of_int grid)))
                (Shmls.compile ~variant k ~grid))
            [ no_split; no_pack ])
        [ [ 1; 1; 1 ]; [ 1; 2; 1 ]; [ 2; 1; 2 ]; [ 2; 2; 5 ]; [ 5; 1; 2 ] ])
    [
      chain_deep_3d;
      H.chain_3d;
      Shmls_kernels.Didactic.heat_3d;
      Shmls_kernels.Pw_advection.kernel;
      Shmls_kernels.Tracer_advection.kernel;
    ]

(* Every variant of one (kernel, grid) from [compile_cached] starts from
   the same lowered module, which stays as it was after each variant's
   design is verified against it. *)
let test_lowered_shared_across_variants () =
  let k = Shmls_kernels.Pw_advection.kernel in
  let grid = Shmls_kernels.Pw_advection.grid_small in
  let lowered = Shmls.lower_cached k ~grid in
  let text = Shmls.Printer.to_string lowered.l_module in
  List.iter
    (fun variant ->
      let name = Shmls.Variant.to_string variant in
      let c = Shmls.compile_cached ~variant k ~grid in
      Alcotest.(check bool) (name ^ ": the shared lowered module") true
        (c.c_lowered == lowered);
      Alcotest.(check (float 0.0)) (name ^ ": verify bit-exact") 0.0
        (Shmls.verify c).v_max_diff)
    Shmls.Variant.ablation_set;
  Alcotest.(check string) "lowered module unchanged" text
    (Shmls.Printer.to_string lowered.l_module)

(* Structural spot checks: the variants change the *design*, not just a
   model parameter. *)
let test_variant_designs_differ () =
  let k = Shmls_kernels.Pw_advection.kernel in
  let grid = Shmls_kernels.Pw_advection.grid_small in
  let design v = (Shmls.compile_cached ~variant:v k ~grid).c_design in
  let computes d =
    List.filter
      (fun s -> match s with Shmls.Design.Compute _ -> true | _ -> false)
      d.Shmls.Design.d_stages
  in
  let full = design Shmls.Variant.default in
  let no_split = design { Shmls.Variant.default with v_split = false } in
  let no_pack = design { Shmls.Variant.default with v_pack = false } in
  let cu2 = design { Shmls.Variant.default with v_cu = Some 2 } in
  Alcotest.(check bool)
    "split pipeline has concurrent compute stages" true
    (List.length (computes full) > 1);
  Alcotest.(check int) "no-split fuses into one compute stage" 1
    (List.length (computes no_split));
  let serial d =
    List.fold_left
      (fun acc s ->
        match s with
        | Shmls.Design.Compute c -> max acc c.serial
        | _ -> acc)
      1 d.Shmls.Design.d_stages
  in
  Alcotest.(check bool) "no-split compute is serialised" true
    (serial no_split > 1);
  Alcotest.(check int) "full design uses packed 64 B ports" 64
    full.Shmls.Design.d_port_bytes;
  Alcotest.(check int) "no-pack design uses scalar 8-bit ports" 1
    no_pack.Shmls.Design.d_port_bytes;
  Alcotest.(check int) "cu=2 is baked into the design" 2
    cu2.Shmls.Design.d_cu

(* The twelve built-in kernels: the paper's two, the didactic and the
   zoo ones. *)
let builtin_kernels =
  variant_kernels
  @ List.map
      (fun (k : Shmls.Ast.kernel) -> (k, H.small_grid k.k_rank))
      Shmls_kernels.Didactic.all
  @ Shmls_kernels.Zoo.all

(* Every compute loop runs in blocks: the plan batches as many loops as
   the design's compute stages hold, on every built-in kernel and
   variant, BRAM small-copy loops included.  [c_plan_batched] is the
   same plan. *)
let test_batched_plans_actually_batch () =
  Alcotest.(check int) "twelve built-in kernels" 12 (List.length builtin_kernels);
  List.iter
    (fun variant ->
      List.iter
        (fun ((k : Shmls.Ast.kernel), grid) ->
          let c = Shmls.compile_cached ~variant k ~grid in
          let name =
            Printf.sprintf "%s{%s}" k.k_name (Shmls.Variant.to_string variant)
          in
          let plan = Lazy.force c.c_plan in
          let loops =
            List.fold_left
              (fun n -> function
                | Shmls.Design.Compute cc ->
                  n
                  + List.length
                      (Shmls.Ir.Op.collect cc.df_op (fun o ->
                           Shmls.Ir.Op.name o = "scf.for"))
                | _ -> n)
              0 c.c_design.d_stages
          in
          Alcotest.(check int)
            (name ^ ": every compute loop runs in blocks")
            loops (Stage_compiler.stats plan).Stage_compiler.cs_batched;
          Alcotest.(check bool)
            (name ^ ": c_plan_batched is c_plan")
            true
            (Lazy.force c.c_plan_batched == plan))
        builtin_kernels)
    Shmls.Variant.ablation_set

(* Variant syntax round-trips, so pipeline strings and CLI flags agree. *)
let test_variant_parsing () =
  List.iter
    (fun v ->
      match Shmls.Variant.of_string (Shmls.Variant.to_string v) with
      | Ok v' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (Shmls.Variant.to_string v))
          true (v = v')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    Shmls.Variant.ablation_set;
  (match Shmls.Variant.of_string "no-split+cu=3" with
  | Ok v ->
    Alcotest.(check bool) "composed variant" true
      (v = { Shmls.Variant.v_split = false; v_pack = true; v_cu = Some 3 })
  | Error e -> Alcotest.failf "compose failed: %s" e);
  (match Shmls.Variant.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus variant accepted"
  | Error _ -> ())

(* -- error parity ---------------------------------------------------- *)

let run_expect_error what run =
  match run () with
  | () -> Alcotest.failf "%s: expected an error" what
  | exception Shmls.Err.Error e -> e

(* A mis-wired design must fail with exactly [message] at [loc]; a
   starved block runs the lanes every read can feed, then raises at the
   read that starves first. *)
let check_error_parity what (d : Shmls.Design.t) ~args_of ~message ~loc =
  let e =
    run_expect_error what (fun () ->
        Stage_compiler.run (Stage_compiler.compile d) ~args:(args_of ()))
  in
  Alcotest.(check string) (what ^ ": message") message
    e.Shmls_support.Diagnostic.d_message;
  Alcotest.(check string) (what ^ ": location")
    (Shmls_support.Loc.to_string loc)
    (Shmls_support.Loc.to_string e.Shmls_support.Diagnostic.d_loc)

let test_starved_read_parity () =
  (* dropping the load and shift stages starves the first read: the
     diagnostic is anchored at the compute stage's hls.read op, which
     step 4 (hls-split-dataflow) creates *)
  let loc =
    Shmls_support.Loc.derived "hls-split-dataflow" Shmls_support.Loc.unknown
  in
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    (* keep only compute and write stages: the compute's own hls.read is
       the first starved pop, so the diagnostic anchors at its loc *)
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with
            | Shmls.Design.Compute _ | Shmls.Design.Write _ -> true
            | _ -> false)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  check_error_parity "starved read" broken ~args_of
    ~message:"functional sim: read from empty stream" ~loc;
  (* a shift over one outer row too few: its window runs dry inside the
     compute loop, whose read of the window fires the diagnostic (the
     engine finds the block short before it runs, runs the lanes the
     window can feed, and raises at that read) *)
  let c = Shmls.compile_cached Shmls_kernels.Didactic.laplace_2d ~grid:[ 7; 30 ] in
  let d = c.c_design in
  let window =
    List.find_map
      (function Shmls.Design.Shift s -> Some s.output | _ -> None)
      d.d_stages
    |> Option.get
  in
  let window_read =
    List.concat_map
      (function
        | Shmls.Design.Compute cc ->
          Shmls.Ir.Op.collect cc.df_op (fun o ->
              Shmls.Ir.Op.name o = "hls.read"
              && Shmls.Ir.Value.id (Shmls.Ir.Op.operand o 0) = window)
        | _ -> [])
      d.d_stages
  in
  Alcotest.(check int) "one compute read of the window" 1
    (List.length window_read);
  let short =
    {
      d with
      Shmls.Design.d_stages =
        List.map
          (function
            | Shmls.Design.Shift s ->
              Shmls.Design.Shift
                { s with extent = (List.hd s.extent - 1) :: List.tl s.extent }
            | st -> st)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  check_error_parity "starved window read" short ~args_of
    ~message:"functional sim: read from empty stream"
    ~loc:(Shmls.Ir.Op.loc (List.hd window_read))

(* A fused stage loads from external memory at its own address
   arithmetic; an address outside the pointer's buffer (here, a field
   buffer three elements long) raises at the load instead of reading
   past the array. *)
let test_load_outside_buffer () =
  let no_split = { Shmls.Variant.default with v_split = false } in
  let c = Shmls.compile_cached ~variant:no_split H.avg_1d ~grid:[ 16 ] in
  let load =
    List.concat_map
      (function
        | Shmls.Design.Compute cc ->
          Shmls.Ir.Op.collect cc.df_op (fun o -> Shmls.Ir.Op.name o = "llvm.load")
        | _ -> [])
      c.c_design.d_stages
    |> List.hd
  in
  let args_of () =
    let args = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
    args.(0) <- Shmls.Functional.Ptr (Array.make 3 0.0, 0);
    args
  in
  check_error_parity "load outside its buffer" c.c_design ~args_of
    ~message:"functional sim: llvm.load of element 3 of a 3-element buffer"
    ~loc:(Shmls.Ir.Op.loc load)

(* One compute loop reading two windows, [a]'s and [c]'s. *)
let two_windows_2d =
  let open Shmls.Ast in
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "two_windows_2d";
    k_rank = 2;
    k_fields =
      [
        { fd_name = "a"; fd_role = Input };
        { fd_name = "c"; fd_role = Input };
        { fd_name = "b"; fd_role = Output };
      ];
    k_smalls = [];
    k_params = [];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "b";
          sd_expr =
            fld "a" [ -1; 0 ] +: fld "a" [ 1; 0 ] +: fld "c" [ 0; -1 ]
            +: fld "c" [ 0; 1 ];
        };
      ];
  }

(* Which read a starved block blames: the one that holds the fewest
   tokens, and of two holding the same count the earlier in body order —
   the read an element-at-a-time loop reaches first.  Both window reads of
   [two_windows_2d] get a location of their own, and their shifts lose
   [drop_first] and [drop_second] outer rows. *)
let check_first_starved what ~drop_first ~drop_second ~blame_second =
  (* a private compile: the reads' locations are rewritten below *)
  let c = Shmls.compile two_windows_2d ~grid:[ 7; 30 ] in
  let d = c.c_design in
  let window_reads =
    List.concat_map
      (function
        | Shmls.Design.Compute cc ->
          Shmls.Ir.Op.collect cc.df_op (fun o ->
              Shmls.Ir.Op.name o = "hls.read"
              && List.exists
                   (function
                     | Shmls.Design.Shift s ->
                       s.output = Shmls.Ir.Value.id (Shmls.Ir.Op.operand o 0)
                     | _ -> false)
                   d.d_stages)
        | _ -> [])
      d.d_stages
  in
  let first, second =
    match window_reads with
    | [ r1; r2 ] -> (r1, r2)
    | rs -> Alcotest.failf "%s: %d window reads, expected 2" what (List.length rs)
  in
  Alcotest.(check bool) (what ^ ": one loop reads both windows") true
    (Option.equal ( == ) (Shmls.Ir.Op.parent first) (Shmls.Ir.Op.parent second));
  Shmls.Ir.Op.set_loc first (Shmls_support.Loc.File ("first_read", 1, 1));
  Shmls.Ir.Op.set_loc second (Shmls_support.Loc.File ("second_read", 2, 1));
  let stream r = Shmls.Ir.Value.id (Shmls.Ir.Op.operand r 0) in
  let short =
    {
      d with
      Shmls.Design.d_stages =
        List.map
          (function
            | Shmls.Design.Shift s ->
              let drop =
                if s.output = stream first then drop_first else drop_second
              in
              Shmls.Design.Shift
                { s with extent = (List.hd s.extent - drop) :: List.tl s.extent }
            | st -> st)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  check_error_parity what short ~args_of
    ~message:"functional sim: read from empty stream"
    ~loc:(Shmls.Ir.Op.loc (if blame_second then second else first))

let test_first_starved_read () =
  check_first_starved "later read holds fewer" ~drop_first:1 ~drop_second:2
    ~blame_second:true;
  check_first_starved "earlier read holds fewer" ~drop_first:2 ~drop_second:1
    ~blame_second:false;
  check_first_starved "both hold the same count" ~drop_first:1 ~drop_second:1
    ~blame_second:false

(* A loop body outside the block subset fails when the plan is
   compiled, at the offending op: here a second read of the loop's input
   stream, which would make per-element order observable. *)
let test_unbatchable_loop_rejected () =
  let c = Shmls.compile H.avg_1d ~grid:[ 16 ] in
  let read =
    List.concat_map
      (function
        | Shmls.Design.Compute cc ->
          Shmls.Ir.Op.collect cc.df_op (fun o -> Shmls.Ir.Op.name o = "hls.read")
        | _ -> [])
      c.c_design.d_stages
    |> List.hd
  in
  let loc = Shmls_support.Loc.File ("second_read", 3, 7) in
  let again =
    Shmls.Ir.Op.create ~name:"hls.read"
      ~operands:(Shmls.Ir.Op.operands read)
      ~result_tys:[ Shmls.Ir.Value.ty (Shmls.Ir.Op.result read 0) ]
      ~attrs:(Shmls.Ir.Op.attrs read) ~loc ()
  in
  Shmls.Ir.Block.insert_after
    (Option.get (Shmls.Ir.Op.parent read))
    ~anchor:read again;
  let e =
    run_expect_error "second read of one stream" (fun () ->
        ignore (Stage_compiler.compile c.c_design))
  in
  Alcotest.(check string) "location" (Shmls_support.Loc.to_string loc)
    (Shmls_support.Loc.to_string e.Shmls_support.Diagnostic.d_loc);
  let msg = e.Shmls_support.Diagnostic.d_message in
  Alcotest.(check bool)
    (Printf.sprintf "message names the op: %s" msg)
    true
    (let n = String.length "hls.read" in
     List.exists
       (fun i -> String.sub msg i n = "hls.read")
       (List.init (max 0 (String.length msg - n + 1)) Fun.id))

let test_zero_capacity_push () =
  (* the load also writes the output stream of a dup it feeds: a stream
     with two producers.  A dup output borrows its input's
     buffer and starts every run with no storage of its own, so the
     load's push grows a ring from zero capacity (and must terminate);
     the dup then drains the load's stream and the shift behind it
     starves *)
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    match d.d_stages with
    | Shmls.Design.Load { out_streams = y :: _ as outs; ptr_args } :: rest ->
      let x =
        1 + List.fold_left (fun m (s : Shmls.Design.stream) -> max m s.st_id) 0
              d.d_streams
      in
      {
        d with
        Shmls.Design.d_streams =
          d.d_streams @ [ { (Shmls.Design.find_stream d y) with st_id = x } ];
        d_stages =
          Shmls.Design.Load
            {
              out_streams = outs @ [ x ];
              ptr_args = ptr_args @ [ List.hd ptr_args ];
            }
          :: Shmls.Design.Dup { input = y; outputs = [ x ] }
          :: rest;
      }
    | _ -> Alcotest.fail "avg_1d: the design does not start with a load"
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  check_error_parity "zero-capacity push" broken ~args_of
    ~message:"functional sim: read from empty stream"
    ~loc:Shmls_support.Loc.unknown

let test_undrained_stream_parity () =
  (* dropping the write stage leaves its input stream full *)
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with Shmls.Design.Write _ -> false | _ -> true)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  (* the write stage's input stream keeps every padded point: 16 + 2 *)
  let stream =
    List.find_map
      (fun s ->
        match s with
        | Shmls.Design.Write w -> Some (List.hd w.in_streams)
        | _ -> None)
      d.d_stages
    |> Option.get
  in
  check_error_parity "undrained stream" broken ~args_of
    ~message:
      (Printf.sprintf "functional sim: stream %d left 18 undrained tokens"
         stream)
    ~loc:Shmls_support.Loc.unknown

let test_second_producer_parity () =
  (* the load also pushes into the shift's output window: a window is
     filled only by its shift, so the push is a second producer *)
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let window =
    List.find_map
      (function Shmls.Design.Shift s -> Some s.output | _ -> None)
      d.d_stages
    |> Option.get
  in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.map
          (function
            | Shmls.Design.Load { out_streams; ptr_args } ->
              Shmls.Design.Load
                {
                  out_streams = out_streams @ [ window ];
                  ptr_args = ptr_args @ [ List.hd ptr_args ];
                }
            | st -> st)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  check_error_parity "second producer" broken ~args_of
    ~message:
      (Printf.sprintf "functional sim: stream %d has a second producer" window)
    ~loc:Shmls_support.Loc.unknown

(* [run_with] indexes the state's slots and rings without bounds checks,
   so a state created for another plan is refused, at the kernel
   function; the plan's own state still runs. *)
let test_foreign_run_state () =
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let other = Shmls.compile_cached H.chain_3d ~grid:[ 10; 8; 6 ] in
  let plan = Stage_compiler.compile c.c_design in
  let args () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  let e =
    run_expect_error "run state of another plan" (fun () ->
        Stage_compiler.run_with plan
          (Stage_compiler.create_state (Stage_compiler.compile other.c_design))
          ~args:(args ()))
  in
  let prefix = "functional sim: run state of plan " in
  let msg = e.Shmls_support.Diagnostic.d_message in
  Alcotest.(check string) "message" prefix
    (String.sub msg 0 (min (String.length msg) (String.length prefix)));
  Alcotest.(check string) "location"
    (Shmls_support.Loc.to_string (Shmls.Ir.Op.loc c.c_design.d_func))
    (Shmls_support.Loc.to_string e.Shmls_support.Diagnostic.d_loc);
  Stage_compiler.run_with plan (Stage_compiler.create_state plan)
    ~args:(args ())

(* -- parallel sweeps and shared plans -------------------------------- *)

(* One immutable plan, driven concurrently from several domains with
   independent run states: every run must stay bit-exact against the
   reference interpreter on full padded arrays.  This is the core
   contract of the plan/run-state split — the old representation
   carried mutable state inside the plan and would corrupt itself
   here. *)
let test_shared_plan_across_domains () =
  let k = H.chain_3d and grid = [ 10; 8; 6 ] in
  let c = Shmls.compile_cached k ~grid in
  let plan = Lazy.force c.c_plan in
  let oracle = Interp.run_lowered ~seed:7 c.c_lowered in
  (* states allocated in the parent: each spawned domain gets its own
     disjoint set of argument arrays but shares the one plan *)
  let n_domains = 4 and runs_per_domain = 3 in
  let states =
    Array.init (n_domains * runs_per_domain) (fun _ ->
        Interp.alloc_state ~seed:7 c.c_lowered)
  in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for r = 0 to runs_per_domain - 1 do
              let st = states.((d * runs_per_domain) + r) in
              if r = 0 then
                (* explicit per-run state, created on this domain *)
                Stage_compiler.run_with plan
                  (Stage_compiler.create_state plan)
                  ~args:(Shmls.state_args st)
              else
                (* the per-domain cached state behind [run] *)
                Stage_compiler.run plan ~args:(Shmls.state_args st)
            done))
  in
  List.iter Domain.join domains;
  Array.iteri
    (fun si st -> H.check_states_identical (Printf.sprintf "run %d" si) oracle st)
    states

(* The sweep driver is deterministic for any jobs setting and sweep
   length: outcomes, verifications and streamed row order all match the
   sequential run (which is the historical behaviour). *)
let sweep_parity_configs =
  [
    (Shmls_kernels.Didactic.heat_3d, [ 8; 7; 6 ]);
    (Shmls_kernels.Didactic.laplace_2d, [ 12; 10 ]);
    (H.avg_1d, [ 32 ]);
    (H.chain_3d, [ 10; 8; 6 ]);
    (* duplicates on purpose: concurrent jobs then share one plan *)
    (Shmls_kernels.Didactic.heat_3d, [ 8; 7; 6 ]);
    (H.chain_3d, [ 10; 8; 6 ]);
  ]

let qcheck_parallel_sweep_identical =
  H.qtest ~count:15 "parallel sweep = sequential sweep for any jobs/chunk"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 (List.length sweep_parity_configs)))
    (fun (jobs, n) ->
      let configs = List.filteri (fun i _ -> i < n) sweep_parity_configs in
      let expected = Shmls.sweep ~jobs:1 ~verify_designs:true configs in
      let streamed = ref [] in
      let got =
        Shmls.sweep ~jobs
          ~on_result:(fun i r -> streamed := (i, r) :: !streamed)
          ~verify_designs:true configs
      in
      let streamed = List.rev !streamed in
      got = expected
      && List.map fst streamed = List.init n (fun i -> i)
      && List.map snd streamed = expected)

(* Error parity under parallelism: a mis-wired design raises the same
   diagnostic (message and Loc) through the pool as sequentially, from
   the smallest failing index. *)
let test_parallel_error_loc_parity () =
  let c = Shmls.compile_cached H.avg_1d ~grid:[ 16 ] in
  let d = c.c_design in
  let broken =
    {
      d with
      Shmls.Design.d_stages =
        List.filter
          (fun s ->
            match s with
            | Shmls.Design.Compute _ | Shmls.Design.Write _ -> true
            | _ -> false)
          d.d_stages;
    }
  in
  let args_of () = Shmls.state_args (Interp.alloc_state ~seed:7 c.c_lowered) in
  let seq_err =
    run_expect_error "sequential" (fun () ->
        Stage_compiler.run (Stage_compiler.compile broken) ~args:(args_of ()))
  in
  let plan = Stage_compiler.compile broken in
  let par_err =
    run_expect_error "parallel" (fun () ->
        ignore
          (Shmls.Pool.with_pool ~jobs:4 (fun p ->
               Shmls.Pool.map p
                 (fun _ -> Stage_compiler.run plan ~args:(args_of ()))
                 (Array.init 8 (fun i -> i)))))
  in
  Alcotest.(check string) "same message"
    seq_err.Shmls_support.Diagnostic.d_message
    par_err.Shmls_support.Diagnostic.d_message;
  Alcotest.(check bool) "same location" true
    (seq_err.Shmls_support.Diagnostic.d_loc
    = par_err.Shmls_support.Diagnostic.d_loc)

let () =
  Alcotest.run "functional_compiled"
    [
      ( "bit-identical",
        [
          Alcotest.test_case "suite kernels" `Quick
            test_suite_kernels_bit_identical;
          Alcotest.test_case "zoo kernels" `Quick test_zoo_bit_identical;
          Alcotest.test_case "seeds" `Quick test_seeds_bit_identical;
          Alcotest.test_case "verify both engines" `Quick
            test_verify_both_plans;
          qcheck_random_kernels_bit_identical;
          Alcotest.test_case "stream storage recycled by liveness" `Quick
            test_storage_recycling;
          Alcotest.test_case "window storage keyed by geometry" `Quick
            test_storage_window_geometry;
        ] );
      ( "pipeline variants",
        [
          Alcotest.test_case "every variant bit-exact vs interpreter" `Quick
            test_variants_bit_exact;
          Alcotest.test_case "engines bit-identical per variant" `Quick
            test_variants_engines_bit_identical;
          Alcotest.test_case "no-split bit-exact on edge grids" `Quick
            test_no_split_edge_grids;
          Alcotest.test_case "variants share the lowered module" `Quick
            test_lowered_shared_across_variants;
          Alcotest.test_case "variant designs structurally differ" `Quick
            test_variant_designs_differ;
          Alcotest.test_case "batched plans actually batch" `Quick
            test_batched_plans_actually_batch;
          Alcotest.test_case "variant syntax round-trips" `Quick
            test_variant_parsing;
        ] );
      ( "error parity",
        [
          Alcotest.test_case "starved read" `Quick test_starved_read_parity;
          Alcotest.test_case "load outside its buffer" `Quick
            test_load_outside_buffer;
          Alcotest.test_case "zero-capacity push" `Quick
            test_zero_capacity_push;
          Alcotest.test_case "undrained stream" `Quick
            test_undrained_stream_parity;
          Alcotest.test_case "second producer" `Quick
            test_second_producer_parity;
          Alcotest.test_case "run state of another plan" `Quick
            test_foreign_run_state;
          Alcotest.test_case "first starved read" `Quick test_first_starved_read;
          Alcotest.test_case "unbatchable loop rejected at compile" `Quick
            test_unbatchable_loop_rejected;
        ] );
      ( "parallel sweep",
        [
          Alcotest.test_case "shared plan across domains" `Quick
            test_shared_plan_across_domains;
          qcheck_parallel_sweep_identical;
          Alcotest.test_case "error and Loc parity through the pool" `Quick
            test_parallel_error_loc_parity;
        ] );
    ]
