(* Shared helpers for the test suites: small kernels, builders, qcheck
   generators for random kernels. *)

open Shmls_frontend.Ast

let () = Shmls_dialects.Register.all ()

(* Make every pass registration run even in test binaries that use none
   of the transforms' other symbols. *)
let ensure_passes_linked () = Shmls_transforms.Register.all ()

(* -- ready-made kernels ---------------------------------------------- *)

let copy_1d =
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "copy_1d";
    k_rank = 1;
    k_fields =
      [ { fd_name = "a"; fd_role = Input }; { fd_name = "b"; fd_role = Output } ];
    k_smalls = [];
    k_params = [];
    k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "b"; sd_expr = fld "a" [ 0 ] } ];
  }

let avg_1d =
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "avg_1d";
    k_rank = 1;
    k_fields =
      [ { fd_name = "a"; fd_role = Input }; { fd_name = "b"; fd_role = Output } ];
    k_smalls = [];
    k_params = [];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "b";
          sd_expr = const 0.5 *: (fld "a" [ -1 ] +: fld "a" [ 1 ]);
        };
      ];
  }

let chain_3d =
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "chain_3d";
    k_rank = 3;
    k_fields =
      [
        { fd_name = "src"; fd_role = Input };
        { fd_name = "dst"; fd_role = Output };
        { fd_name = "dst2"; fd_role = Output };
      ];
    k_smalls = [ { sd_name = "coef"; sd_axis = 2 } ];
    k_params = [ "alpha" ];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "mid";
          sd_expr = (fld "src" [ -1; 0; 0 ] +: fld "src" [ 1; 0; 0 ]) *: const 0.5;
        };
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "dst";
          sd_expr =
            fld "mid" [ 0; 0; -1 ] +: fld "mid" [ 0; 0; 1 ]
            +: (small "coef" ~offset:1 *: param "alpha");
        };
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "dst2";
          sd_expr = fld "src" [ 0; 1; 0 ] -: fld "mid" [ 0; 0; 0 ];
        };
      ];
  }

let all_test_kernels =
  [
    (copy_1d, [ 32 ]);
    (avg_1d, [ 32 ]);
    (chain_3d, [ 10; 8; 6 ]);
    (Shmls_kernels.Didactic.sum_neighbours_1d, [ 24 ]);
    (Shmls_kernels.Didactic.laplace_2d, [ 14; 12 ]);
    (Shmls_kernels.Didactic.heat_3d, [ 10; 8; 6 ]);
    (Shmls_kernels.Didactic.gradient_smooth_3d, [ 10; 8; 6 ]);
    (Shmls_kernels.Pw_advection.kernel, Shmls_kernels.Pw_advection.grid_small);
    (Shmls_kernels.Tracer_advection.kernel, Shmls_kernels.Tracer_advection.grid_small);
  ]

(* -- assertions ------------------------------------------------------ *)

let check_verifies what m =
  match Shmls_ir.Verifier.verify m with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s does not verify: %s" what (Shmls_support.Err.to_string e)

let check_close ?(tol = 1e-12) what expected got =
  if Float.abs (expected -. got) > tol then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected got

(* Every float of every field and small of the reference interpreter's
   state [expected] and the functional simulator's state [got], bit for
   bit: full padded arrays, halos included (NaNs compare equal by
   bits). *)
let check_states_identical what (expected : Shmls_interp.Interp.kernel_state)
    (got : Shmls_interp.Interp.kernel_state) =
  List.iter2
    (fun (n, (a : Shmls_interp.Grid.t)) (m, (b : Shmls_interp.Grid.t)) ->
      Alcotest.(check string) (what ^ ": same array order") n m;
      Alcotest.(check int)
        (Printf.sprintf "%s %s: same length" what n)
        (Array.length a.data) (Array.length b.data);
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.data.(i) then
            Alcotest.failf "%s %s[%d]: interpreter %h <> engine %h" what n i x
              b.data.(i))
        a.data)
    (expected.fields @ expected.smalls)
    (got.fields @ got.smalls)

(* -- qcheck generators ----------------------------------------------- *)

(* Random expression over the given field/small/param names.  Its
   operators are Add, Sub, Mul and Abs; with [~all_ops:true], every
   binary and unary operator of the frontend, so Div, Min, Max, Neg,
   Sqrt and Exp (and the NaNs and infinities they make) reach the
   engines too. *)
let gen_expr ?(all_ops = false) ~rank ~fields ~smalls ~params () =
  let open QCheck2.Gen in
  let offset = list_repeat rank (int_range (-1) 1) in
  let leaf =
    frequency
      ([
         (4, map2 (fun f o -> Field_ref (f, o)) (oneofl fields) offset);
         (1, map (fun v -> Const v) (float_range (-2.0) 2.0));
       ]
      @ (if smalls = [] then []
         else [ (1, map2 (fun s o -> Small_ref (s, o)) (oneofl smalls) (int_range (-1) 1)) ])
      @
      if params = [] then [] else [ (1, map (fun p -> Param_ref p) (oneofl params)) ])
  in
  let rec expr depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Binop (op, a, b))
              (oneofl
                 (if all_ops then [ Add; Sub; Mul; Div; Min; Max ]
                  else [ Add; Sub; Mul ]))
              (expr (depth - 1))
              (expr (depth - 1)) );
          ( 1,
            map2
              (fun op a -> Unop (op, a))
              (oneofl (if all_ops then [ Neg; Sqrt; Exp; Abs ] else [ Abs ]))
              (expr (depth - 1)) );
        ]
  in
  expr 3

(* Random multi-stage kernel: 1-3 inputs, 1-2 outputs, 0-2 intermediates,
   optional small array and parameter; [all_ops] as for [gen_expr]. *)
let gen_kernel_ops ~all_ops =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* n_in = int_range 1 3 in
  let* n_out = int_range 1 2 in
  let* n_mid = int_range 0 2 in
  let* with_small = if rank >= 1 then bool else return false in
  let* with_param = bool in
  let inputs = List.init n_in (fun i -> Printf.sprintf "in%d" i) in
  let outputs = List.init n_out (fun i -> Printf.sprintf "out%d" i) in
  let mids = List.init n_mid (fun i -> Printf.sprintf "mid%d" i) in
  let smalls = if with_small then [ "cf" ] else [] in
  let params = if with_param then [ "p" ] else [] in
  (* stencil i may read inputs and earlier intermediates *)
  let rec build_stencils i readable acc =
    if i >= n_mid + n_out then return (List.rev acc)
    else
      let target = if i < n_mid then List.nth mids i else List.nth outputs (i - n_mid) in
      let* e = gen_expr ~all_ops ~rank ~fields:readable ~smalls ~params () in
      build_stencils (i + 1)
        (if i < n_mid then readable @ [ target ] else readable)
        ({ sd_loc = Shmls_support.Loc.unknown; sd_target = target; sd_expr = e } :: acc)
  in
  let* stencils = build_stencils 0 inputs [] in
  (* every intermediate must be consumed (an unused apply result has no
     inferable bounds): fold unread mids into the last output stencil *)
  let read_names =
    List.concat_map (fun s -> List.map fst (field_refs s.sd_expr)) stencils
  in
  let zero = List.init rank (fun _ -> 0) in
  let stencils =
    match List.rev stencils with
    | last :: rest ->
      let missing = List.filter (fun m -> not (List.mem m read_names)) mids in
      let patched =
        {
          last with
          sd_expr =
            List.fold_left
              (fun e m -> Binop (Add, e, Field_ref (m, zero)))
              last.sd_expr missing;
        }
      in
      List.rev (patched :: rest)
    | [] -> stencils
  in
  return
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "random_kernel";
      k_rank = rank;
      k_fields =
        List.map (fun n -> { fd_name = n; fd_role = Input }) inputs
        @ List.map (fun n -> { fd_name = n; fd_role = Output }) outputs;
      k_smalls = List.map (fun n -> { sd_name = n; sd_axis = rank - 1 }) smalls;
      k_params = params;
      k_stencils = stencils;
    }

let gen_kernel = gen_kernel_ops ~all_ops:false

let small_grid rank = List.init rank (fun d -> 8 - d)

(* Random single-stencil kernels (1 input, 1 output, no intermediates):
   the shape the loop raiser recognises. *)
let gen_single_stencil_kernel =
  let open QCheck2.Gen in
  let* rank = int_range 1 3 in
  let* e = gen_expr ~rank ~fields:[ "in0" ] ~smalls:[] ~params:[ "p" ] () in
  return
    {
      k_loc = Shmls_support.Loc.unknown;
      k_name = "single";
      k_rank = rank;
      k_fields =
        [
          { fd_name = "in0"; fd_role = Input };
          { fd_name = "out0"; fd_role = Output };
        ];
      k_smalls = [];
      k_params = [ "p" ];
      k_stencils = [ { sd_loc = Shmls_support.Loc.unknown; sd_target = "out0"; sd_expr = e } ];
    }

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)
