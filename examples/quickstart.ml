(* Quickstart: define a stencil kernel with the OCaml eDSL, compile it
   through the full Stencil-HMLS pipeline, verify the generated dataflow
   design against the reference interpreter, and look at what came out.

     dune exec examples/quickstart.exe *)

open Shmls.Ast

(* A 3D 7-point heat-diffusion step:
     t_new = t + alpha * (sum of the 6 face neighbours - 6 t) *)
let kernel =
  {
    k_loc = Shmls_support.Loc.unknown;
    k_name = "heat";
    k_rank = 3;
    k_fields =
      [
        { fd_name = "t"; fd_role = Input };
        { fd_name = "t_new"; fd_role = Output };
      ];
    k_smalls = [];
    k_params = [ "alpha" ];
    k_stencils =
      [
        {
          sd_loc = Shmls_support.Loc.unknown;
          sd_target = "t_new";
          sd_expr =
            fld "t" [ 0; 0; 0 ]
            +: (param "alpha"
               *: (fld "t" [ -1; 0; 0 ] +: fld "t" [ 1; 0; 0 ]
                  +: fld "t" [ 0; -1; 0 ] +: fld "t" [ 0; 1; 0 ]
                  +: fld "t" [ 0; 0; -1 ] +: fld "t" [ 0; 0; 1 ]
                  -: (const 6.0 *: fld "t" [ 0; 0; 0 ])));
        };
      ];
  }

let () =
  (* 1. compile: stencil dialect -> HLS dialect -> LLVM-IR + f++ *)
  let c = Shmls.compile kernel ~grid:[ 24; 24; 16 ] in
  Printf.printf "compiled %s: %d compute unit(s), %d AXI ports each\n"
    kernel.k_name c.c_cu c.c_ports_per_cu;
  Printf.printf "dataflow design: %d stages, %d streams\n"
    (List.length c.c_design.d_stages)
    (List.length c.c_design.d_streams);
  List.iter
    (fun stage -> Printf.printf "  - %s\n" (Shmls.Design.stage_name stage))
    c.c_design.d_stages;

  (* 2. verify: run the generated design in the functional simulator and
     compare every output grid point with the reference interpreter *)
  let v = Shmls.verify c in
  Printf.printf "functional check: max |difference| = %g %s\n" v.v_max_diff
    (if v.v_max_diff = 0.0 then "(bit-exact)" else "");

  (* 3. time it: cycle-level simulation vs the analytic model *)
  let sim = Shmls.Cycle_sim.run c.c_design in
  let est = Shmls.Perf_model.estimate_design ~cu:1 c.c_design in
  Printf.printf "cycle simulation (1 CU): %d cycles for %d elements (II ~ %.3f)\n"
    sim.cycles
    (Shmls.Design.total_padded c.c_design)
    (float_of_int sim.cycles /. float_of_int (Shmls.Design.total_padded c.c_design));
  Format.printf "analytic model  (1 CU): %a@." Shmls.Perf_model.pp_estimate est;

  (* 4. the backend artefacts the paper ships to Vitis *)
  Printf.printf "\nf++ report: %d pipeline markers rewritten, %d interfaces\n"
    c.c_fpp.pipelines c.c_fpp.interfaces;
  print_string c.c_connectivity;
  Printf.printf "\nLLVM-IR size: %d lines (try --emit llvm in shmls-compile to see it)\n"
    (List.length (String.split_on_char '\n' (Shmls.emit_llvm_text c)));

  (* 5. the same design as a CIRCT netlist (future-work path of the paper) *)
  let circt = Shmls.emit_circt_text c in
  Printf.printf "\nCIRCT lowering (%d lines), first lines:\n"
    (List.length (String.split_on_char '\n' circt));
  String.split_on_char '\n' circt
  |> List.filteri (fun i _ -> i < 8)
  |> List.iter (fun l -> print_endline ("  " ^ l))
