(* shmls-opt: the mlir-opt equivalent for this compiler.

   Reads a module in the generic textual form, runs a comma-separated
   pass pipeline, and prints the result:

     shmls-opt --passes stencil-shape-inference,stencil-to-hls input.mlir
     shmls-opt --passes 'stencil-to-hls{steps=1-4}' input.mlir
     shmls-opt --list-passes
     echo '...' | shmls-opt --passes canonicalize - *)

(* "all" in --dump-after matches every pass. *)
let dump_wanted dump_after name =
  List.mem "all" dump_after || List.mem name dump_after

let snapshot_hooks ~print_ir_after_all ~dump_after ~dump_dir =
  if (not print_ir_after_all) && dump_after = [] then []
  else
    [
      Shmls_ir.Pass.hook
        ~after:(fun pass _stat m ->
          let name = pass.Shmls_ir.Pass.pass_name in
          let text = Shmls_ir.Printer.to_string m in
          if print_ir_after_all then
            Format.eprintf "// ----- IR after pass %s -----@.%s@." name text;
          if dump_wanted dump_after name then begin
            let path = Filename.concat dump_dir (name ^ ".after.mlir") in
            match open_out path with
            | oc ->
              output_string oc text;
              output_char oc '\n';
              close_out oc
            | exception Sys_error msg ->
              Shmls_support.Err.raise_error "--dump-after: %s" msg
          end)
        ();
    ]

let run_tool passes_spec verify_each stats list_passes print_ir_after_all
    dump_after dump_dir verify_diagnostics print_locs input =
  Cli.run @@ fun () ->
  Shmls_transforms.Register.all ();
  if list_passes then
    List.iter
      (fun name ->
        match Shmls_ir.Pass.describe name with
        | Some d when d <> "" -> Printf.printf "%-24s %s\n" name d
        | _ -> print_endline name)
      (Shmls_ir.Pass.registered_passes ())
  else
    let src =
      match input with
      | "-" -> In_channel.input_all stdin
      | path -> In_channel.with_open_bin path In_channel.input_all
    in
    let file = if input = "-" then "<stdin>" else input in
    if verify_diagnostics then begin
      (* FileCheck-style mode: run the whole tool under a diagnostic
         handler and match what comes out against the
         [// expected-error@line {{...}}] comments in the input. *)
      let expected = Shmls_support.Diagnostic.Expected.parse src in
      let seen, _ =
        Shmls_support.Diagnostic.capture (fun () ->
            let m = Shmls_ir.Parser.parse_module ~file src in
            Shmls_ir.Verifier.verify_exn m;
            let passes = Shmls_ir.Pass.parse_pipeline passes_spec in
            ignore (Shmls_ir.Pass.run_pipeline ~verify_each:true passes m))
      in
      Cli.get (Shmls_support.Diagnostic.Expected.check ~expected ~seen)
    end
    else begin
      let m = Shmls_ir.Parser.parse_module ~file src in
      Shmls_ir.Verifier.verify_exn m;
      let passes = Shmls_ir.Pass.parse_pipeline passes_spec in
      let hooks = snapshot_hooks ~print_ir_after_all ~dump_after ~dump_dir in
      if stats then Shmls_ir.Rewriter.reset_cumulative_fires ();
      let run_stats =
        Shmls_ir.Pass.run_pipeline ~verify_each ~hooks ~op_stats:stats passes m
      in
      if stats then begin
        List.iter
          (fun s -> Format.eprintf "%a@." Shmls_ir.Pass.pp_stat s)
          run_stats;
        Format.eprintf "%a" Shmls_ir.Pass.pp_summary run_stats;
        match Shmls_ir.Rewriter.cumulative_fires () with
        | [] -> ()
        | fires ->
          Format.eprintf "@.%-32s %8s@." "pattern" "fires";
          List.iter (fun (name, n) -> Format.eprintf "%-32s %8d@." name n) fires
      end;
      print_endline (Shmls_ir.Printer.to_string ~locs:print_locs m)
    end

open Cmdliner

let passes_arg =
  Arg.(
    value & opt string ""
    & info [ "p"; "passes" ] ~docv:"PIPELINE"
        ~doc:
          "Comma-separated pass pipeline to run. Composite pipelines expand \
           to their steps; options go in braces, e.g. \
           stencil-to-hls{steps=3-5}.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify-each" ] ~doc:"Verify the module after every pass.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print per-pass statistics to stderr.")

let list_arg =
  Arg.(value & flag & info [ "list-passes" ] ~doc:"List registered passes and exit.")

let print_after_arg =
  Arg.(
    value & flag
    & info [ "print-ir-after-all" ]
        ~doc:"Print the module to stderr after every pass.")

let dump_after_arg =
  Arg.(
    value & opt_all string []
    & info [ "dump-after" ] ~docv:"PASS"
        ~doc:
          "Write the module to $(i,PASS).after.mlir after the named pass \
           ('all' dumps after every pass; repeatable).")

let dump_dir_arg =
  Arg.(
    value & opt string "."
    & info [ "dump-dir" ] ~docv:"DIR" ~doc:"Directory for --dump-after snapshots.")

let verify_diagnostics_arg =
  Arg.(
    value & flag
    & info [ "verify-diagnostics" ]
        ~doc:
          "Check the diagnostics the tool produces against \
           expected-error/expected-warning comments in the input instead \
           of printing the module.")

let print_locs_arg =
  Arg.(
    value & flag
    & info [ "print-locs" ]
        ~doc:"Print trailing loc(...) annotations on every operation.")

let input_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"INPUT" ~doc:"Input file ('-' for stdin).")

let cmd =
  let doc = "run compiler passes over Stencil-HMLS IR modules" in
  Cmd.v
    (Cmd.info "shmls-opt" ~doc)
    Term.(
      ret
        (const run_tool $ passes_arg $ verify_arg $ stats_arg $ list_arg
       $ print_after_arg $ dump_after_arg $ dump_dir_arg
       $ verify_diagnostics_arg $ print_locs_arg $ input_arg))

let () = exit (Cmd.eval cmd)
