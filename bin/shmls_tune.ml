(* shmls-tune: the design-space autotuner CLI.

   Enumerates variant x cu x grid points for one kernel, prunes and
   prices them with one cost evaluation each (model-only),
   prints the Pareto frontier of MPt/s against the tightest resource
   fraction, and validates every feasible point (--validate narrows
   the scope) with the batched functional simulator and the
   event-driven cycle simulator:

     shmls-tune pw_advection --grids 32x32x16,64x64x32 --budget u280 \
       --out frontier.jsonl
     shmls-tune pw_advection --grids 32x32x16,64x64x32 --budget u280 \
       --out frontier.jsonl --resume   # zero recompiles, zero re-sims

   The --out file is the resumable search state: one content-keyed JSON
   Lines row per evaluated point and per validated frontier point. *)

module Tune = Root.Shmls_tune.Tune

let run_tune kernel_spec grids_spec budget_spec max_cu tolerance validate_spec
    out resume jobs devices_spec link_spec =
  Cli.run @@ fun () ->
  let kernel = Cli.load_kernel kernel_spec in
  let devices =
    Cli.parse_list ~flag:"--devices"
      (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ -> failwith ("bad --devices count: " ^ s))
      devices_spec
  in
  if jobs < 0 then failwith "bad --jobs (want >= 0)";
  let link = Cli.get (Shmls.Link.of_string link_spec) in
  let validate = Cli.get (Tune.validate_scope_of_string validate_spec) in
  let grids = Cli.parse_grids grids_spec in
  let budget = Cli.get (Shmls.U280.budget_of_string budget_spec) in
  let state = if out = "" then None else Some out in
  let r =
    Tune.run ~budget ~max_cu ~jobs ?state ~resume
      ~divergence_tolerance:tolerance ~validate ~devices ~link kernel ~grids
  in
  Format.printf "%a@." Tune.pp_report r;
  if out <> "" then Printf.printf "search state: %s\n" out;
  if r.Tune.r_frontier = [] then
    failwith "tune: the Pareto frontier is empty (no feasible point)";
  let not_bit_exact =
    List.filter
      (fun ((_, v) : Tune.eval * Tune.validation) -> v.Tune.va_max_diff > 1e-9)
      r.Tune.r_validations
  in
  if not_bit_exact <> [] then
    failwith
      (Printf.sprintf "tune: %d validated point(s) failed bit-exact \
                       validation"
         (List.length not_bit_exact));
  let flagged =
    List.length
      (List.filter
         (fun ((_, v) : Tune.eval * Tune.validation) -> v.Tune.va_flagged)
         r.Tune.r_validations)
  in
  if flagged > 0 then
    Printf.printf
      "warning: %d validated point(s) diverge from the model by more than \
       %g%% [DIVERGENT]\n"
      flagged (100.0 *. tolerance)

open Cmdliner

let kernel_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"KERNEL" ~doc:"Built-in kernel name or .psy kernel file.")

let grids_arg =
  Arg.(
    value & opt string "32x32x16"
    & info [ "grids" ] ~docv:"GRIDS"
        ~doc:"Comma-separated grid-shape list, e.g. 32x32x16,64x64x32.")

let budget_arg =
  Arg.(
    value & opt string "u280"
    & info [ "budget" ] ~docv:"BUDGET"
        ~doc:
          "Resource envelope the frontier is feasibility-checked against: \
           u280 (the whole card) or u280@FRAC for a scaled fabric, e.g. \
           u280@0.5.")

let max_cu_arg =
  Arg.(
    value & opt int 8
    & info [ "max-cu" ] ~docv:"N"
        ~doc:
          "Largest explicit compute-unit replication explored (the derived \
           CU count is always included). Points whose cu x ports exceed the \
           shell's AXI budget are pruned before compilation.")

let tolerance_arg =
  Arg.(
    value & opt float Tune.default_divergence_tolerance
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:
          "Model/measured cycle divergence beyond which a frontier point is \
           flagged (default 0.1 = 10%).")

let validate_arg =
  Arg.(
    value & opt string "all"
    & info [ "validate" ] ~docv:"SCOPE"
        ~doc:
          "Which evaluated points get the simulators: all feasible points \
           (the default — the event-driven cycle engine makes this cheap), \
           frontier (the Pareto frontier only), or a count N (the frontier \
           plus the N best remaining points).")

let out_arg =
  Arg.(
    value & opt string ""
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "JSON Lines search state: one content-keyed row per evaluated \
           point and per validated point.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reload rows already present in --out and skip their work: a \
           finished search re-runs with zero recompiles and zero \
           re-simulations, leaving the file byte-identical.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Concurrent streams of work for frontier validation. 0 (the \
           default) is adaptive; 1 forces sequential. Results are \
           byte-identical either way.")

let devices_arg =
  Arg.(
    value & opt string "1"
    & info [ "devices" ] ~docv:"LIST"
        ~doc:
          "Comma-separated slab counts to explore, e.g. 1,2,4: each count \
           prices the kernel decomposed over that many devices (the largest \
           slab's design plus the inter-device link charge) and validates \
           multi-device points by the reassembled slab run against the \
           global reference. Counts exceeding a grid's first dimension are \
           pruned.")

let link_arg =
  Arg.(
    value & opt string (Shmls.Link.to_string Shmls.Link.default)
    & info [ "link" ] ~docv:"GBPS[@LATENCY]"
        ~doc:
          "Inter-device link model for multi-device points: payload \
           bandwidth in Gbit/s, optionally @ a fixed per-exchange latency \
           in device cycles (default 100@250).")

let cmd =
  let doc =
    "search the variant x cu x grid x devices design space and report the \
     validated Pareto frontier"
  in
  Cmd.v
    (Cmd.info "shmls-tune" ~doc)
    Term.(
      ret
        (const run_tune $ kernel_arg $ grids_arg $ budget_arg $ max_cu_arg
       $ tolerance_arg $ validate_arg $ out_arg $ resume_arg $ jobs_arg
       $ devices_arg $ link_arg))

let () = exit (Cmd.eval cmd)
