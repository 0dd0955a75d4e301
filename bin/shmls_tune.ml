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

let builtin_kernels =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
    ("sum_neighbours_1d", Shmls_kernels.Didactic.sum_neighbours_1d);
    ("laplace_2d", Shmls_kernels.Didactic.laplace_2d);
    ("heat_3d", Shmls_kernels.Didactic.heat_3d);
    ("gradient_smooth_3d", Shmls_kernels.Didactic.gradient_smooth_3d);
  ]

let parse_grid s =
  String.split_on_char 'x' s
  |> List.map String.trim
  |> List.map (fun d ->
         match int_of_string_opt d with
         | Some n when n > 0 -> n
         | _ -> failwith ("bad grid dimension: " ^ d))

let load_kernel spec =
  match List.assoc_opt spec builtin_kernels with
  | Some k -> k
  | None ->
    if Sys.file_exists spec then Shmls.Psy_parser.parse_file spec
    else
      failwith
        (Printf.sprintf
           "unknown kernel %S (not a built-in: %s; and no such file)" spec
           (String.concat ", " (List.map fst builtin_kernels)))

let run_tune kernel_spec grids_spec budget_spec max_cu tolerance validate_spec
    out resume jobs devices_spec link_spec =
  try
    let kernel = load_kernel kernel_spec in
    let devices =
      String.split_on_char ',' devices_spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some n when n >= 1 -> n
             | _ -> failwith ("bad --devices count: " ^ s))
    in
    if devices = [] then failwith "empty --devices";
    if jobs < 0 then failwith "bad --jobs (want >= 0)";
    let link =
      match Shmls.Link.of_string link_spec with
      | Ok l -> l
      | Error m -> failwith m
    in
    let validate =
      match Shmls_tune.Tune.validate_scope_of_string validate_spec with
      | Ok v -> v
      | Error m -> failwith m
    in
    let grids =
      String.split_on_char ',' grids_spec
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map parse_grid
    in
    if grids = [] then failwith "empty --grids";
    let budget =
      match Shmls.U280.budget_of_string budget_spec with
      | Ok b -> b
      | Error m -> failwith m
    in
    let state = if out = "" then None else Some out in
    let r =
      Shmls_tune.Tune.run ~budget ~max_cu ~jobs ?state ~resume
        ~divergence_tolerance:tolerance ~validate ~devices ~link kernel ~grids
    in
    Format.printf "%a@." Shmls_tune.Tune.pp_report r;
    if out <> "" then Printf.printf "search state: %s\n" out;
    if r.Shmls_tune.Tune.r_frontier = [] then
      failwith "tune: the Pareto frontier is empty (no feasible point)";
    let not_bit_exact =
      List.filter
        (fun ((_, v) : Shmls_tune.Tune.eval * Shmls_tune.Tune.validation) ->
          v.Shmls_tune.Tune.va_max_diff > 1e-9)
        r.Shmls_tune.Tune.r_validations
    in
    if not_bit_exact <> [] then
      failwith
        (Printf.sprintf "tune: %d validated point(s) failed bit-exact \
                         validation"
           (List.length not_bit_exact));
    let flagged =
      List.length
        (List.filter
           (fun ((_, v) : Shmls_tune.Tune.eval * Shmls_tune.Tune.validation) ->
             v.Shmls_tune.Tune.va_flagged)
           r.Shmls_tune.Tune.r_validations)
    in
    if flagged > 0 then
      Printf.printf
        "warning: %d validated point(s) diverge from the model by more than \
         %g%% [DIVERGENT]\n"
        flagged (100.0 *. tolerance);
    `Ok ()
  with
  | Shmls_support.Err.Error e -> `Error (false, Shmls_support.Err.to_string e)
  | Shmls.Psy_parser.Parse_error _ as exn ->
    `Error (false, Shmls.Psy_parser.parse_error_message exn)
  | Failure msg -> `Error (false, msg)

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
    value & opt float Shmls_tune.Tune.default_divergence_tolerance
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
