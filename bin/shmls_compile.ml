(* shmls-compile: the end-to-end driver (the paper's Figure 1 flow).

   The default command takes one kernel — a built-in one by name, or a
   textual kernel file in the PSyclone-stand-in language — and a grid,
   runs the full Stencil-HMLS pipeline, and writes/prints the artefacts:

     shmls-compile pw_advection --grid 64x64x32 --emit all -o out/
     shmls-compile my_kernel.psy --grid 32x32x16 --verify --evaluate

   The [sweep] subcommand evaluates the cross product of kernels and
   grids on the domain pool, streaming one JSON Lines row per
   configuration as it completes:

     shmls-compile sweep heat_3d laplace_2d --grids 32x32x16,64x64x32 \
       --verify --out results.jsonl *)

let write_file dir name contents =
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Deterministic text dump of the reassembled interior of every written
   field: byte-identical across device counts iff the results are
   bit-exact (the CI multi-device determinism gate compares these). *)
let dump_interiors path grid (outputs : (string * Shmls_interp.Grid.t) list) =
  let oc = open_out path in
  let interior =
    Shmls.Ty.make_bounds ~lb:(List.map (fun _ -> 0) grid) ~ub:grid
  in
  List.iter
    (fun (name, g) ->
      Printf.fprintf oc "field %s\n" name;
      Shmls_interp.Grid.iter_bounds interior (fun idx ->
          Printf.fprintf oc "%.17g\n" (Shmls_interp.Grid.get g idx)))
    outputs;
  close_out oc;
  Printf.printf "wrote %s\n" path

let run_tool kernel_spec grid_spec variant_spec emit outdir verify evaluate
    report trace pass_stats devices link_spec sweeps dump_grids =
  Cli.run @@ fun () ->
  let kernel = Cli.load_kernel kernel_spec in
  let grid = Cli.parse_grid grid_spec in
  let variant = Cli.get (Shmls.Variant.of_string variant_spec) in
  if devices < 1 then failwith "bad --devices (want >= 1)";
  if sweeps < 1 then failwith "bad --sweeps (want >= 1)";
  let link = Cli.get (Shmls.Link.of_string link_spec) in
  (* cached, so --evaluate and the multi-device plan reuse this compile *)
  let c = Shmls.compile_cached ~variant kernel ~grid in
  Printf.printf
    "kernel %s on %s (variant %s): %d CU(s) x %d AXI ports, %d dataflow \
     stages, %d streams\n"
    kernel.k_name grid_spec
    (Shmls.Variant.to_string variant)
    c.c_cu c.c_ports_per_cu
    (List.length c.c_design.d_stages)
    (List.length c.c_design.d_streams);
  (* The multi-device path also serves --dump-grids at one device, so
     device counts produce comparable (byte-identical iff bit-exact)
     interior dumps. *)
  let plan =
    if devices > 1 || sweeps > 1 || dump_grids <> "" then
      Some
        (Shmls_host.Multi_device.plan ~variant ~sweeps ~link kernel ~grid
           ~devices)
    else None
  in
  (match plan with
  | Some p ->
    print_string (Shmls_host.Multi_device.summarise p);
    let mr = Shmls_host.Multi_device.estimate p in
    Printf.printf
      "ensemble: %.0f cycles makespan (exchange: %.0f charged, %.0f \
       hidden), %.2f MPt/s aggregate\n"
      mr.Shmls.Cycle_sim.mr_cycles mr.Shmls.Cycle_sim.mr_exchange_charged
      mr.Shmls.Cycle_sim.mr_exchange_hidden
      (Shmls_host.Multi_device.aggregate_mpts p mr)
  | None -> ());
  if pass_stats then begin
    print_endline "HLS lowering pass statistics:";
    List.iter
      (fun s -> Format.printf "  %a@." Shmls.Pass.pp_stat s)
      c.c_pass_stats
  end;
  if emit = "stencil" || emit = "all" then begin
    if outdir = "" then print_endline (Shmls.emit_stencil_text c)
    else write_file outdir (kernel.k_name ^ ".stencil.mlir") (Shmls.emit_stencil_text c)
  end;
  if emit = "hls" || emit = "all" then begin
    if outdir = "" then print_endline (Shmls.emit_hls_text c)
    else write_file outdir (kernel.k_name ^ ".hls.mlir") (Shmls.emit_hls_text c)
  end;
  if emit = "llvm" || emit = "all" then begin
    if outdir = "" then print_endline (Shmls.emit_llvm_text c)
    else begin
      write_file outdir (kernel.k_name ^ ".ll") (Shmls.emit_llvm_text c);
      write_file outdir (kernel.k_name ^ ".cfg") c.c_connectivity
    end
  end;
  if emit = "circt" || emit = "all" then begin
    if outdir = "" then print_endline (Shmls.emit_circt_text c)
    else write_file outdir (kernel.k_name ^ ".circt.mlir") (Shmls.emit_circt_text c)
  end;
  if report then begin
    let cycle_result = Shmls.Cycle_sim.run c.c_design in
    print_string (Shmls.report_text ~cycle_result c)
  end;
  if trace <> "" then begin
    let result, t = Shmls.Trace.capture c.c_design in
    let oc = open_out trace in
    output_string oc (Shmls.Trace.to_csv t);
    close_out oc;
    Printf.printf "wrote %s (%d samples, %d cycles%s)\n" trace
      (List.length t.tr_samples) result.cycles
      (if result.deadlocked then ", DEADLOCKED" else "");
    print_string (Shmls.Trace.to_ascii t c.c_design)
  end;
  if verify then begin
    let v =
      match plan with
      | Some p -> Shmls_host.Multi_device.verify_vs_reference p
      | None -> Shmls.verify c
    in
    List.iter
      (fun (f, d) -> Printf.printf "verify %-12s max |diff| = %g\n" f d)
      v.v_fields;
    if v.v_max_diff > 1e-9 then failwith "verification FAILED"
    else
      print_endline
        (match plan with
        | Some _ ->
          "verification OK (reassembled multi-device result matches the \
           reference interpreter)"
        | None ->
          "verification OK (simulated design matches the reference \
           interpreter)")
  end;
  (match (dump_grids, plan) with
  | "", _ | _, None -> ()
  | path, Some p ->
    let r = Shmls_host.Multi_device.run p in
    dump_interiors path grid r.Shmls_host.Multi_device.rr_outputs);
  if evaluate then begin
    Printf.printf "\nevaluation on %s (all flows):\n" grid_spec;
    List.iter
      (fun outcome ->
        match outcome with
        | Shmls.Flow.Success s ->
          Format.printf "  %-14s %a@.                 %a@.                 %a@."
            s.s_flow Shmls.Perf_model.pp_estimate s.s_est Shmls.Resources.pp
            s.s_usage Shmls.Power.pp s.s_power
        | Shmls.Flow.Failure f ->
          Printf.printf "  %-14s FAILED: %s\n" f.f_flow f.f_reason)
      (Shmls.evaluate_all ~variant kernel ~grid)
  end

(* ------------------------------------------------------------------ *)
(* The sweep subcommand: kernels x grids on the domain pool, streamed
   as JSON Lines. *)

let row_json ~variant ~idx ~kernel_name ~grid ~measured (outcomes, verification) =
  let esc = Shmls_support.Jsonl.escape in
  let flow_json o =
    match o with
    | Shmls.Flow.Success s ->
      Printf.sprintf {|{"flow":"%s","ok":true,"mpts":%.6g}|}
        (esc s.s_flow) s.s_est.Shmls.Perf_model.e_mpts
    | Shmls.Flow.Failure f ->
      Printf.sprintf {|{"flow":"%s","ok":false,"reason":"%s"}|}
        (esc f.f_flow) (esc f.f_reason)
  in
  (* the analytic model's cycle count for the Stencil-HMLS flow, so a
     consumer can compare rows against measured cycles without
     re-deriving the model *)
  let model_field =
    match
      List.find_map
        (fun o ->
          match o with
          | Shmls.Flow.Success s when s.s_flow = "Stencil-HMLS" ->
            Some s.s_est.Shmls.Perf_model.e_cycles
          | _ -> None)
        outcomes
    with
    | Some cycles -> Printf.sprintf {|,"model_cycles":%.6g|} cycles
    | None -> ""
  in
  let verify_field =
    match verification with
    | None -> ""
    | Some (v : Shmls.verification) ->
      Printf.sprintf {|,"verify_max_diff":%.6g|} v.v_max_diff
  in
  (* measured cycles ride along only on verified rows: --verify opted
     into simulation *)
  let measured_field =
    match measured with
    | None -> ""
    | Some cycles -> Printf.sprintf {|,"measured_cycles":%d|} cycles
  in
  Printf.sprintf {|{"index":%d,"kernel":"%s","grid":[%s],"variant":"%s","flows":[%s]%s%s%s}|}
    idx (esc kernel_name)
    (String.concat "," (List.map string_of_int grid))
    (esc (Shmls.Variant.to_string variant))
    (String.concat "," (List.map flow_json outcomes))
    model_field verify_field measured_field

(* Configurations already present in a JSON Lines output file, keyed on
   (kernel, grid, variant) — what --resume skips. *)
let swept_keys path =
  let module J = Shmls_support.Jsonl in
  List.filter_map
    (fun line ->
      match
        (J.find_string line "kernel", J.find_ints line "grid",
         J.find_string line "variant")
      with
      | Some k, Some g, Some v ->
        Some (k ^ "|" ^ String.concat "x" (List.map string_of_int g) ^ "|" ^ v)
      | _ -> None)
    (J.resume_lines path)

let config_key ~variant (k : Shmls.Ast.kernel) grid =
  k.k_name ^ "|"
  ^ String.concat "x" (List.map string_of_int grid)
  ^ "|"
  ^ Shmls.Variant.to_string variant

let run_sweep kernel_specs grids_spec variant_spec verify seed jobs out resume
    devices =
  Cli.run @@ fun () ->
  if devices < 1 then failwith "bad --devices (want >= 1)";
  if jobs < 0 then failwith "bad --jobs (want >= 0)";
  let kernels = List.map Cli.load_kernel kernel_specs in
  let grids = Cli.parse_grids grids_spec in
  let variant = Cli.get (Shmls.Variant.of_string variant_spec) in
  let all_configs =
    List.concat_map (fun k -> List.map (fun g -> (k, g)) grids) kernels
  in
  (* --resume: skip configurations whose row is already in --out, keep
     the original indices of the rest, and append instead of
     truncating — re-running a finished sweep writes nothing. *)
  let done_keys =
    if resume && out <> "" then swept_keys out else []
  in
  let indexed =
    List.mapi (fun i cfg -> (i, cfg)) all_configs
    |> List.filter (fun (_, (k, g)) ->
           not (List.mem (config_key ~variant k g) done_keys))
  in
  let skipped = List.length all_configs - List.length indexed in
  let configs = List.map snd indexed in
  let orig_index = Array.of_list (List.map fst indexed) in
  let names_grids =
    List.map
      (fun ((k : Shmls.Ast.kernel), g) -> (k.k_name, g))
      configs
    |> Array.of_list
  in
  let kernels_arr = Array.of_list (List.map fst configs) in
  let out_channel =
    if out = "" then None
    else if resume then
      Some (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 out)
    else Some (open_out out)
  in
  if skipped > 0 then
    Printf.printf "resuming %s: %d configuration(s) already swept\n%!" out
      skipped;
  let multi_bad = ref false in
  let emit idx row =
    let name, grid = names_grids.(idx) in
    (* multi-device sweeps verify the reassembled slab ensemble instead
       of the single design; model and measured cycles stay those of
       the single-chip design, so a bit-exact multi-device sweep's
       JSONL is byte-identical to the single-device one *)
    let row =
      match row with
      | outcomes, None when verify && devices > 1 ->
        let p =
          Shmls_host.Multi_device.plan ~variant kernels_arr.(idx) ~grid
            ~devices
        in
        let v = Shmls_host.Multi_device.verify_vs_reference ~seed p in
        if v.Shmls.v_max_diff > 1e-9 then multi_bad := true;
        (outcomes, Some v)
      | _ -> row
    in
    (* verified rows also get measured cycles: the compile is a cache
       hit (the sweep compiled every configuration up front) and the
       event-driven engine fast-forwards the steady state, so this
       costs roughly fill + drain per row *)
    let measured =
      match snd row with
      | None -> None
      | Some _ ->
        let c = Shmls.compile_cached ~variant kernels_arr.(idx) ~grid in
        Some (Shmls.Cycle_sim.run c.c_design).Shmls.Cycle_sim.cycles
    in
    let line =
      row_json ~variant ~idx:orig_index.(idx) ~kernel_name:name ~grid
        ~measured row
    in
    (match out_channel with
    | Some oc ->
      output_string oc line;
      output_char oc '\n';
      flush oc
    | None -> ());
    let _, verification = row in
    Printf.printf "[%d/%d] %s %s%s\n%!" (idx + 1) (Array.length names_grids)
      name
      (String.concat "x" (List.map string_of_int grid))
      (match verification with
      | Some v -> Printf.sprintf " (verify max |diff| = %g)" v.v_max_diff
      | None -> "")
  in
  let finally () = Option.iter close_out out_channel in
  Fun.protect ~finally (fun () ->
      let results =
        Shmls.sweep ~jobs ~on_result:emit
          ~verify_designs:(verify && devices = 1)
          ~seed ~variant configs
      in
      let failures =
        List.concat_map
          (fun (outcomes, _) ->
            List.filter_map
              (function
                | Shmls.Flow.Failure { f_flow; _ } -> Some f_flow
                | Shmls.Flow.Success _ -> None)
              outcomes)
          results
      in
      let bad_verify =
        List.exists
          (fun (_, v) ->
            match v with
            | Some (v : Shmls.verification) -> v.v_max_diff > 1e-9
            | None -> false)
          results
      in
      Printf.printf "swept %d configuration(s): %d flow failure(s)\n"
        (List.length results) (List.length failures);
      if out <> "" then Printf.printf "wrote %s\n" out;
      if bad_verify || !multi_bad then
        failwith "verification FAILED for some configuration")

open Cmdliner

let kernel_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"KERNEL" ~doc:"Built-in kernel name or .psy kernel file.")

let grid_arg =
  Arg.(
    value & opt string "32x32x16"
    & info [ "g"; "grid" ] ~docv:"GRID" ~doc:"Grid extents, e.g. 256x256x128.")

let variant_arg =
  Arg.(
    value & opt string "full"
    & info [ "variant" ] ~docv:"VARIANT"
        ~doc:
          "Pipeline variant to compile: full (default), no-split, no-pack, \
           cu=N, or compositions like no-split+no-pack. These are the \
           paper's ablations, compiled as real pipelines.")

let emit_arg =
  Arg.(
    value
    & opt (enum [ ("none", "none"); ("stencil", "stencil"); ("hls", "hls"); ("llvm", "llvm"); ("circt", "circt"); ("all", "all") ]) "none"
    & info [ "emit" ] ~docv:"STAGE" ~doc:"Print/write IR: stencil, hls, llvm, circt or all.")

let outdir_arg =
  Arg.(
    value & opt string ""
    & info [ "o"; "outdir" ] ~docv:"DIR" ~doc:"Write artefacts here instead of stdout.")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Run the generated design in the functional simulator against \
           the reference interpreter.")

let evaluate_arg =
  Arg.(
    value & flag
    & info [ "evaluate" ] ~doc:"Report performance/resources/power for all five flows.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ] ~doc:"Print a Vitis-style synthesis report for the design.")

let trace_arg =
  Arg.(
    value & opt string ""
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Cycle-simulate and write a FIFO-occupancy CSV trace.")

let pass_stats_arg =
  Arg.(
    value & flag
    & info [ "pass-stats" ]
        ~doc:"Print per-step timing of the nine-pass HLS lowering.")

let devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Decompose the grid into N contiguous slabs along the first \
           dimension, compile one design per slab, and exchange halo planes \
           between neighbours over the modelled inter-device link. With \
           --verify, the reassembled result is checked bit-exact against \
           the single-grid reference.")

let link_arg =
  Arg.(
    value & opt string (Shmls.Link.to_string Shmls.Link.default)
    & info [ "link" ] ~docv:"GBPS[@LATENCY]"
        ~doc:
          "Inter-device link model: payload bandwidth in Gbit/s, optionally \
           @ a fixed per-exchange latency in device cycles (default \
           100@250). Only multi-device runs are charged.")

let sweeps_arg =
  Arg.(
    value & opt int 1
    & info [ "sweeps" ] ~docv:"N"
        ~doc:
          "Host-level time steps: after each sweep, output fields feed back \
           into their input fields and (multi-device) halos are \
           re-exchanged before the next sweep.")

let dump_grids_arg =
  Arg.(
    value & opt string ""
    & info [ "dump-grids" ] ~docv:"FILE"
        ~doc:
          "Write the reassembled interior of every written field as \
           deterministic text: byte-identical across --devices counts iff \
           the results are bit-exact.")

let compile_term =
  Term.(
    ret
      (const run_tool $ kernel_arg $ grid_arg $ variant_arg $ emit_arg
     $ outdir_arg $ verify_arg $ evaluate_arg $ report_arg $ trace_arg
     $ pass_stats_arg $ devices_arg $ link_arg $ sweeps_arg
     $ dump_grids_arg))

let sweep_kernels_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"KERNEL" ~doc:"Built-in kernel names or .psy kernel files.")

let grids_arg =
  Arg.(
    value & opt string "32x32x16"
    & info [ "grids" ] ~docv:"GRIDS"
        ~doc:"Comma-separated grid list, e.g. 32x32x16,64x64x32.")

let seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"N" ~doc:"Seed for the verification inputs.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Configurations evaluated concurrently. 0 (the default) is \
           adaptive: all available cores, degrading to the plain \
           sequential path on a one-core machine. 1 forces sequential \
           execution; results are byte-identical either way.")

let out_arg =
  Arg.(
    value & opt string ""
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Stream one JSON Lines row per configuration to FILE as results \
           complete (in configuration order, so the file is always a prefix \
           of the full sweep).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Append to --out instead of truncating, skipping configurations \
           whose (kernel, grid, variant) row is already present — so an \
           interrupted sweep picks up where it left off, and re-running a \
           finished one writes nothing.")

let sweep_devices_arg =
  Arg.(
    value & opt int 1
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "With --verify, verify each configuration's reassembled N-slab \
           multi-device run instead of the single design. Model and \
           measured cycles stay those of the single-chip design, so a \
           bit-exact multi-device sweep writes byte-identical JSONL.")

let sweep_cmd =
  let doc =
    "evaluate the cross product of kernels and grids on a pool of domains, \
     streaming JSON Lines rows"
  in
  Cmd.v
    (Cmd.info "shmls-compile sweep" ~doc)
    Term.(
      ret
        (const run_sweep $ sweep_kernels_arg $ grids_arg $ variant_arg
       $ verify_arg $ seed_arg $ jobs_arg $ out_arg $ resume_arg
       $ sweep_devices_arg))

let cmd =
  let doc = "compile stencil kernels through the Stencil-HMLS pipeline" in
  Cmd.v (Cmd.info "shmls-compile" ~doc) compile_term

(* [sweep] is routed by hand rather than with [Cmd.group] so that the
   historical single-kernel interface keeps its positional argument
   (a group would read any first positional as a command name). *)
let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "sweep" then
    let argv =
      Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
    in
    exit (Cmd.eval ~argv sweep_cmd)
  else exit (Cmd.eval cmd)
