(* A Vitis-HLS-style synthesis report for a compiled design: the
   human-readable summary (performance, stage table, stream table,
   utilisation, interface map) that the real flow's .rpt files provide.
   shmls-compile prints it with --report. *)

let pct used total = 100.0 *. float_of_int used /. float_of_int total

let render ~plan ?cycle_result (d : Design.t) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let rule () = line "%s" (String.make 72 '-') in
  let summary = Design.summarise d in
  let est = Perf_model.estimate_design d in
  line "== Synthesis report: kernel '%s' (%s) ==" d.d_name U280.name;
  rule ();
  line "* Performance (analytic model)";
  line "    target clock        : %.0f MHz" (U280.clock_hz /. 1e6);
  line "    initiation interval : %d" summary.max_ii;
  line "    fill latency        : %d cycles" (Depth_balance.fill d);
  line "    kernel time         : %.3f ms (%.0f cycles)" (est.e_seconds *. 1e3)
    est.e_cycles;
  line "    throughput          : %.2f MPt/s over %d CU(s)%s" est.e_mpts est.e_cu
    (if est.e_bandwidth_bound then "  [bandwidth bound]" else "");
  rule ();
  (match cycle_result with
  | None -> ()
  | Some (r : Cycle_sim.result) ->
    let pct_of part =
      if r.Cycle_sim.cycles = 0 then 0.0
      else 100.0 *. float_of_int part /. float_of_int r.Cycle_sim.cycles
    in
    line "* Cycle simulation";
    line "    measured cycles     : %d%s" r.Cycle_sim.cycles
      (if r.Cycle_sim.deadlocked then "  [DEADLOCKED]" else "");
    line "    cycles simulated    : %d (%.1f%%)" r.Cycle_sim.cycles_simulated
      (pct_of r.Cycle_sim.cycles_simulated);
    line "    cycles fast-fwd     : %d (%.1f%%)" r.Cycle_sim.cycles_fast_forwarded
      (pct_of r.Cycle_sim.cycles_fast_forwarded);
    (match r.Cycle_sim.ss_period with
    | None -> line "    steady-state period : not detected"
    | Some (p, w) ->
      line "    steady-state period : %d cycle(s), %d write(s)/period" p w);
    (match Perf_model.check_fill_steady d r with
    | None -> ()
    | Some fs ->
      line "    fill model check    : model %.0f vs measured %.0f cycles (%.1f%% of run)"
        fs.Perf_model.fs_model_fill fs.Perf_model.fs_measured_fill
        (100.0 *. fs.Perf_model.fs_divergence));
    rule ());
  line "* Dataflow stages (%d)" (List.length d.d_stages);
  List.iter
    (fun stage ->
      match stage with
      | Design.Load { out_streams; ptr_args } ->
        line "    load_data        : %d port(s) -> %d stream(s)"
          (List.length ptr_args) (List.length out_streams)
      | Design.Shift { halo; extent; _ } ->
        line "    shift_buffer     : halo [%s], window %d elements"
          (String.concat "," (List.map string_of_int halo))
          (Design.shift_window ~halo ~extent)
      | Design.Dup { outputs; _ } ->
        line "    duplicate        : 1 -> %d copies" (List.length outputs)
      | Design.Compute c ->
        line "    compute %-8s : II=%d, %d flop(s), %d input stream(s)%s"
          c.name c.ii c.flops
          (List.length c.in_streams)
          (if c.small_copies > 0 then
             Printf.sprintf ", %d BRAM cop%s of small data (%d B)" c.small_copies
               (if c.small_copies = 1 then "y" else "ies")
               c.small_bytes
           else "")
      | Design.Write { in_streams; ptr_args; _ } ->
        line "    write_data       : %d stream(s) -> %d port(s)"
          (List.length in_streams) (List.length ptr_args))
    d.d_stages;
  rule ();
  line "* Streams (%d; FIFO storage %d bytes)" summary.n_streams
    summary.fifo_bytes;
  List.iter
    (fun (s : Design.stream) ->
      line "    stream %-5d : depth %5d x %4d bits" s.st_id s.st_depth
        s.st_width_bits)
    d.d_streams;
  rule ();
  let u1 = Resources.of_design_cu d in
  let ut = Resources.of_design d in
  line "* Utilisation            per CU               total (%d CU%s)" d.d_cu
    (if d.d_cu > 1 then "s" else "");
  let row name get total =
    line "    %-6s %12d (%5.2f%%) %12d (%5.2f%%)" name (get u1)
      (pct (get u1) total) (get ut)
      (pct (get ut) total)
  in
  row "LUT" (fun (u : Resources.usage) -> u.r_luts) U280.luts;
  row "FF" (fun u -> u.r_ffs) U280.ffs;
  row "BRAM" (fun u -> u.r_bram) U280.bram36;
  row "URAM" (fun u -> u.r_uram) U280.uram;
  row "DSP" (fun u -> u.r_dsps) U280.dsps;
  if not (Resources.fits ut) then
    line "    !! design does NOT fit the device";
  rule ();
  line "* Interfaces (%d AXI ports per CU)" d.d_ports_per_cu;
  List.iter
    (fun (iface : Design.interface) ->
      line "    arg%-3d -> bundle %-12s %s" iface.if_arg iface.if_bundle
        (if iface.if_hbm_bank >= 0 then
           Printf.sprintf "HBM[%d]" iface.if_hbm_bank
         else "HBM[30:31] (shared small-data)"))
    d.d_interfaces;
  let s = Stage_compiler.stats plan in
  rule ();
  line "* Functional simulation (plan)";
  line "    register slots      : %d float, %d int, %d pointer" s.cs_fregs
    s.cs_iregs s.cs_pregs;
  line "    compiled steps      : %d closure(s) across compute stages" s.cs_steps;
  line "    batched loops       : %d whole-stream loop(s)" s.cs_batched;
  line "    folded constants    : %d" s.cs_folded;
  Buffer.contents buf
