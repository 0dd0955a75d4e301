(* Analytic performance model (DESIGN.md section 6).

   Charges cycles by the same mechanisms the paper reasons about:
   initiation interval, stage serialisation, shift-buffer fill latency,
   compute-unit replication and AXI port bandwidth.  Used both for the
   Stencil-HMLS designs (parameters read off the extracted design) and,
   with explicit parameters, by the baseline flow models. *)

type estimate = {
  e_cycles : float; (* per run, all CUs in parallel *)
  e_seconds : float;
  e_mpts : float; (* interior mega-points per second *)
  e_ii : int;
  e_serial : int;
  e_cu : int;
  e_fill : float;
  e_bandwidth_bound : bool;
}

(* Generic streaming estimate.

   [total_padded] elements flow through the design at [ii] cycles per
   element, [serial] times over (a flow that does not split computations
   into concurrent stages processes each point [serial] times through the
   same pipeline).  [cu] compute units each take an equal slab.
   [bytes_per_point] across all ports caps throughput at the aggregate
   port bandwidth ([ports] x 64 B/cycle). *)
let estimate ?(port_bytes = U280.axi_bytes) ~total_padded ~interior ~fill ~ii
    ~serial ~cu ~ports ~bytes_per_point ~clock_hz () =
  let slab = float_of_int total_padded /. float_of_int cu in
  let compute_cycles = slab *. float_of_int (ii * serial) in
  (* bandwidth bound: bytes per cycle the slab demands vs port capacity *)
  let port_bytes_per_cycle = float_of_int (ports * port_bytes) in
  let demand_cycles =
    slab *. float_of_int bytes_per_point /. port_bytes_per_cycle
  in
  let bandwidth_bound = demand_cycles > compute_cycles in
  let cycles = fill +. Float.max compute_cycles demand_cycles in
  let seconds = cycles /. clock_hz in
  {
    e_cycles = cycles;
    e_seconds = seconds;
    e_mpts = float_of_int interior /. seconds /. 1e6;
    e_ii = ii;
    e_serial = serial;
    e_cu = cu;
    e_fill = fill;
    e_bandwidth_bound = bandwidth_bound;
  }

(* Fill latency of a design: the longest stream-delay path to write_data. *)
let design_fill (d : Design.t) =
  let delays = Depth_balance.stream_delays d in
  Hashtbl.fold (fun _ v acc -> max v acc) delays 0

(* Bytes moved over AXI per grid point: one f64 read per loaded field,
   one f64 write per stored field, plus (fused variant) one f64 read per
   direct external-memory access the compute stage makes per point. *)
let design_bytes_per_point (d : Design.t) =
  let loads =
    List.fold_left
      (fun acc s ->
        match s with
        | Design.Load { out_streams; _ } -> acc + List.length out_streams
        | _ -> acc)
      0 d.d_stages
  in
  let stores =
    List.fold_left
      (fun acc s ->
        match s with
        | Design.Write { in_streams; _ } -> acc + List.length in_streams
        | _ -> acc)
      0 d.d_stages
  in
  let direct_reads =
    List.fold_left
      (fun acc s ->
        match s with Design.Compute c -> acc + c.ext_reads | _ -> acc)
      0 d.d_stages
  in
  8 * (loads + stores + direct_reads)

(* Largest serialisation factor of any compute stage: 1 for the split
   pipeline (every stage concurrent), the number of grid passes for the
   fused (no-split) variant. *)
let design_serial (d : Design.t) =
  List.fold_left
    (fun acc s -> match s with Design.Compute c -> max acc c.serial | _ -> acc)
    1 d.d_stages

(* Estimate for a Stencil-HMLS design: II from the pipelined compute
   stages (II = 1 by construction), serialisation and port width read
   off the design itself (1 / 64 B for the full pipeline; the no-split
   and no-pack variants carry their own values), CU count from the port
   budget unless the plan forced one. *)
let estimate_design ?(cu = -1) (d : Design.t) =
  let summary = Design.summarise d in
  let cu = if cu > 0 then cu else d.d_cu in
  estimate ~port_bytes:d.d_port_bytes
    ~total_padded:(Design.total_padded d)
    ~interior:(Design.interior_points d)
    ~fill:(float_of_int (design_fill d))
    ~ii:summary.max_ii ~serial:(design_serial d) ~cu
    ~ports:(cu * d.d_ports_per_cu)
    ~bytes_per_point:(design_bytes_per_point d)
    ~clock_hz:U280.clock_hz ()

(* Cross-check of the model's fill/steady split against the event
   simulator's detected steady-state period: with w write retirements
   per p-cycle period and k write stream slots retiring total_padded
   elements each, the steady phase spans total * k * p / w cycles; the
   rest of the measured run is fill (plus drain, which the model folds
   into fill).  The divergence is normalised by the measured total so a
   few fill cycles of slack on a long run do not read as model error. *)

type fill_steady_check = {
  fs_model_fill : float;
  fs_measured_fill : float;
  fs_measured_steady : float;
  fs_period : int;
  fs_writes_per_period : int;
  fs_divergence : float; (* |model fill - measured fill| / total cycles *)
}

let check_fill_steady (d : Design.t) (r : Cycle_sim.result) =
  match r.Cycle_sim.ss_period with
  | None -> None
  | Some (_, w) when w <= 0 -> None
  | Some (p, w) ->
    if r.Cycle_sim.deadlocked then None
    else begin
      let total = Design.total_padded d in
      let write_slots =
        List.fold_left
          (fun acc s ->
            match s with
            | Design.Write { in_streams; _ } -> acc + List.length in_streams
            | _ -> acc)
          0 d.d_stages
      in
      let steady =
        float_of_int (total * write_slots * p) /. float_of_int w
      in
      let cycles = float_of_int r.Cycle_sim.cycles in
      let measured_fill = Float.max 0.0 (cycles -. steady) in
      let model_fill = float_of_int (design_fill d) in
      let divergence =
        Float.abs (model_fill -. measured_fill) /. Float.max 1.0 cycles
      in
      Some
        {
          fs_model_fill = model_fill;
          fs_measured_fill = measured_fill;
          fs_measured_steady = steady;
          fs_period = p;
          fs_writes_per_period = w;
          fs_divergence = divergence;
        }
    end

let pp_estimate ppf e =
  Format.fprintf ppf
    "%.2f MPt/s (%.0f cycles, %.4f s, II=%d, serial=%d, %d CU%s%s)" e.e_mpts
    e.e_cycles e.e_seconds e.e_ii e.e_serial e.e_cu
    (if e.e_cu > 1 then "s" else "")
    (if e.e_bandwidth_bound then ", bandwidth-bound" else "")
