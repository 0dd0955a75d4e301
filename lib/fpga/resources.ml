(* Resource-utilisation model (%LUT / %FF / %BRAM / %DSP of the U280), the
   substitute for Vitis' post-synthesis reports behind the paper's
   Tables 1 and 2.

   The model charges resources structurally:
     - a fixed control/AXI-datamover base per compute unit,
     - per AXI interface (the m_axi adapters with 512-bit burst buffers),
     - per stream FIFO: registers when shallow, BRAM when deeper, URAM
       when very large (the delay-matching FIFOs of chained kernels),
     - per shift buffer: the sliding window lands in URAM (it spans whole
       grid planes), its addressing logic in LUT/FF/BRAM,
     - per small-data BRAM copy,
     - per floating-point operator (LUT/FF/DSP cost; the DSP figure is an
       *effective* per-op cost after Vitis operator packing).

   The paper's tables report LUT/FF/BRAM/DSP only; URAM is carried as an
   extra column here because the plane-sized line buffers of a U280
   design live there (DESIGN.md discusses this reporting difference).
   Coefficients are calibration constants, not measurements;
   EXPERIMENTS.md records how the percentages compare with the paper. *)

type usage = {
  r_luts : int;
  r_ffs : int;
  r_bram : int;
  r_uram : int;
  r_dsps : int;
}

let zero = { r_luts = 0; r_ffs = 0; r_bram = 0; r_uram = 0; r_dsps = 0 }

let ( ++ ) a b =
  {
    r_luts = a.r_luts + b.r_luts;
    r_ffs = a.r_ffs + b.r_ffs;
    r_bram = a.r_bram + b.r_bram;
    r_uram = a.r_uram + b.r_uram;
    r_dsps = a.r_dsps + b.r_dsps;
  }

let scale n a =
  {
    r_luts = n * a.r_luts;
    r_ffs = n * a.r_ffs;
    r_bram = n * a.r_bram;
    r_uram = n * a.r_uram;
    r_dsps = n * a.r_dsps;
  }

(* -- calibration constants ----------------------------------------- *)

let per_cu_base = { zero with r_luts = 1800; r_ffs = 2800; r_bram = 4 }

(* m_axi adapter with 512-bit data movers and burst buffers *)
let per_axi_interface = { zero with r_luts = 550; r_ffs = 950; r_bram = 7 }

let per_stage_control = { zero with r_luts = 160; r_ffs = 240 }

(* Effective DP floating-point operator cost (after Vitis packing). *)
let per_flop_luts = 100
let per_flop_ffs = 160

let flop_usage flops =
  {
    zero with
    r_luts = per_flop_luts * flops;
    r_ffs = per_flop_ffs * flops;
    r_dsps = (flops + 1) / 2;
  }

(* Threshold above which Vitis maps a memory to URAM. *)
let uram_threshold_bytes = 36 * 1024

let storage ~bytes =
  if bytes > uram_threshold_bytes then
    { zero with r_uram = (bytes + U280.uram_bytes - 1) / U280.uram_bytes }
  else { zero with r_bram = max 1 ((bytes + U280.bram36_bytes - 1) / U280.bram36_bytes) }

(* FIFOs: shallow ones land in LUTRAM/registers; deeper in BRAM/URAM. *)
let fifo_usage ~depth ~width_bits =
  let bits = depth * width_bits in
  if bits <= 2048 then
    { zero with r_luts = 50 + (bits / 16); r_ffs = bits / 4 }
  else { (storage ~bytes:(bits / 8)) with r_luts = 110; r_ffs = 180 }

(* Shift buffers: the sliding window plus addressing. *)
let shift_usage ~window_bytes =
  storage ~bytes:window_bytes ++ { zero with r_luts = 750; r_ffs = 1100 }

let small_copy_usage ~bytes =
  storage ~bytes ++ { zero with r_luts = 130; r_ffs = 190 }

(* -- model ---------------------------------------------------------- *)

(* Usage of one compute unit of a design. *)
let of_design_cu (d : Design.t) =
  let fifo_total =
    List.fold_left
      (fun acc (s : Design.stream) ->
        acc ++ fifo_usage ~depth:s.st_depth ~width_bits:s.st_width_bits)
      zero d.d_streams
  in
  let stage_total =
    List.fold_left
      (fun acc stage ->
        let u =
          match stage with
          | Design.Load _ | Design.Write _ ->
            { zero with r_luts = 950; r_ffs = 1600; r_bram = 2 }
          | Design.Dup _ -> { zero with r_luts = 150; r_ffs = 220 }
          | Design.Shift s ->
            shift_usage
              ~window_bytes:(8 * Design.shift_window ~halo:s.halo ~extent:s.extent)
          | Design.Compute c ->
            flop_usage c.flops
            ++ List.fold_left ( ++ ) zero
                 (List.init c.small_copies (fun _ ->
                      small_copy_usage
                        ~bytes:(c.small_bytes / max 1 c.small_copies)))
        in
        acc ++ per_stage_control ++ u)
      zero d.d_stages
  in
  let interfaces = scale (List.length d.d_interfaces) per_axi_interface in
  per_cu_base ++ fifo_total ++ stage_total ++ interfaces

let of_design ?(cu = -1) (d : Design.t) =
  let cu = if cu > 0 then cu else d.d_cu in
  scale cu (of_design_cu d)

type percentages = {
  pct_luts : float;
  pct_ffs : float;
  pct_bram : float;
  pct_uram : float;
  pct_dsps : float;
}

let to_percentages u =
  {
    pct_luts = 100.0 *. float_of_int u.r_luts /. float_of_int U280.luts;
    pct_ffs = 100.0 *. float_of_int u.r_ffs /. float_of_int U280.ffs;
    pct_bram = 100.0 *. float_of_int u.r_bram /. float_of_int U280.bram36;
    pct_uram = 100.0 *. float_of_int u.r_uram /. float_of_int U280.uram;
    pct_dsps = 100.0 *. float_of_int u.r_dsps /. float_of_int U280.dsps;
  }

let fits u =
  u.r_luts <= U280.luts && u.r_ffs <= U280.ffs && u.r_bram <= U280.bram36
  && u.r_uram <= U280.uram && u.r_dsps <= U280.dsps

let pp ppf u =
  let p = to_percentages u in
  Format.fprintf ppf
    "%%LUT %.2f  %%FF %.2f  %%BRAM %.2f  %%URAM %.2f  %%DSP %.2f" p.pct_luts
    p.pct_ffs p.pct_bram p.pct_uram p.pct_dsps
