(* Power and energy model, the substitute for the XRT card telemetry used
   in the paper (method of Klaisoongnoen et al. [13]): average power is
   static shell draw plus dynamic terms linear in active resources and in
   HBM traffic; energy is average power times kernel runtime.

   This reproduces the mechanism behind the paper's Figures 5 and 6: the
   Stencil-HMLS designs draw marginally more power (more of the device is
   busy every cycle) but run so much shorter that their energy is one to
   two orders of magnitude lower. *)

type report = {
  p_static_w : float;
  p_dynamic_w : float;
  p_total_w : float;
  p_energy_j : float;
}

(* Dynamic power coefficients (W per unit, at full per-cycle activity). *)
let w_per_lut = 4.0e-6
let w_per_ff = 1.2e-6
let w_per_bram = 2.2e-3
let w_per_uram = 5.0e-3
let w_per_dsp = 1.4e-3
let w_per_gbytes_s = 0.06 (* HBM + PHY, per GB/s of traffic *)

(* [activity] is the fraction of cycles the logic does useful work: a
   pipeline at II=1 is ~1.0; a flow at II=163 clocks the same logic but
   only advances every 163 cycles, so its switching activity is low. *)
let average_power ~(usage : Resources.usage) ~activity ~bytes_per_second =
  let dynamic =
    activity
    *. ((float_of_int usage.r_luts *. w_per_lut)
       +. (float_of_int usage.r_ffs *. w_per_ff)
       +. (float_of_int usage.r_bram *. w_per_bram)
       +. (float_of_int usage.r_uram *. w_per_uram)
       +. (float_of_int usage.r_dsps *. w_per_dsp))
    +. (bytes_per_second /. 1e9 *. w_per_gbytes_s)
  in
  (U280.static_power_w, dynamic)

let report ~usage ~activity ~bytes_per_second ~seconds =
  let static, dynamic = average_power ~usage ~activity ~bytes_per_second in
  let total = static +. dynamic in
  {
    p_static_w = static;
    p_dynamic_w = dynamic;
    p_total_w = total;
    p_energy_j = total *. seconds;
  }

(* Convenience: power/energy of a design run characterised by its
   performance estimate. *)
let of_estimate ~usage ~(est : Perf_model.estimate) ~bytes_per_point ~interior =
  let bytes_per_second =
    float_of_int (bytes_per_point * interior) /. est.e_seconds
  in
  let activity = 1.0 /. float_of_int (est.e_ii * est.e_serial) in
  report ~usage ~activity ~bytes_per_second ~seconds:est.e_seconds

let pp ppf r =
  Format.fprintf ppf "%.1f W avg (%.1f static + %.1f dynamic), %.1f J"
    r.p_total_w r.p_static_w r.p_dynamic_w r.p_energy_j
