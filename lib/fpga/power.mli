(** Power and energy model (the stand-in for the paper's XRT card
    telemetry, method of [13]): static shell draw plus dynamic terms
    linear in active resources and HBM traffic; energy = power x time. *)

type report = {
  p_static_w : float;
  p_dynamic_w : float;
  p_total_w : float;
  p_energy_j : float;
}

(** (static, dynamic) watts. [activity] is the fraction of cycles the
    logic does useful work (1.0 at II=1; ~1/II for high-II flows). *)
val average_power :
  usage:Resources.usage -> activity:float -> bytes_per_second:float ->
  float * float

val report :
  usage:Resources.usage ->
  activity:float ->
  bytes_per_second:float ->
  seconds:float ->
  report

(** Power/energy of a run characterised by a performance estimate. *)
val of_estimate :
  usage:Resources.usage ->
  est:Perf_model.estimate ->
  bytes_per_point:int ->
  interior:int ->
  report

val pp : Format.formatter -> report -> unit
