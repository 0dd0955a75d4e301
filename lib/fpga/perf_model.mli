(** Analytic performance model (DESIGN.md section 6): charges cycles by
    initiation interval, stage serialisation, fill latency, CU
    replication and AXI port bandwidth. *)

type estimate = {
  e_cycles : float;
  e_seconds : float;
  e_mpts : float;  (** interior mega-points per second *)
  e_ii : int;
  e_serial : int;
  e_cu : int;
  e_fill : float;
  e_bandwidth_bound : bool;
}

(** Generic streaming estimate. [serial] models flows that pass each
    point through the pipeline several times; [port_bytes] is the
    sustained bytes/cycle per AXI port (default: the 512-bit burst
    rate). *)
val estimate :
  ?port_bytes:int ->
  total_padded:int ->
  interior:int ->
  fill:float ->
  ii:int ->
  serial:int ->
  cu:int ->
  ports:int ->
  bytes_per_point:int ->
  clock_hz:float ->
  unit ->
  estimate

(** Longest stream-delay path of a design (its fill latency). *)
val design_fill : Design.t -> int

(** AXI bytes moved per grid point (one read per loaded field, one write
    per stored field). *)
val design_bytes_per_point : Design.t -> int

(** Largest serialisation factor of any compute stage: 1 for the split
    pipeline, the number of grid passes for the fused variant. *)
val design_serial : Design.t -> int

(** Estimate for a Stencil-HMLS design; [cu] overrides the plan's CU
    count. *)
val estimate_design : ?cu:int -> Design.t -> estimate

(** Cross-check of the model's fill/steady split against the event
    simulator's detected steady-state period. *)
type fill_steady_check = {
  fs_model_fill : float;
  fs_measured_fill : float;  (** measured cycles minus the steady span *)
  fs_measured_steady : float;  (** total * write slots * period / writes *)
  fs_period : int;
  fs_writes_per_period : int;
  fs_divergence : float;
      (** |model fill - measured fill| normalised by total measured cycles *)
}

(** [None] when the run deadlocked or no steady-state period was
    detected. *)
val check_fill_steady :
  Design.t -> Cycle_sim.result -> fill_steady_check option

val pp_estimate : Format.formatter -> estimate -> unit
