(** Token-level cycle simulation with bounded FIFOs and back-pressure:
    measures fill latency, steady-state II and completion cycles, and
    detects deadlock (the StencilFlow failure mode). Values are the
    functional simulator's business; this counts tokens.

    Affine phases — fill, steady state, drain, compute pipelines filling
    or draining and latency waits, where every occupancy and counter
    moves by a constant delta per period of at most 8 cycles — are
    fast-forwarded in closed form up to the next
    firing-guard flip; cycle counts, deadlock verdicts and
    tracer-visible occupancy sequences are identical to firing every
    stage every cycle (the differential suite checks them against that
    loop, kept with the tests as the oracle). *)

type result = {
  cycles : int;
  deadlocked : bool;
  stalled_stage : string option;  (** where progress stopped *)
  progress : (string * int * int) list;  (** stage, tokens done, target *)
  fifo_occupancy : (int * int * int) list;  (** stream, occ, cap at end *)
  cycles_simulated : int;  (** cycles advanced one at a time *)
  cycles_fast_forwarded : int;  (** cycles covered in closed form *)
  ss_period : (int * int) option;
      (** the first steady-state period (the bounded state repeats with
          writes moving): (period cycles, write retirements per period);
          [None] when no period was detected *)
}

(** [on_cycle] is called after every simulated cycle with the FIFO
    occupancies (stream id, tokens); use {!Trace} to collect them.
    Fast-forwarded cycles synthesise identical per-cycle records. *)
val run :
  ?on_cycle:(int -> (int * int) list -> unit) ->
  Design.t ->
  result

(** {2 Multi-device runs}

    One cycle simulation per slab device, joined by an inter-device
    {!Link}: every sweep is preceded by a halo delivery whose charged
    cycles follow the link model (fixed latency never hidden,
    serialisation overlapped with the design's fill ramp).  Devices
    run concurrently; the makespan is the slowest lane's
    [sweeps x (compute + charged exchange)]. *)

type device_lane = {
  dl_result : result;
  dl_exchange_bytes : int;  (** received per exchange phase *)
  dl_exchange_cycles : float;  (** link transfer per phase (unhidden) *)
  dl_exchange_charged : float;  (** per phase, after fill overlap *)
  dl_total : float;  (** sweeps x (compute + charged exchange) *)
}

type multi_result = {
  mr_link : Link.t;
  mr_sweeps : int;
  mr_lanes : device_lane list;  (** device order *)
  mr_cycles : float;  (** makespan: the slowest lane's total *)
  mr_exchange_charged : float;  (** makespan lane, per phase *)
  mr_exchange_hidden : float;  (** makespan lane: transfer - charged *)
  mr_deadlocked : bool;  (** any lane deadlocked *)
}

(** [run_multi ~link devices] cycle-simulates every [(design, exchange
    bytes received per phase)] lane and folds in the link
    charges.  [sweeps] (default 1) scales each lane's total — the
    steady-state convention charges one halo delivery per sweep. *)
val run_multi :
  ?sweeps:int ->
  link:Link.t ->
  (Design.t * int) list ->
  multi_result
