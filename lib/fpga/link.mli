(** Inter-device link model for multi-device (slab-partitioned) designs:
    a point-to-point connection between neighbouring devices — an Aurora
    / QSFP-style serial link — characterised by payload bandwidth and a
    fixed per-message latency.  Used by {!Cycle_sim.run_multi} to charge
    halo-exchange cycles and by {!Cost.evaluate} (through {!charge}) so
    the tuner can price multi-chip points. *)

type t = {
  lk_gbps : float;  (** payload bandwidth, gigabits per second *)
  lk_latency : int;  (** per-exchange latency, device clock cycles *)
}

(** 100 Gbit/s at 250 cycles — a QSFP28 retimed link. *)
val default : t

(** Parse a [--link] CLI argument: ["GBPS@LATENCY"] (e.g. "100@250"),
    or just ["GBPS"] with the default latency.  A bandwidth whose
    {!bytes_per_cycle} is not a positive normal float is rejected. *)
val of_string : string -> (t, string) result

val to_string : t -> string

(** Payload bytes the link moves per device clock cycle
    ([lk_gbps / 8 / U280.clock_hz] in units of 1e9). *)
val bytes_per_cycle : t -> float

(** Cycles one halo exchange of [bytes] occupies the link:
    latency + serialisation. *)
val transfer_cycles : t -> bytes:int -> float

(** Cycles an exchange actually delays the receiving device, given the
    design's shift-buffer fill span [fill] to hide serialisation under:
    the fixed latency is never hidden (the first halo plane is the first
    thing the device streams), the serialisation overlaps the fill ramp.
    [latency + max 0 (bytes/bw - fill)]; zero when [bytes = 0] (a single
    device exchanges nothing). *)
val charged_cycles : t -> bytes:int -> fill:int -> float

(** Bytes of one dim-0 halo plane of a design grid: 8 bytes per point
    over the padded extents of dimensions 1..; [halo] is the design's
    accumulated halo. *)
val halo_plane_bytes : grid:int list -> halo:int list -> int

(** Bytes one device receives per exchange phase: [fields] grid fields
    times the dim-0 halo depth planes from each of [neighbours]
    neighbours. *)
val exchange_bytes :
  grid:int list -> halo:int list -> fields:int -> neighbours:int -> int

(** [(cycles, seconds, mpts)] of a slab design whose single-device run
    takes [cycles]: the charged exchange cycles of [exchange_bytes]
    (hidden under [fill] where the serialisation overlaps) extend the
    run, and the throughput counts [global_interior] points — the whole
    grid, completed jointly by all devices per run — over the charged
    time.  With zero bytes and the design's own interior it reproduces
    the single-chip figures. *)
val charge :
  t ->
  exchange_bytes:int ->
  global_interior:int ->
  fill:int ->
  cycles:float ->
  float * float * float
