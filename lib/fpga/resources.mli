(** Resource-utilisation model (the stand-in for Vitis' post-synthesis
    reports behind the paper's Tables 1-2). Structural charging with
    calibration constants; EXPERIMENTS.md records fit and deviations. *)

type usage = {
  r_luts : int;
  r_ffs : int;
  r_bram : int;  (** BRAM36 blocks *)
  r_uram : int;  (** UltraRAM blocks (buffers above 36 KiB) *)
  r_dsps : int;
}

val zero : usage
val ( ++ ) : usage -> usage -> usage
val scale : int -> usage -> usage

(** LUT/FF/DSP cost of a datapath with the given flop count (effective
    per-operator cost after Vitis packing). *)
val flop_usage : int -> usage

(** BRAM- or URAM-resident storage of the given size. *)
val storage : bytes:int -> usage

val fifo_usage : depth:int -> width_bits:int -> usage
val shift_usage : window_bytes:int -> usage
val small_copy_usage : bytes:int -> usage

(** Usage of one compute unit / of the whole deployment. *)
val of_design_cu : Design.t -> usage

val of_design : ?cu:int -> Design.t -> usage

type percentages = {
  pct_luts : float;
  pct_ffs : float;
  pct_bram : float;
  pct_uram : float;
  pct_dsps : float;
}

val to_percentages : usage -> percentages

(** Does the usage fit the U280? *)
val fits : usage -> bool

val pp : Format.formatter -> usage -> unit
