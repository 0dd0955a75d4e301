(** Occupancy tracing for the cycle simulator: sampled FIFO fill levels
    over time, exported as CSV or a quick ASCII profile. *)

type t = {
  tr_streams : int list;
  tr_samples : (int * int array) list;  (** cycle, occupancy per stream *)
}

(** Run the cycle simulator, sampling every [every] cycles. *)
val capture : ?every:int -> Design.t -> Cycle_sim.result * t

val to_csv : t -> string
val to_ascii : ?width:int -> t -> Design.t -> string
