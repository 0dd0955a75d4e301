(** Stream-depth balancing: enlarge FIFOs so every multi-input stage can
    keep all inputs flowing despite different path latencies — the
    delay-matching StencilFlow lacked on PW advection. *)

(** Safety margin added on top of the computed skew, in elements. *)
val margin : int

(** Path delay (elements of lead) of every stream, keyed by stream id. *)
val stream_delays : Design.t -> (int, int) Hashtbl.t

(** Longest stream-delay path of a design (its fill latency). *)
val fill : Design.t -> int

(** Minimum depth each multi-consumed stream needs. *)
val required_depths : Design.t -> (int, int) Hashtbl.t

(** Rewrite the depth attributes of the design's create_stream ops;
    returns how many were enlarged. *)
val balance : Design.t -> int

(** Balance then re-extract, so stream records carry final depths. *)
val balance_and_reextract : Design.t -> Design.t
