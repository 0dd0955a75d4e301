(** Pass manager: in-place module transformations with statistics,
    instrumentation hooks and nested-pipeline parsing. *)

type t = { pass_name : string; description : string; run : Ir.op -> unit }

type stat = {
  stat_pass : string;
  duration_s : float;
  ops_before : int;
  ops_after : int;
  ops_counted : bool;  (** [false] when op counting was gated off *)
  stat_cached : bool;  (** [true] when the memo table skipped the run *)
}

(** Instrumentation hooks, called around every pass a pipeline runs
    (IR snapshots, tracing, progress reporting). *)
type hook = {
  h_before : t -> Ir.op -> unit;
  h_after : t -> stat -> Ir.op -> unit;
}

val hook :
  ?before:(t -> Ir.op -> unit) ->
  ?after:(t -> stat -> Ir.op -> unit) ->
  unit ->
  hook

val make : name:string -> ?description:string -> (Ir.op -> unit) -> t

(** Textual pass options, e.g. [["steps", "2-5"]] from ["p{steps=2-5}"]. *)
type options = (string * string) list

(** Global pass registry, used by the shmls-opt driver. *)
val register : t -> unit

(** A named pipeline that expands to component passes (possibly filtered
    by options, e.g. ["stencil-to-hls{steps=2-5}"]).  [parse_pipeline]
    flattens the expansion so each component is run (and timed, verified,
    dumped) individually. *)
val register_composite :
  name:string -> ?description:string -> (options -> t list) -> unit

(** Wrap a pass list as one pass running them in order. *)
val sequence : name:string -> description:string -> t list -> t

(** [lookup name] resolves any registry entry to a runnable pass
    (composites as one sequence). *)
val lookup : string -> t option

val lookup_exn : string -> t
val registered_passes : unit -> string list

(** One-line description of a registered pass, if any. *)
val describe : string -> string option

(** Printed-form digest of a module; value numbering is assigned per
    print, so structurally identical modules share a fingerprint. *)
val fingerprint : Ir.op -> Digest.t

(** [(hits, misses)] of the pass-result memo since the last
    {!reset_memo}. *)
val memo_stats : unit -> int * int

val reset_memo : unit -> unit

(** Run one pass; with [verify], check module invariants afterwards and
    report the pass that broke them.  Op counts in the returned stat are
    only computed when [op_stats] is set or hooks are present (a count is
    a full module walk).  With [memo], passes recorded as no-ops on this
    module's fingerprint are skipped entirely. *)
val run_one :
  ?verify:bool ->
  ?hooks:hook list ->
  ?op_stats:bool ->
  ?memo:bool ->
  t ->
  Ir.op ->
  stat

val run_pipeline :
  ?verify_each:bool ->
  ?hooks:hook list ->
  ?op_stats:bool ->
  ?memo:bool ->
  t list ->
  Ir.op ->
  stat list

(** Parse ["pass1,pass2{opt=v}"] into passes via the registry.  Commas
    inside braces bind to the preceding pass; composites are flattened. *)
val parse_pipeline : string -> t list

val pp_stat : Format.formatter -> stat -> unit

(** Aggregate per-pass timing/op-count table over a whole run. *)
val pp_summary : Format.formatter -> stat list -> unit
