(** Common subexpression elimination for region-free [Pure] ops. *)

(** What two ops must share to compute the same values: name, operands
    (sorted for [Commutative] ops), attributes and result types. *)
type key

val key :
  name:string ->
  operands:Ir.value list ->
  attrs:(string * Attr.t) list ->
  result_tys:Ty.t list ->
  key

val key_of_op : Ir.op -> key

(** Tables keyed on {!key}. *)
module Tbl : Hashtbl.S with type key = key

(** Deduplicate within every block under [root]; returns the number of ops
    replaced. *)
val run_on_op : Ir.op -> int

val pass : Pass.t
