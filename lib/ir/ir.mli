(** Core IR data structures: SSA values, generic operations with nested
    regions, blocks — the MLIR/xDSL stand-in everything else builds on.

    The record types are exposed transparently: they are mutable graph
    nodes and the dialect / transform layers traverse them directly. All
    mutation should still go through the functions below, which maintain
    use-def chains. *)

type value = {
  v_id : int;
  mutable v_ty : Ty.t;
  mutable v_def : def;
  mutable v_uses : use list;
}

and def = Op_result of op * int | Block_arg of block * int
and use = { u_op : op; u_index : int }

and op = {
  o_id : int;
  mutable o_name : string;
  mutable o_operands : value array;
  mutable o_results : value array;
  mutable o_attrs : (string * Attr.t) list;
  mutable o_regions : region list;
  mutable o_parent : block option;
  mutable o_prev : op option;  (** intrusive block-list link *)
  mutable o_next : op option;
  mutable o_loc : Loc.t;
  mutable o_order : int;
      (** position in the parent block; read it through
          {!Op.is_before_in_block} *)
}

and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_first : op option;
  mutable b_last : op option;
  mutable b_num_ops : int;
  mutable b_ordered : bool;  (** every op's [o_order] is current *)
  mutable b_parent : region option;
}

and region = {
  r_id : int;
  mutable r_blocks : block list;
  mutable r_parent : op option;
}

(** Reset all id counters (tests use this for stable printed output). *)
val reset_ids : unit -> unit

module Value : sig
  type t = value

  val ty : t -> Ty.t
  val id : t -> int
  val uses : t -> use list
  val has_uses : t -> bool
  val num_uses : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  (** The op defining this value, or [None] for block arguments. *)
  val defining_op : t -> op option

  val result_index : t -> int option

  (** Block containing the definition. *)
  val owner_block : t -> block option

  val add_use : t -> use -> unit
  val remove_use : t -> op:op -> index:int -> unit
end

module Value_set : Set.S with type elt = value
module Value_map : Map.S with type key = value

module Op : sig
  type t = op

  val create :
    name:string ->
    ?operands:value list ->
    ?result_tys:Ty.t list ->
    ?attrs:(string * Attr.t) list ->
    ?regions:region list ->
    ?loc:Loc.t ->
    unit ->
    t

  val name : t -> string
  val operands : t -> value list
  val results : t -> value list
  val attrs : t -> (string * Attr.t) list
  val regions : t -> region list
  val parent : t -> block option

  (** Predecessor / successor in the containing block's op list. *)
  val prev : t -> op option

  val next : t -> op option
  val equal : t -> t -> bool
  val operand : t -> int -> value
  val result : t -> int -> value
  val num_operands : t -> int
  val num_results : t -> int
  val get_attr : t -> string -> Attr.t option
  val get_attr_exn : t -> string -> Attr.t
  val set_attr : t -> string -> Attr.t -> unit
  val remove_attr : t -> string -> unit
  val loc : t -> Loc.t
  val set_loc : t -> Loc.t -> unit

  (** Replace operand [i], maintaining use lists. *)
  val set_operand : t -> int -> value -> unit

  (** Replace the whole operand vector. *)
  val set_operands : t -> value list -> unit

  (** Remove from the parent block without touching uses. O(1). *)
  val detach : t -> unit

  (** Erase this op and its regions. Raises if any result still has
      uses. *)
  val erase : t -> unit

  (** Pre-order walk over this op and all nested ops. *)
  val walk : t -> (t -> unit) -> unit

  (** All nested ops (including self) satisfying the predicate, in
      pre-order. *)
  val collect : t -> (t -> bool) -> t list

  (** [is_before_in_block a b]: [a] and [b] are in the same block and
      [a] comes first. O(1), once the block has numbered its ops: it
      does so on the first query after an insertion. *)
  val is_before_in_block : t -> t -> bool

  val is_terminator : t -> bool
end

module Block : sig
  type t = block

  val create : ?arg_tys:Ty.t list -> unit -> t
  val args : t -> value list
  val arg : t -> int -> value
  val num_args : t -> int

  (** Materialise the op list (O(n) — the ops themselves live in an
      intrusive doubly-linked list). *)
  val ops : t -> op list

  val first_op : t -> op option
  val last_op : t -> op option

  (** O(1) — the count is maintained by the insertion/removal calls. *)
  val num_ops : t -> int

  (** Allocation-free iteration; [f] may detach or erase the op it is
      handed (the successor is captured first). *)
  val iter_ops : t -> (op -> unit) -> unit

  val iter_ops_rev : t -> (op -> unit) -> unit
  val equal : t -> t -> bool
  val add_arg : t -> Ty.t -> value

  (** All insertions are O(1). An op already in a block is detached
      first. [insert_before]/[insert_after] raise if the anchor is not in
      this block. *)
  val append : t -> op -> unit

  val prepend : t -> op -> unit
  val insert_before : t -> anchor:op -> op -> unit
  val insert_after : t -> anchor:op -> op -> unit
  val terminator : t -> op option
end

module Region : sig
  type t = region

  val create : ?blocks:block list -> unit -> t
  val blocks : t -> block list
  val parent : t -> op option
  val add_block : t -> block -> unit

  (** First block; raises on empty region. *)
  val entry : t -> block

  val entry_opt : t -> block option
end

(** Redirect every use of [from] to [to_]. *)
val replace_all_uses : from:value -> to_:value -> unit

(** Replace an op's results with the given values, then erase the op. *)
val replace_op : op -> value list -> unit

module Module_ : sig
  (** A module is a [builtin.module] op with a single region/block. *)
  type t = op

  val create : unit -> t
  val body : t -> block
  val ops : t -> op list
  val funcs : t -> op list
  val find_func : t -> string -> op option
  val find_func_exn : t -> string -> op
end

(** Number of ops in a subtree, for pass statistics. *)
val count_ops : op -> int
