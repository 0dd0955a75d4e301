(** Dense rank-1..3 float grids over integer bounds: the runtime data
    representation shared by the reference interpreter and the
    functional FPGA simulator. Row-major over [lb, ub) per dimension. *)

open Shmls_ir

type t = {
  bounds : Ty.bounds;
  data : float array;
  lb : int array;  (** [bounds.lb] as an array *)
  ub : int array;  (** [bounds.ub] as an array *)
  strides : int array;  (** row-major strides, innermost = 1 *)
}

(** [(lb, ub, strides)] arrays of a bounds value. *)
val geometry : Ty.bounds -> int array * int array * int array

val create : Ty.bounds -> t
val copy : t -> t
val extent : t -> int list
val size : t -> int
val rank : t -> int

(** Raises {!Err.Error} when an index is outside the bounds. *)
val get : t -> int list -> float

val set : t -> int list -> float -> unit

(** Linear offset of an absolute array index, no bounds checks; validate
    the corners of the loop nest once with {!check_index_arr} first. *)
val unsafe_linear : t -> int array -> int

(** Raises {!Err.Error} when the array index is outside the bounds. *)
val check_index_arr : t -> int array -> unit

(** Whether every point of the (rectangular) region lies inside the
    grid; checking its two corners lets a loop nest validate once and
    index unchecked. *)
val region_inside : t -> Ty.bounds -> bool

(** Iterate over every point of [bounds] in row-major order. *)
val iter_bounds : Ty.bounds -> (int list -> unit) -> unit

(** Same iteration handing out one shared mutable index array; callers
    must not retain it across points. *)
val iter_bounds_arr : Ty.bounds -> (int array -> unit) -> unit

val iter : t -> (int list -> float -> unit) -> unit
val map_inplace : t -> (int list -> float -> float) -> unit
val fill : t -> float -> unit

(** Deterministic pseudo-random contents in [-1, 1] (splitmix-style hash
    of the linear index), so every flow sees identical input data. *)
val init_hash : ?seed:int -> t -> unit

(** A grid over [bounds] with {!init_hash}'s contents, the cells
    written once. *)
val create_hashed : ?seed:int -> Ty.bounds -> t

(** Reindex from [lb, ub) to [0, ub-lb) sharing the same storage (the
    row-major layout is unchanged, so writes alias). *)
val rebase_zero : t -> t

val max_abs_diff : t -> t -> float
val equal_within : tol:float -> t -> t -> bool

(** Max |difference| restricted to the given region. *)
val max_abs_diff_on : Ty.bounds -> t -> t -> float

val checksum : t -> float
