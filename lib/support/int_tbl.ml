(* Hash tables keyed by small non-negative ints (SSA value, op, stream
   and slot ids).  The key is its own hash and compares with [=] on
   ints, so lookups never go through the polymorphic [caml_hash] /
   [compare] primitives. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x land max_int
end)
