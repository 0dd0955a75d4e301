(** Hash tables keyed by ints: the IR's value, op, stream and slot ids.
    The key is hashed and compared as an int, without the polymorphic
    hashing and comparison primitives of [Stdlib.Hashtbl]. *)

include Hashtbl.S with type key = int
