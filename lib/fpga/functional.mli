(** Argument values for a functional run of an extracted design
    ({!Stage_compiler.run}): [Ptr] for field and small-data pointers
    (flat padded row-major arrays), [F] for scalars, in the kernel's
    argument order. *)

type value =
  | F of float
  | I of int
  | Ptr of float array * int
      (** external-memory pointer: padded row-major grid + offset *)
  | Mem of float array  (** local BRAM array *)
