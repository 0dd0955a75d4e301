(* Argument values for a functional run of an extracted design: what
   {!Stage_compiler.run} binds to the kernel function's arguments. *)

type value =
  | F of float
  | I of int
  | Ptr of float array * int (* external-memory pointer: base + offset *)
  | Mem of float array (* local BRAM array *)
