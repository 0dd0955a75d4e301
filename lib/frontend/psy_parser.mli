(** A Fortran-flavoured textual kernel language — the PSyclone stand-in.

    Syntax by example:
    {[
      kernel pw_advection
      rank 3
      input u
      output su
      small tzc1 axis 2
      param dt
      ! comments start with '!' or '#'
      su = 0.5 * (u[-1,0,0] + u[1,0,0]) * tzc1(0) - dt * u[0,0,0]
      end
    ]}

    Statement lines are [target = expr] in execution order. Expressions:
    field refs [name[o1,...,orank]], small refs [name(offset)], bare
    parameter / intermediate names, float literals, [+ - * /], unary [-],
    and the functions [min], [max], [sqrt], [exp], [abs]. *)

(** Parse kernel source; raises {!Err.Error} located at the offending
    line/column on syntax or validation errors.  [file] names the
    source in locations (default ["<psy>"]). *)
val parse : ?file:string -> string -> Ast.kernel

val parse_file : string -> Ast.kernel
