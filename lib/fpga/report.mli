(** A Vitis-HLS-style synthesis report for a compiled design:
    performance, stage and stream tables, utilisation, interface map.
    It ends with the functional-simulation [plan]'s shape (register
    slots, step closures, batched loops, folded constants);
    [cycle_result] adds a cycle-simulation section. *)

val render :
  plan:Stage_compiler.t ->
  ?cycle_result:Cycle_sim.result ->
  Design.t ->
  string
