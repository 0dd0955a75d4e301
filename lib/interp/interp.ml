(* Reference interpreter for stencil-dialect IR.

   Executes a shape-inferred module on concrete grids, providing the
   ground-truth results that the FPGA functional simulator and all
   baseline flows are checked against.  Gather semantics: each
   stencil.apply computes into fresh grids before stencil.store copies the
   written region into the destination field, so in-place (Inout) kernels
   behave like their PSyclone originals.

   Each stencil.apply body is decoded once, before its point loop: every
   SSA value gets a dense slot in an unboxed float file or an int file,
   loop-invariant outer values are preloaded into slots, and each op
   becomes a closure that reads and writes slots directly.  The decoder
   shares no code with the stage compiler in lib/fpga, the engine this
   interpreter checks, so the differential check keeps its meaning. *)

open Shmls_ir
open Shmls_dialects

type rval =
  | F of float
  | I of int
  | B of bool
  | G of Grid.t

(* Where a decoded value lives.  Ints, indices and booleans (0/1) share
   the int file; grids are loop-invariant, so they are resolved while
   decoding. *)
type slot =
  | SF of int
  | SI of int
  | SB of int
  | SG of Grid.t

(* What a body is decoded into.  One decoder serves a whole function:
   each apply resets it, so the files, the slot table and the cursor
   arrays are allocated once per run, not once per apply. *)
type decoder = {
  outer : (int, rval) Hashtbl.t; (* function-level values *)
  slots : (int, slot) Hashtbl.t; (* value id -> slot *)
  mutable fl : float array; (* the float file *)
  mutable it : int array; (* the int file *)
  mutable n_f : int;
  mutable n_i : int;
  mutable space : (int array * int array) option; (* the apply's [lb, ub) *)
  mutable results : Grid.t array; (* the apply's result grids *)
  mutable pos : int array; (* the current point *)
  mutable cur : int array;
  (* cur.(0): the point's offset along its row; cur.(g): linear index of
     the row's first point in geometry g >= 1 *)
  mutable geoms : (int array * int array) list;
  (* (lb, strides) of the linearly indexed grids, newest (= n_geoms)
     first *)
  mutable n_geoms : int;
  mutable steps : (unit -> unit) array; (* the decoded body, in order *)
  mutable n_steps : int;
}

(* Function-level values, plus the decoder for the bodies below them. *)
type env = {
  vals : (int, rval) Hashtbl.t; (* value id -> runtime value *)
  dec : decoder;
}

let make_env () =
  let vals = Hashtbl.create 64 in
  let dec =
    {
      outer = vals;
      slots = Hashtbl.create 64;
      fl = [||];
      it = [||];
      n_f = 0;
      n_i = 0;
      space = None;
      results = [||];
      pos = [||];
      cur = [||];
      geoms = [];
      n_geoms = 0;
      steps = [||];
      n_steps = 0;
    }
  in
  { vals; dec }

let bind env v rv = Hashtbl.replace env.vals (Ir.Value.id v) rv

let lookup env v =
  match Hashtbl.find_opt env.vals (Ir.Value.id v) with
  | Some rv -> rv
  | None -> Err.raise_error "interp: unbound value %%v%d" (Ir.Value.id v)

let as_f env v =
  match lookup env v with
  | F f -> f
  | I i -> float_of_int i
  | B _ | G _ -> Err.raise_error "interp: expected float"

let as_i env v =
  match lookup env v with
  | I i -> i
  | F _ | B _ | G _ -> Err.raise_error "interp: expected int"

let as_g env v =
  match lookup env v with
  | G g -> g
  | F _ | I _ | B _ -> Err.raise_error "interp: expected grid"

let temp_bounds v =
  match Ir.Value.ty v with
  | Ty.Temp (Some b, _) -> b
  | Ty.Temp (None, _) ->
    Err.raise_error "interp: temp without bounds (run shape inference first)"
  | t -> Err.raise_error "interp: expected temp, got %s" (Ty.to_string t)

(* ------------------------------------------------------------------ *)
(* Decoding: ops to slot closures *)

(* What decoding [o] can take: each file gets at most one slot per
   result and per operand (a preloaded outer value or a converted copy);
   each access and each returned value needs at most one geometry. *)
let slots_needed o = Ir.Op.num_results o + Ir.Op.num_operands o

let geoms_needed o =
  if Ir.Op.name o = "stencil.access" then 1
  else if Ir.Op.name o = Stencil.return_op then Ir.Op.num_operands o
  else 0

let rec sum_ops f acc = function
  | None -> acc
  | Some o -> sum_ops f (acc + f o) (Ir.Op.next o)

(* Start decoding: clear the slot table and make sure the files have
   room for [slots] slots and the cursor for [geoms] geometries. *)
let reset d ?space ?(results = [||]) ~slots ~geoms () =
  if Array.length d.fl < slots then begin
    d.fl <- Array.make slots 0.0;
    d.it <- Array.make slots 0
  end;
  if Array.length d.cur <= geoms then d.cur <- Array.make (geoms + 1) 0;
  let rank = match space with Some (lb, _) -> Array.length lb | None -> 0 in
  if Array.length d.pos <> rank then d.pos <- Array.make rank 0;
  Hashtbl.clear d.slots;
  d.n_f <- 0;
  d.n_i <- 0;
  d.space <- space;
  d.results <- results;
  d.geoms <- [];
  d.n_geoms <- 0;
  d.n_steps <- 0

let nop () = ()

let emit d step =
  if d.n_steps = Array.length d.steps then begin
    let grown = Array.make ((2 * d.n_steps) + 16) nop in
    Array.blit d.steps 0 grown 0 d.n_steps;
    d.steps <- grown
  end;
  d.steps.(d.n_steps) <- step;
  d.n_steps <- d.n_steps + 1

(* Drop the decoded closures and the grids they hold. *)
let release d =
  Array.fill d.steps 0 d.n_steps nop;
  d.n_steps <- 0;
  d.results <- [||];
  d.geoms <- []

let new_f d =
  let s = d.n_f in
  d.n_f <- s + 1;
  s

let new_i d =
  let s = d.n_i in
  d.n_i <- s + 1;
  s

let set_slot d v s = Hashtbl.replace d.slots (Ir.Value.id v) s

(* Preload a loop-invariant value into a fresh slot. *)
let slot_of_rval d = function
  | F x ->
    let s = new_f d in
    d.fl.(s) <- x;
    SF s
  | I i ->
    let s = new_i d in
    d.it.(s) <- i;
    SI s
  | B b ->
    let s = new_i d in
    d.it.(s) <- (if b then 1 else 0);
    SB s
  | G g -> SG g

let slot_of d v =
  let id = Ir.Value.id v in
  match Hashtbl.find d.slots id with
  | s -> s
  | exception Not_found -> (
    match Hashtbl.find d.outer id with
    | rv ->
      let s = slot_of_rval d rv in
      Hashtbl.replace d.slots id s;
      s
    | exception Not_found -> Err.raise_error "interp: unbound value %%v%d" id)

(* The float slot holding [v]; an int operand is converted. *)
let float_slot d v =
  match slot_of d v with
  | SF s -> s
  | SI s ->
    let r = new_f d and fl = d.fl and it = d.it in
    emit d (fun () -> fl.(r) <- float_of_int it.(s));
    r
  | SB _ | SG _ -> Err.raise_error "interp: expected float"

let int_slot d v =
  match slot_of d v with
  | SI s -> s
  | SF _ | SB _ | SG _ -> Err.raise_error "interp: expected int"

let grid_of d v =
  match slot_of d v with
  | SG g -> g
  | SF _ | SI _ | SB _ -> Err.raise_error "interp: expected grid"

(* The cur index of [g]'s row-major geometry, shared by every grid with
   the same lower bounds and strides. *)
let rec find_geometry (g : Grid.t) i = function
  | [] -> 0
  | (lb, strides) :: rest ->
    if lb = g.Grid.lb && strides = g.Grid.strides then i
    else find_geometry g (i - 1) rest

let geometry_index d g =
  match find_geometry g d.n_geoms d.geoms with
  | 0 ->
    d.n_geoms <- d.n_geoms + 1;
    d.geoms <- (g.Grid.lb, g.Grid.strides) :: d.geoms;
    d.n_geoms
  | i -> i

(* Whether [lb + off, ub + off) lies inside [g] from dimension [k] on:
   checking the corners subsumes the per-point checks. *)
let rec shifted_inside (g : Grid.t) lb ub k = function
  | [] -> k = Array.length lb && k = Grid.rank g
  | o :: off ->
    k < Array.length lb
    && k < Grid.rank g
    && lb.(k) + o >= g.Grid.lb.(k)
    && ub.(k) + o <= g.Grid.ub.(k)
    && shifted_inside g lb ub (k + 1) off

let covers d g off =
  match d.space with
  | Some (lb, ub) -> shifted_inside g lb ub 0 off
  | None -> false

(* How far [off] moves a linear index in [g]. *)
let rec linear_delta (g : Grid.t) k = function
  | [] -> 0
  | o :: off -> (o * g.Grid.strides.(k)) + linear_delta g (k + 1) off

let decode_access d (op : Ir.op) =
  let g = grid_of d (Ir.Op.operand op 0) in
  let off = Stencil.access_offset op in
  let r = new_f d and fl = d.fl and pos = d.pos in
  set_slot d (Ir.Op.result op 0) (SF r);
  if covers d g off then begin
    (* pos + off in g, linearised: the row base plus a fixed delta *)
    let gi = geometry_index d g and cur = d.cur and data = g.Grid.data in
    let delta = linear_delta g 0 off in
    emit d (fun () -> fl.(r) <- Array.unsafe_get data (cur.(gi) + cur.(0) + delta))
  end
  else
    let off = Array.of_list off in
    let p = Array.make (Array.length off) 0 in
    emit d (fun () ->
        for k = 0 to Array.length p - 1 do
          p.(k) <- pos.(k) + off.(k)
        done;
        Grid.check_index_arr g p;
        fl.(r) <- Array.unsafe_get g.Grid.data (Grid.unsafe_linear g p))

let decode_dyn_access d (op : Ir.op) =
  let g = grid_of d (Ir.Op.operand op 0) in
  let idx =
    List.tl (Ir.Op.operands op) |> List.map (int_slot d) |> Array.of_list
  in
  let r = new_f d and fl = d.fl and it = d.it in
  set_slot d (Ir.Op.result op 0) (SF r);
  let p = Array.make (Array.length idx) 0 in
  emit d (fun () ->
      for k = 0 to Array.length p - 1 do
        p.(k) <- it.(idx.(k))
      done;
      Grid.check_index_arr g p;
      fl.(r) <- Array.unsafe_get g.Grid.data (Grid.unsafe_linear g p))

(* stencil.return: operand i is the current point of result grid i. *)
let decode_return d (op : Ir.op) =
  let fl = d.fl and pos = d.pos in
  List.iteri
    (fun i v ->
      let g = d.results.(i) and s = float_slot d v in
      let data = g.Grid.data in
      if covers d g (List.init (Array.length d.pos) (fun _ -> 0)) then
        let gi = geometry_index d g and cur = d.cur in
        emit d (fun () -> Array.unsafe_set data (cur.(gi) + cur.(0)) fl.(s))
      else
        emit d (fun () ->
            Grid.check_index_arr g pos;
            Array.unsafe_set data (Grid.unsafe_linear g pos) fl.(s)))
    (Ir.Op.operands op)

let def_f d op =
  let r = new_f d in
  set_slot d (Ir.Op.result op 0) (SF r);
  r

let def_i d op =
  let r = new_i d in
  set_slot d (Ir.Op.result op 0) (SI r);
  r

let def_b d op =
  let r = new_i d in
  set_slot d (Ir.Op.result op 0) (SB r);
  r

(* Operand [i] of [op] as a float or an int slot. *)
let fop d op i = float_slot d (Ir.Op.operand op i)
let iop d op i = int_slot d (Ir.Op.operand op i)

(* The semantics of every op the interpreter runs, once: each case turns
   the op into a closure over the slot files.  Each closure spells its
   float operation out, so the point loop stays unboxed. *)
let decode_op d (op : Ir.op) =
  let fl = d.fl and it = d.it in
  match Ir.Op.name op with
  | "arith.constant" -> (
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f -> fl.(def_f d op) <- f
    | Attr.Int i -> it.(def_i d op) <- i
    | _ -> Err.raise_error "interp: bad arith.constant")
  | ( "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
    | "arith.maximumf" | "arith.minimumf" | "math.powf" ) as name ->
    let a = fop d op 0 in
    let b = fop d op 1 in
    let r = def_f d op in
    emit d
      (match name with
      | "arith.addf" -> fun () -> fl.(r) <- fl.(a) +. fl.(b)
      | "arith.subf" -> fun () -> fl.(r) <- fl.(a) -. fl.(b)
      | "arith.mulf" -> fun () -> fl.(r) <- fl.(a) *. fl.(b)
      | "arith.divf" -> fun () -> fl.(r) <- fl.(a) /. fl.(b)
      | "arith.maximumf" -> fun () -> fl.(r) <- Float.max fl.(a) fl.(b)
      | "arith.minimumf" -> fun () -> fl.(r) <- Float.min fl.(a) fl.(b)
      | "math.powf" -> fun () -> fl.(r) <- fl.(a) ** fl.(b)
      | _ -> assert false)
  | ( "arith.negf" | "math.sqrt" | "math.exp" | "math.log" | "math.absf"
    | "math.tanh" ) as name ->
    let a = fop d op 0 in
    let r = def_f d op in
    emit d
      (match name with
      | "arith.negf" -> fun () -> fl.(r) <- -.fl.(a)
      | "math.sqrt" -> fun () -> fl.(r) <- sqrt fl.(a)
      | "math.exp" -> fun () -> fl.(r) <- exp fl.(a)
      | "math.log" -> fun () -> fl.(r) <- log fl.(a)
      | "math.absf" -> fun () -> fl.(r) <- Float.abs fl.(a)
      | "math.tanh" -> fun () -> fl.(r) <- tanh fl.(a)
      | _ -> assert false)
  | ("arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi")
    as name ->
    let a = iop d op 0 in
    let b = iop d op 1 in
    let r = def_i d op in
    emit d
      (match name with
      | "arith.addi" -> fun () -> it.(r) <- it.(a) + it.(b)
      | "arith.subi" -> fun () -> it.(r) <- it.(a) - it.(b)
      | "arith.muli" -> fun () -> it.(r) <- it.(a) * it.(b)
      | "arith.divsi" -> fun () -> it.(r) <- it.(a) / it.(b)
      | "arith.remsi" -> fun () -> it.(r) <- it.(a) mod it.(b)
      | _ -> assert false)
  | "arith.cmpf" ->
    let a = fop d op 0 in
    let b = fop d op 1 in
    let r = def_b d op in
    emit d
      (match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
      | "olt" | "ult" -> fun () -> it.(r) <- Bool.to_int (fl.(a) < fl.(b))
      | "ole" | "ule" -> fun () -> it.(r) <- Bool.to_int (fl.(a) <= fl.(b))
      | "ogt" | "ugt" -> fun () -> it.(r) <- Bool.to_int (fl.(a) > fl.(b))
      | "oge" | "uge" -> fun () -> it.(r) <- Bool.to_int (fl.(a) >= fl.(b))
      | "oeq" | "ueq" -> fun () -> it.(r) <- Bool.to_int (fl.(a) = fl.(b))
      | "one" | "une" -> fun () -> it.(r) <- Bool.to_int (fl.(a) <> fl.(b))
      | p -> Err.raise_error "interp: cmpf predicate %s" p)
  | "arith.sitofp" ->
    let a = iop d op 0 in
    let r = def_f d op in
    emit d (fun () -> fl.(r) <- float_of_int it.(a))
  | "arith.index_cast" ->
    (* the same integer: alias the slot *)
    set_slot d (Ir.Op.result op 0) (SI (iop d op 0))
  | "arith.select" -> (
    let c =
      match slot_of d (Ir.Op.operand op 0) with
      | SB s | SI s -> s
      | SF _ | SG _ -> Err.raise_error "interp: select condition"
    in
    let x = slot_of d (Ir.Op.operand op 1) in
    let y = slot_of d (Ir.Op.operand op 2) in
    match (x, y) with
    | SF a, SF b ->
      let r = def_f d op in
      emit d (fun () -> fl.(r) <- (if it.(c) <> 0 then fl.(a) else fl.(b)))
    | SI a, SI b ->
      let r = def_i d op in
      emit d (fun () -> it.(r) <- (if it.(c) <> 0 then it.(a) else it.(b)))
    | SB a, SB b ->
      let r = def_b d op in
      emit d (fun () -> it.(r) <- (if it.(c) <> 0 then it.(a) else it.(b)))
    | SG g, SG h when g == h -> set_slot d (Ir.Op.result op 0) (SG g)
    | _ -> Err.raise_error "interp: select between values of different kinds")
  | "stencil.index" ->
    let dim = Attr.int_exn (Ir.Op.get_attr_exn op "dim") in
    let r = def_i d op and pos = d.pos in
    emit d (fun () -> it.(r) <- pos.(dim))
  | "stencil.access" -> decode_access d op
  | "stencil.dyn_access" -> decode_dyn_access d op
  | name when name = Stencil.return_op -> decode_return d op
  | name -> Err.raise_error "interp: unsupported op %s in stencil body" name

(* Decoding never fails by itself: an error becomes a step that raises
   it when the op runs, so it surfaces at that point of the body and only
   if the op runs at all (an empty iteration space runs nothing). *)
let decode d op =
  try decode_op d op
  with (Err.Error _ | Invalid_argument _ | Failure _) as e ->
    emit d (fun () -> raise e)

(* Evaluate one op outside any apply (function-level constants, the
   CPU-lowered executor): decode it, run it once, and box its results
   back into [env]. *)
let eval_simple_op env (op : Ir.op) =
  let d = env.dec in
  reset d ~slots:(slots_needed op) ~geoms:(geoms_needed op) ();
  decode d op;
  for s = 0 to d.n_steps - 1 do
    d.steps.(s) ()
  done;
  List.iter
    (fun v ->
      match Hashtbl.find_opt d.slots (Ir.Value.id v) with
      | Some (SF s) -> bind env v (F d.fl.(s))
      | Some (SI s) -> bind env v (I d.it.(s))
      | Some (SB s) -> bind env v (B (d.it.(s) <> 0))
      | Some (SG g) -> bind env v (G g)
      | None -> ())
    (Ir.Op.results op);
  release d

(* One row of the point loop: set each geometry's row base, then run
   the steps at every point along the innermost dimension. *)
let run_row d geoms (lb : int array) (ub : int array) =
  let rank = Array.length lb and pos = d.pos and cur = d.cur in
  let steps = d.steps and n_steps = d.n_steps in
  if rank > 0 then pos.(rank - 1) <- lb.(rank - 1);
  for g = 0 to Array.length geoms - 1 do
    let glb, strides = geoms.(g) in
    let base = ref 0 in
    for k = 0 to rank - 1 do
      base := !base + ((pos.(k) - glb.(k)) * strides.(k))
    done;
    cur.(g + 1) <- !base
  done;
  let row_len = if rank = 0 then 1 else ub.(rank - 1) - lb.(rank - 1) in
  for j = 0 to row_len - 1 do
    cur.(0) <- j;
    if rank > 0 then pos.(rank - 1) <- lb.(rank - 1) + j;
    for s = 0 to n_steps - 1 do
      (Array.unsafe_get steps s) ()
    done
  done

let rec run_rows d geoms lb ub k =
  if k >= Array.length lb - 1 then run_row d geoms lb ub
  else
    for i = lb.(k) to ub.(k) - 1 do
      d.pos.(k) <- i;
      run_rows d geoms lb ub (k + 1)
    done

let run_apply env (op : Ir.op) =
  let block = Stencil.apply_block op in
  let n_args = Ir.Block.num_args block in
  let arg_vals = Array.init n_args (fun i -> lookup env (Ir.Op.operand op i)) in
  let results =
    Array.init (Ir.Op.num_results op) (fun i ->
        Grid.create (temp_bounds (Ir.Op.result op i)))
  in
  (* the iteration space is result 0's bounds (and an apply without
     results fails here, naming the op) *)
  ignore (Ir.Op.result op 0);
  let space = results.(0) in
  let first = Ir.Block.first_op block in
  let d = env.dec in
  reset d ~space:(space.Grid.lb, space.Grid.ub) ~results
    ~slots:(sum_ops slots_needed n_args first)
    ~geoms:(sum_ops geoms_needed 0 first)
    ();
  Array.iteri
    (fun i rv -> set_slot d (Ir.Block.arg block i) (slot_of_rval d rv))
    arg_vals;
  Ir.Block.iter_ops block (decode d);
  (* Run the steps at every point, row-major.  Along a row each grid's
     linear index advances by one, so the row's first index per geometry
     is computed once per row and a proven access adds cur.(0) and its
     fixed delta. *)
  if Array.length space.Grid.data > 0 then
    run_rows d (Array.of_list (List.rev d.geoms)) space.Grid.lb space.Grid.ub 0;
  release d;
  Array.iteri (fun i g -> bind env (Ir.Op.result op i) (G g)) results

(* Copy the rows of [lb, ub) from [src] to [dst]; both contain it. *)
let rec copy_rows (src : Grid.t) (dst : Grid.t) lb ub pos k =
  let rank = Array.length lb in
  if k = rank - 1 then
    Array.blit src.data (Grid.unsafe_linear src pos) dst.data
      (Grid.unsafe_linear dst pos)
      (ub.(k) - lb.(k))
  else
    for i = lb.(k) to ub.(k) - 1 do
      pos.(k) <- i;
      copy_rows src dst lb ub pos (k + 1)
    done

let run_store env (op : Ir.op) =
  let src = as_g env (Ir.Op.operand op 0) in
  let dst = as_g env (Ir.Op.operand op 1) in
  let bounds = Stencil.store_bounds op in
  let lb, ub, _ = Grid.geometry bounds in
  if
    Array.length lb > 0
    && Grid.region_inside src bounds
    && Grid.region_inside dst bounds
  then begin
    if Ty.bounds_points bounds > 0 then copy_rows src dst lb ub (Array.copy lb) 0
  end
  else
    Grid.iter_bounds_arr bounds (fun pos ->
        Grid.check_index_arr src pos;
        Grid.check_index_arr dst pos;
        Array.unsafe_set dst.Grid.data
          (Grid.unsafe_linear dst pos)
          (Array.unsafe_get src.Grid.data (Grid.unsafe_linear src pos)))

(* Execute one function on the given argument values. Grids are mutated
   in place (fields written by stencil.store). *)
let run_func (func : Ir.op) ~(args : rval list) =
  let env = make_env () in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  let block_args = Ir.Block.args body in
  if List.length block_args <> List.length args then
    Err.raise_error "interp: %s expects %d args, got %d" (Func.sym_name func)
      (List.length block_args) (List.length args);
  List.iter2 (fun v rv -> bind env v rv) block_args args;
  List.iter
    (fun (op : Ir.op) ->
      match Ir.Op.name op with
      | "stencil.load" ->
        (* the temp shares the field's storage: reads see the field *)
        bind env (Ir.Op.result op 0) (lookup env (Ir.Op.operand op 0))
      | "stencil.external_load" | "stencil.cast" ->
        bind env (Ir.Op.result op 0) (lookup env (Ir.Op.operand op 0))
      | name when name = Stencil.apply_op -> run_apply env op
      | name when name = Stencil.store_op -> run_store env op
      | "func.return" -> ()
      | _ -> eval_simple_op env op)
    (Ir.Block.ops body);
  env

(* ------------------------------------------------------------------ *)
(* Generic executor for the CPU-lowered form (scf + memref + arith).
   Used to validate the stencil-to-cpu lowering against the stencil-level
   interpreter above. *)

let rec exec_generic_op env (op : Ir.op) =
  match Ir.Op.name op with
  | "memref.alloc" | "memref.alloca" ->
    let shape =
      match Ir.Value.ty (Ir.Op.result op 0) with
      | Ty.Memref (shape, _) -> shape
      | _ -> Err.raise_error "interp: alloc result not a memref"
    in
    let bounds =
      Ty.make_bounds ~lb:(List.map (fun _ -> 0) shape) ~ub:shape
    in
    bind env (Ir.Op.result op 0) (G (Grid.create bounds))
  | "memref.dealloc" -> ()
  | "memref.load" ->
    let g = as_g env (Ir.Op.operand op 0) in
    let indices =
      List.filteri (fun i _ -> i > 0) (Ir.Op.operands op) |> List.map (as_i env)
    in
    bind env (Ir.Op.result op 0) (F (Grid.get g indices))
  | "memref.store" ->
    let v = as_f env (Ir.Op.operand op 0) in
    let g = as_g env (Ir.Op.operand op 1) in
    let indices =
      List.filteri (fun i _ -> i > 1) (Ir.Op.operands op) |> List.map (as_i env)
    in
    Grid.set g indices v
  | "memref.copy" ->
    let src = as_g env (Ir.Op.operand op 0) in
    let dst = as_g env (Ir.Op.operand op 1) in
    Array.blit src.Grid.data 0 dst.Grid.data 0 (Array.length src.Grid.data)
  | "scf.for" ->
    let lb = as_i env (Ir.Op.operand op 0) in
    let ub = as_i env (Ir.Op.operand op 1) in
    let step = as_i env (Ir.Op.operand op 2) in
    let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
    let iv =
      match Ir.Block.args block with
      | iv :: _ -> iv
      | [] -> Err.raise_error "interp: scf.for without induction arg"
    in
    let iters =
      List.filteri (fun i _ -> i >= 1) (Ir.Block.args block)
    in
    let inits =
      List.filteri (fun i _ -> i >= 3) (Ir.Op.operands op)
      |> List.map (lookup env)
    in
    let current = ref inits in
    (* snapshot the body once; the loop body does not mutate the IR *)
    let body_ops = Ir.Block.ops block in
    let i = ref lb in
    while !i < ub do
      bind env iv (I !i);
      List.iter2 (fun v rv -> bind env v rv) iters !current;
      List.iter
        (fun (o : Ir.op) ->
          if Ir.Op.name o = "scf.yield" then
            current := List.map (lookup env) (Ir.Op.operands o)
          else exec_generic_op env o)
        body_ops;
      i := !i + step
    done;
    List.iteri
      (fun ri res -> bind env res (List.nth !current ri))
      (Ir.Op.results op)
  | "scf.if" ->
    let c =
      match lookup env (Ir.Op.operand op 0) with
      | B b -> b
      | I i -> i <> 0
      | _ -> Err.raise_error "interp: scf.if condition"
    in
    let regions = Ir.Op.regions op in
    let region =
      match (c, regions) with
      | true, r :: _ -> Some r
      | false, [ _; r ] -> Some r
      | false, [ _ ] -> None
      | _, _ -> Err.raise_error "interp: scf.if regions"
    in
    (match region with
    | None -> ()
    | Some r ->
      let block = Ir.Region.entry r in
      let yielded = ref [] in
      List.iter
        (fun (o : Ir.op) ->
          if Ir.Op.name o = "scf.yield" then
            yielded := List.map (lookup env) (Ir.Op.operands o)
          else exec_generic_op env o)
        (Ir.Block.ops block);
      List.iteri (fun ri res -> bind env res (List.nth !yielded ri)) (Ir.Op.results op))
  | "func.return" -> ()
  | _ -> eval_simple_op env op

(* Execute a CPU-lowered function (no stencil ops) on grid/scalar args. *)
let run_generic_func (func : Ir.op) ~(args : rval list) =
  let env = make_env () in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions func)) in
  let block_args = Ir.Block.args body in
  if List.length block_args <> List.length args then
    Err.raise_error "interp: %s expects %d args, got %d" (Func.sym_name func)
      (List.length block_args) (List.length args);
  List.iter2 (fun v rv -> bind env v rv) block_args args;
  List.iter (exec_generic_op env) (Ir.Block.ops body);
  env

(* ------------------------------------------------------------------ *)
(* Kernel-level convenience *)

(* Allocate grids for a lowered kernel: one per field (with halo), one per
   small array, deterministic pseudo-random contents. *)
type kernel_state = {
  fields : (string * Grid.t) list;
  smalls : (string * Grid.t) list;
  params : (string * float) list;
}

let alloc_state ?(seed = 7) (l : Shmls_frontend.Lower.lowered) =
  let k = l.l_kernel in
  let halo = l.l_halo in
  let bounds =
    Ty.make_bounds
      ~lb:(List.map (fun h -> -h) halo)
      ~ub:(List.map2 ( + ) l.l_grid halo)
  in
  let fields =
    List.mapi
      (fun i fd ->
        let g = Grid.create bounds in
        Grid.init_hash ~seed:(seed + i) g;
        (fd.Shmls_frontend.Ast.fd_name, g))
      k.k_fields
  in
  let smalls =
    List.mapi
      (fun i sd ->
        let axis = sd.Shmls_frontend.Ast.sd_axis in
        let n = List.nth l.l_grid axis and h = List.nth halo axis in
        let g = Grid.create (Ty.make_bounds ~lb:[ -h ] ~ub:[ n + h ]) in
        Grid.init_hash ~seed:(seed + 100 + i) g;
        (sd.sd_name, g))
      k.k_smalls
  in
  let params =
    List.mapi (fun i name -> (name, 0.1 +. (0.05 *. float_of_int i))) k.k_params
  in
  { fields; smalls; params }

let state_args (s : kernel_state) =
  List.map (fun (_, g) -> G g) s.fields
  @ List.map (fun (_, g) -> G g) s.smalls
  @ List.map (fun (_, v) -> F v) s.params

(* Run a lowered kernel end to end on a fresh state; returns the state
   after execution. *)
let run_lowered ?seed (l : Shmls_frontend.Lower.lowered) =
  let state = alloc_state ?seed l in
  ignore (run_func l.l_func ~args:(state_args state));
  state
