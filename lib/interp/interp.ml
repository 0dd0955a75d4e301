(* Reference interpreter for stencil-dialect IR.

   Executes a shape-inferred module on concrete grids, providing the
   ground-truth results that the FPGA functional simulator and all
   baseline flows are checked against.  Gather semantics: each
   stencil.apply computes into fresh grids before stencil.store copies the
   written region into the destination field, so in-place (Inout) kernels
   behave like their PSyclone originals.

   Each stencil.apply body is decoded once, before its rows run, into
   steps that each run a block of lanes along the innermost dimension; a
   row longer than [block_width] runs as several blocks, so no column
   grows with the row.  Every SSA value gets a slot in an unboxed float
   file or an int file: a column of [block_width] cells for a value that
   varies along the row, one cell read at every lane for an invariant (a
   body constant, a param, an outer value).  A corner-proven access is no
   step at all: the steps that use it read its lanes in place, from the
   grid's row base plus a fixed delta.  A covered stencil.return copies
   its lanes into the result row.  stencil.index is an iota column on
   the innermost dimension and a per-row cell on the others.  Every
   other access is a checked gather, lane by lane.

   A step that fails at lane j records its error and shrinks the block's
   live length to j: later steps run only the lanes before it, and the
   block raises the failure of its lowest lane.  That is the failure the
   point loop meets first, in row-major point order and then body order,
   with the same result writes before it.

   The decoder shares no code with the stage compiler in lib/fpga, the
   engine this interpreter checks, so the differential check keeps its
   meaning. *)

open Shmls_ir
open Shmls_dialects

type rval =
  | F of float
  | I of int
  | B of bool
  | G of Grid.t

(* Lanes per block: a column never holds more, however long the row. *)
let block_width = 64

(* Where a float value lives, read lane by lane: lane l is
   [data.(k + cur.(g) + (l land m))].  A value in the float file has
   g = 0 (cur.(0) stays 0) and reads the file, not [data]; a proven
   access reads its grid's row directly, from the row base of geometry
   g plus its fixed delta k.  The lane mask m is [column] (all ones) for
   a value that varies along the row and 0 for an invariant, one cell
   read at every lane. *)
type src = {
  data : float array;
  k : int;
  g : int;
  m : int;
}

let column = -1

(* Ints, indices and booleans (0/1) share the int file, as a cell and a
   lane mask; grids are loop-invariant, so they are resolved while
   decoding. *)
type slot =
  | SF of src
  | SI of int * int
  | SB of int * int
  | SG of Grid.t

(* What a body is decoded into.  One decoder serves a whole function:
   each apply resets it, so the files, the slot table and the cursor
   arrays are allocated once per run, not once per apply. *)
type decoder = {
  outer : rval Int_tbl.t; (* function-level values *)
  slots : slot Int_tbl.t; (* value id -> slot *)
  mutable fl : float array; (* the float file *)
  mutable it : int array; (* the int file *)
  mutable n_f : int; (* cells in use *)
  mutable n_i : int;
  mutable space : (int array * int array) option; (* the apply's [lb, ub) *)
  mutable results : Grid.t array; (* the apply's result grids *)
  mutable pos : int array;
  (* the current row; steps that need a whole point set its innermost
     index lane by lane *)
  mutable j0 : int; (* the block's first lane, as an offset along its row *)
  mutable cur : int array;
  (* cur.(0) = 0; cur.(g): linear index of the block's first point in
     geometry g >= 1 *)
  mutable geoms : (int array * int array) list;
  (* (lb, strides) of the linearly indexed grids, newest (= n_geoms)
     first *)
  mutable n_geoms : int;
  mutable steps : (int -> unit) array;
  (* the decoded body, in order: [steps.(s) n] runs lanes [0, n) *)
  mutable n_steps : int;
  mutable live : int; (* lanes of the block still running *)
  mutable failure : exn option; (* what failed at lane [live] *)
}

(* Function-level values, plus the decoder for the bodies below them. *)
type env = {
  vals : rval Int_tbl.t; (* value id -> runtime value *)
  dec : decoder;
}

let make_env () =
  let vals = Int_tbl.create 64 in
  let dec =
    {
      outer = vals;
      slots = Int_tbl.create 64;
      fl = [||];
      it = [||];
      n_f = 0;
      n_i = 0;
      space = None;
      results = [||];
      pos = [||];
      j0 = 0;
      cur = [| 0 |];
      geoms = [];
      n_geoms = 0;
      steps = [||];
      n_steps = 0;
      live = 0;
      failure = None;
    }
  in
  { vals; dec }

let bind env v rv = Int_tbl.replace env.vals (Ir.Value.id v) rv

let lookup env v =
  match Int_tbl.find_opt env.vals (Ir.Value.id v) with
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
(* Decoding: ops to block steps *)

(* Start decoding: clear the slot table and the files' cursors. *)
let reset d ?space ?(results = [||]) () =
  let rank = match space with Some (lb, _) -> Array.length lb | None -> 0 in
  if Array.length d.pos <> rank then d.pos <- Array.make rank 0;
  Int_tbl.clear d.slots;
  d.n_f <- 0;
  d.n_i <- 0;
  d.space <- space;
  d.results <- results;
  d.geoms <- [];
  d.n_geoms <- 0;
  d.n_steps <- 0

let nop _ = ()

(* [a], or a copy of it with room for [n] entries.  Steps read the files
   through the decoder, so they all see a grown file. *)
let grown a n zero =
  if n <= Array.length a then a
  else begin
    let g = Array.make (Int.max n (2 * Array.length a)) zero in
    Array.blit a 0 g 0 (Array.length a);
    g
  end

let emit d step =
  d.steps <- grown d.steps (d.n_steps + 1) nop;
  d.steps.(d.n_steps) <- step;
  d.n_steps <- d.n_steps + 1

(* Drop the decoded steps and the grids they hold. *)
let release d =
  Array.fill d.steps 0 d.n_steps nop;
  d.n_steps <- 0;
  d.results <- [||];
  d.geoms <- []

let cells mask = if mask = 0 then 1 else block_width

let new_f d mask =
  let s = d.n_f in
  d.n_f <- s + cells mask;
  d.fl <- grown d.fl d.n_f 0.0;
  s

let new_i d mask =
  let s = d.n_i in
  d.n_i <- s + cells mask;
  d.it <- grown d.it d.n_i 0;
  s

let set_slot d v s = Int_tbl.replace d.slots (Ir.Value.id v) s

(* Cell [s] (and the lanes after it, for a column) of the float file. *)
let in_file s m = { data = [||]; k = s; g = 0; m }

(* The array and the first index a float value's lanes are read from. *)
let[@inline] arr d a = if a.g = 0 then d.fl else a.data
let[@inline] base d a = a.k + Array.unsafe_get d.cur a.g

(* Lane [l] from an array, a first index and a mask; lane [l] of a
   column. *)
let[@inline] fget (f : float array) b m l = Array.unsafe_get f (b + (l land m))
let[@inline] fset (f : float array) r l x = Array.unsafe_set f (r + l) x
let[@inline] iget (i : int array) s m l = Array.unsafe_get i (s + (l land m))
let[@inline] iset (i : int array) r l x = Array.unsafe_set i (r + l) x

(* [Float.max] and [Float.min], bit for bit: ordered operands skip
   their two sign-bit calls, equal and NaN operands take them. *)
let[@inline] fmax (a : float) b =
  if b > a then b else if a > b then a else Float.max a b

let[@inline] fmin (a : float) b =
  if b < a then b else if a < b then a else Float.min a b

(* Stop the block's lanes at [lane], which failed with [e]. *)
let fail d lane e =
  d.live <- lane;
  d.failure <- Some e

(* Emit a step over lanes [0, n).  A step whose result is an invariant
   (mask 0) runs at lane 0 only: every lane would compute the same. *)
let emit_lanes d mask step =
  emit d (if mask = 0 then (fun n -> if n > 0 then step 1) else step)

(* Emit a step over one or two float values: [step d r] gets their
   arrays, first indices and masks.  The lane loops of decode_op capture
   nothing, so they are allocated once, not once per op. *)
let emit_f1 d mask a r step =
  emit_lanes d mask (fun n -> step d r (arr d a) (base d a) a.m n)

let emit_f2 d mask a b r step =
  emit_lanes d mask (fun n ->
      step d r (arr d a) (base d a) a.m (arr d b) (base d b) b.m n)

(* Emit a step that may fail, run lane by lane: the first lane that
   raises ends it and the block's live lanes. *)
let emit_checked d mask lane =
  emit_lanes d mask (fun n ->
      let l = ref 0 in
      try
        while !l < n do
          lane !l;
          incr l
        done
      with e -> fail d !l e)

(* Set the innermost index of [d.pos] to lane [l] of the block. *)
let lane_pos d =
  match d.space with
  | Some (lb, _) when Array.length lb > 0 ->
    let k = Array.length lb - 1 and pos = d.pos in
    let lb_k = lb.(k) in
    fun l -> pos.(k) <- lb_k + d.j0 + l
  | Some _ | None -> nop

(* Preload a loop-invariant value into a fresh cell. *)
let slot_of_rval d = function
  | F x ->
    let s = new_f d 0 in
    d.fl.(s) <- x;
    SF (in_file s 0)
  | I i ->
    let s = new_i d 0 in
    d.it.(s) <- i;
    SI (s, 0)
  | B b ->
    let s = new_i d 0 in
    d.it.(s) <- Bool.to_int b;
    SB (s, 0)
  | G g -> SG g

let slot_of d v =
  let id = Ir.Value.id v in
  match Int_tbl.find d.slots id with
  | s -> s
  | exception Not_found -> (
    match Int_tbl.find d.outer id with
    | rv ->
      let s = slot_of_rval d rv in
      Int_tbl.replace d.slots id s;
      s
    | exception Not_found -> Err.raise_error "interp: unbound value %%v%d" id)

(* Convert int slot [(s, m)] into float cells from [r] on, same mask. *)
let emit_to_float d (s, m) r =
  emit_lanes d m (fun n ->
      let f = d.fl and i = d.it in
      for l = 0 to n - 1 do
        fset f r l (float_of_int (iget i s m l))
      done)

(* The float value [v]; an int operand is converted. *)
let float_slot d v =
  match slot_of d v with
  | SF a -> a
  | SI (s, m) ->
    let r = new_f d m in
    emit_to_float d (s, m) r;
    in_file r m
  | SB _ | SG _ -> Err.raise_error "interp: expected float"

let int_slot d v =
  match slot_of d v with
  | SI (s, m) -> (s, m)
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
    d.cur <- grown d.cur (d.n_geoms + 1) 0;
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

(* A proven access is no step at all: its value is the grid's row, read
   in place by the steps that use it. *)
let decode_access d (op : Ir.op) =
  let g = grid_of d (Ir.Op.operand op 0) in
  let off = Stencil.access_offset op in
  if covers d g off then
    set_slot d (Ir.Op.result op 0)
      (SF
         {
           data = g.Grid.data;
           k = linear_delta g 0 off;
           g = geometry_index d g;
           m = column;
         })
  else begin
    let r = new_f d column in
    set_slot d (Ir.Op.result op 0) (SF (in_file r column));
    let off = Array.of_list off and set_pos = lane_pos d and pos = d.pos in
    let p = Array.make (Array.length off) 0 in
    emit_checked d column (fun l ->
        set_pos l;
        for k = 0 to Array.length p - 1 do
          p.(k) <- pos.(k) + off.(k)
        done;
        Grid.check_index_arr g p;
        fset d.fl r l (Array.unsafe_get g.Grid.data (Grid.unsafe_linear g p)))
  end

let decode_dyn_access d (op : Ir.op) =
  let g = grid_of d (Ir.Op.operand op 0) in
  let idx =
    List.tl (Ir.Op.operands op) |> List.map (int_slot d) |> Array.of_list
  in
  let r = new_f d column in
  set_slot d (Ir.Op.result op 0) (SF (in_file r column));
  let p = Array.make (Array.length idx) 0 in
  emit_checked d column (fun l ->
      for k = 0 to Array.length p - 1 do
        let s, m = idx.(k) in
        p.(k) <- iget d.it s m l
      done;
      Grid.check_index_arr g p;
      fset d.fl r l (Array.unsafe_get g.Grid.data (Grid.unsafe_linear g p)))

(* stencil.return: operand i is the current point of result grid i.
   When every result covers the iteration space, each operand's lanes
   are copied into its result row.  Otherwise each lane writes the
   results in turn, checked, as the point loop did, and fails where an
   operand could not be decoded. *)
let decode_return d (op : Ir.op) =
  let target i v =
    let g = d.results.(i) in
    (g, float_slot d v)
  in
  let rec targets i = function
    | [] -> ([], None)
    | v :: rest -> (
      match target i v with
      | t ->
        let ts, broken = targets (i + 1) rest in
        (t :: ts, broken)
      | exception ((Err.Error _ | Invalid_argument _ | Failure _) as e) ->
        ([], Some e))
  in
  let ts, broken = targets 0 (Ir.Op.operands op) in
  let here = List.init (Array.length d.pos) (fun _ -> 0) in
  if Option.is_none broken && List.for_all (fun (g, _) -> covers d g here) ts
  then
    List.iter
      (fun ((g : Grid.t), a) ->
        let gi = geometry_index d g and data = g.Grid.data in
        emit_f1 d column a gi (fun d gi xa ba ma n ->
            let r = d.cur.(gi) in
            for l = 0 to n - 1 do
              fset data r l (fget xa ba ma l)
            done))
      ts
  else
    let ts = Array.of_list ts and set_pos = lane_pos d and pos = d.pos in
    emit_checked d column (fun l ->
        set_pos l;
        for i = 0 to Array.length ts - 1 do
          let (g : Grid.t), a = ts.(i) in
          Grid.check_index_arr g pos;
          Array.unsafe_set g.Grid.data (Grid.unsafe_linear g pos)
            (fget (arr d a) (base d a) a.m l)
        done;
        Option.iter raise broken)

let def_f d op m =
  let r = new_f d m in
  set_slot d (Ir.Op.result op 0) (SF (in_file r m));
  r

let def_i d op m =
  let r = new_i d m in
  set_slot d (Ir.Op.result op 0) (SI (r, m));
  r

let def_b d op m =
  let r = new_i d m in
  set_slot d (Ir.Op.result op 0) (SB (r, m));
  r

(* Operand [i] of [op] as a float value or an int slot. *)
let fop d op i = float_slot d (Ir.Op.operand op i)
let iop d op i = int_slot d (Ir.Op.operand op i)

(* The semantics of every op the interpreter runs, once: each case turns
   the op into a step over the slot files.  A result is an invariant when
   every operand is one, and a column otherwise.  Each step spells its
   float operation out, so the lane loops stay unboxed. *)
let decode_op d (op : Ir.op) =
  match Ir.Op.name op with
  | "arith.constant" -> (
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float x ->
      let r = def_f d op 0 in
      d.fl.(r) <- x
    | Attr.Int i ->
      let r = def_i d op 0 in
      d.it.(r) <- i
    | _ -> Err.raise_error "interp: bad arith.constant")
  | ( "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf"
    | "arith.maximumf" | "arith.minimumf" | "math.powf" ) as name ->
    let a = fop d op 0 in
    let b = fop d op 1 in
    let m = a.m lor b.m in
    emit_f2 d m a b (def_f d op m)
      (match name with
      | "arith.addf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fget xa ba ma l +. fget xb bb mb l)
          done
      | "arith.subf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fget xa ba ma l -. fget xb bb mb l)
          done
      | "arith.mulf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fget xa ba ma l *. fget xb bb mb l)
          done
      | "arith.divf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fget xa ba ma l /. fget xb bb mb l)
          done
      | "arith.maximumf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fmax (fget xa ba ma l) (fget xb bb mb l))
          done
      | "arith.minimumf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fmin (fget xa ba ma l) (fget xb bb mb l))
          done
      | "math.powf" ->
        fun d r xa ba ma xb bb mb n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (fget xa ba ma l ** fget xb bb mb l)
          done
      | _ -> assert false)
  | ( "arith.negf" | "math.sqrt" | "math.exp" | "math.log" | "math.absf"
    | "math.tanh" ) as name ->
    let a = fop d op 0 in
    emit_f1 d a.m a (def_f d op a.m)
      (match name with
      | "arith.negf" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (-.fget xa ba ma l)
          done
      | "math.sqrt" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (sqrt (fget xa ba ma l))
          done
      | "math.exp" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (exp (fget xa ba ma l))
          done
      | "math.log" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (log (fget xa ba ma l))
          done
      | "math.absf" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (Float.abs (fget xa ba ma l))
          done
      | "math.tanh" ->
        fun d r xa ba ma n ->
          let f = d.fl in
          for l = 0 to n - 1 do
            fset f r l (tanh (fget xa ba ma l))
          done
      | _ -> assert false)
  | ("arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi")
    as name -> (
    let a, ma = iop d op 0 in
    let b, mb = iop d op 1 in
    let m = ma lor mb in
    let r = def_i d op m in
    match name with
    | "arith.addi" ->
      emit_lanes d m (fun n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (iget i a ma l + iget i b mb l)
          done)
    | "arith.subi" ->
      emit_lanes d m (fun n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (iget i a ma l - iget i b mb l)
          done)
    | "arith.muli" ->
      emit_lanes d m (fun n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (iget i a ma l * iget i b mb l)
          done)
    (* a zero divisor raises Division_by_zero at its lane *)
    | "arith.divsi" ->
      emit_checked d m (fun l ->
          let i = d.it in
          iset i r l (iget i a ma l / iget i b mb l))
    | "arith.remsi" ->
      emit_checked d m (fun l ->
          let i = d.it in
          iset i r l (iget i a ma l mod iget i b mb l))
    | _ -> assert false)
  | "arith.cmpf" ->
    let a = fop d op 0 in
    let b = fop d op 1 in
    let m = a.m lor b.m in
    emit_f2 d m a b (def_b d op m)
      (match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
      | "olt" | "ult" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l < fget xb bb mb l))
          done
      | "ole" | "ule" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l <= fget xb bb mb l))
          done
      | "ogt" | "ugt" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l > fget xb bb mb l))
          done
      | "oge" | "uge" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l >= fget xb bb mb l))
          done
      | "oeq" | "ueq" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l = fget xb bb mb l))
          done
      | "one" | "une" ->
        fun d r xa ba ma xb bb mb n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l (Bool.to_int (fget xa ba ma l <> fget xb bb mb l))
          done
      | p -> Err.raise_error "interp: cmpf predicate %s" p)
  | "arith.sitofp" ->
    let a = iop d op 0 in
    emit_to_float d a (def_f d op (snd a))
  | "arith.index_cast" ->
    (* the same integer: alias the slot *)
    let a, m = iop d op 0 in
    set_slot d (Ir.Op.result op 0) (SI (a, m))
  | "arith.select" -> (
    let c, mc =
      match slot_of d (Ir.Op.operand op 0) with
      | SB (s, m) | SI (s, m) -> (s, m)
      | SF _ | SG _ -> Err.raise_error "interp: select condition"
    in
    let x = slot_of d (Ir.Op.operand op 1) in
    let y = slot_of d (Ir.Op.operand op 2) in
    let select_int r m a ma b mb =
      emit_lanes d m (fun n ->
          let i = d.it in
          for l = 0 to n - 1 do
            iset i r l
              (if iget i c mc l <> 0 then iget i a ma l else iget i b mb l)
          done)
    in
    match (x, y) with
    | SF a, SF b ->
      let m = mc lor a.m lor b.m in
      emit_f2 d m a b (def_f d op m) (fun d r xa ba ma xb bb mb n ->
          let f = d.fl and i = d.it in
          for l = 0 to n - 1 do
            fset f r l
              (if iget i c mc l <> 0 then fget xa ba ma l else fget xb bb mb l)
          done)
    | SI (a, ma), SI (b, mb) ->
      let m = mc lor ma lor mb in
      select_int (def_i d op m) m a ma b mb
    | SB (a, ma), SB (b, mb) ->
      let m = mc lor ma lor mb in
      select_int (def_b d op m) m a ma b mb
    | SG g, SG h when g == h -> set_slot d (Ir.Op.result op 0) (SG g)
    | _ -> Err.raise_error "interp: select between values of different kinds")
  | "stencil.index" -> (
    let dim = Attr.int_exn (Ir.Op.get_attr_exn op "dim") in
    match d.space with
    (* the innermost index counts up along the block *)
    | Some (lb, _) when dim = Array.length lb - 1 ->
      let r = def_i d op column and lb_k = lb.(dim) in
      emit_lanes d column (fun n ->
          let i = d.it and j = lb_k + d.j0 in
          for l = 0 to n - 1 do
            iset i r l (j + l)
          done)
    | _ ->
      (* constant along the row, read once per block; a dim outside the
         space fails with the bounds error of pos.(dim) *)
      let pos = d.pos in
      if dim < 0 || dim >= Array.length pos then invalid_arg "index out of bounds";
      let r = def_i d op 0 in
      emit_lanes d 0 (fun _ -> d.it.(r) <- pos.(dim)))
  | "stencil.access" -> decode_access d op
  | "stencil.dyn_access" -> decode_dyn_access d op
  | name when name = Stencil.return_op -> decode_return d op
  | name -> Err.raise_error "interp: unsupported op %s in stencil body" name

(* Decoding never fails by itself: an error becomes a step that fails at
   the block's first lane, so it surfaces at that point of the body and
   only if the op runs at all (an empty iteration space runs nothing). *)
let decode d op =
  try decode_op d op
  with (Err.Error _ | Invalid_argument _ | Failure _) as e ->
    emit d (fun n -> if n > 0 then fail d 0 e)

(* Run the decoded body over lanes [0, n) of a block, then raise the
   failure of its lowest failing lane, if any. *)
let run_block d n =
  d.live <- n;
  let steps = d.steps in
  for s = 0 to d.n_steps - 1 do
    (Array.unsafe_get steps s) d.live
  done;
  if d.live < n then Option.iter raise d.failure

(* Evaluate one op outside any apply (function-level constants, the
   CPU-lowered executor): decode it, run it at one lane, and box its
   results back into [env]. *)
let eval_simple_op env (op : Ir.op) =
  let d = env.dec in
  reset d ();
  decode d op;
  run_block d 1;
  List.iter
    (fun v ->
      match Int_tbl.find_opt d.slots (Ir.Value.id v) with
      | Some (SF a) -> bind env v (F (fget (arr d a) (base d a) a.m 0))
      | Some (SI (s, _)) -> bind env v (I d.it.(s))
      | Some (SB (s, _)) -> bind env v (B (d.it.(s) <> 0))
      | Some (SG g) -> bind env v (G g)
      | None -> ())
    (Ir.Op.results op);
  release d

(* One row: set each geometry's first index, then run the body block by
   block along the innermost dimension. *)
let run_row d geoms (lb : int array) (ub : int array) =
  let rank = Array.length lb and pos = d.pos and cur = d.cur in
  if rank > 0 then pos.(rank - 1) <- lb.(rank - 1);
  let n_geoms = Array.length geoms in
  for g = 0 to n_geoms - 1 do
    let glb, strides = geoms.(g) in
    let base = ref 0 in
    for k = 0 to rank - 1 do
      base := !base + ((pos.(k) - glb.(k)) * strides.(k))
    done;
    cur.(g + 1) <- !base
  done;
  let row_len = if rank = 0 then 1 else ub.(rank - 1) - lb.(rank - 1) in
  d.j0 <- 0;
  while d.j0 < row_len do
    let n = Int.min block_width (row_len - d.j0) in
    run_block d n;
    d.j0 <- d.j0 + n;
    for g = 1 to n_geoms do
      cur.(g) <- cur.(g) + n
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
  let d = env.dec in
  reset d ~space:(space.Grid.lb, space.Grid.ub) ~results ();
  Array.iteri
    (fun i rv -> set_slot d (Ir.Block.arg block i) (slot_of_rval d rv))
    arg_vals;
  Ir.Block.iter_ops block (decode d);
  (* Run the steps over every row, row-major.  Along a row each grid's
     linear index advances by one, so the row's first index per geometry
     is computed once per row and a proven access reads the block's
     lanes from there plus its fixed delta. *)
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
        ( fd.Shmls_frontend.Ast.fd_name,
          Grid.create_hashed ~seed:(seed + i) bounds ))
      k.k_fields
  in
  let smalls =
    List.mapi
      (fun i sd ->
        let axis = sd.Shmls_frontend.Ast.sd_axis in
        let n = List.nth l.l_grid axis and h = List.nth halo axis in
        ( sd.sd_name,
          Grid.create_hashed ~seed:(seed + 100 + i)
            (Ty.make_bounds ~lb:[ -h ] ~ub:[ n + h ]) ))
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
