(* Stage compiler: the functional simulator.

   Executes an extracted design with Kahn-network semantics — stages run
   to completion one at a time in topological order over unbounded
   stream buffers, and compute stages run the region IR the compiler
   generated (the pipelined scf.for with hls.read/hls.write,
   llvm.extractvalue neighbourhood picks, BRAM small-data copies and the
   cloned arithmetic), not a re-derivation of the original stencil.  For
   correct designs the values are exactly those the dataflow hardware
   would produce; cycle behaviour is {!Cycle_sim}'s business.

   A one-time pre-pass per design turns that IR into a specialized
   closure pipeline:

     - every SSA value outside the loops is resolved at compile time to
       a dense slot in an unboxed [float array] (floats), an [int array]
       (ints and i1s) or a base/offset pair (pointers and BRAM memrefs),
       and every value inside a loop to a column of those (see below) —
       no hashtable lookup and no [value] boxing happens at run time;
     - constants are folded into the plan's constant pool at compile
       time and emit no step at all;
     - stream buffers are [float array] ring buffers with O(1)
       push/pop/length.  Every stream carries one token per padded
       point, but storage is recycled by liveness: each load or compute
       output ring and each shift window owns storage only from its
       producer stage to the last stage that reads it or a dup alias of
       it, and then returns it to the run state's free list, keyed by
       length (windows by geometry, so their NaN pad stays valid).  A
       run touches only the storage live at once, not one buffer per
       stream (see "Stream storage").  A neighbourhood token is never
       materialised: a shift stage's output is a window, one NaN-padded
       copy of its input that consumers index by neighbour offset (see
       {!window});
     - every compute loop runs in whole-stream blocks over dense
       columns (see "Batched compute-loop compilation"); a loop body
       outside that subset is refused when the plan is compiled.

   The compiled artefact is split in two:

     - {!t}, the plan, is immutable once [compile] returns: slot
       layout, per-op step closures over slot indices, the constant
       pools, ring descriptors.  One plan is safely shared across any
       number of domains — parallel sweeps share the memoised plan
       instead of recompiling a private one per job.
     - {!Run_state.t} holds every mutable word a run touches: register
       files (seeded from the plan's constant pools), ring buffers and
       the free lists of their storage, column files.  States
       are cheap to allocate, reusable across runs, and cached per
       (domain, plan) so repeated runs on the same worker reuse one
       allocation ({!run}).

   There is one kind of plan.  Its oracle is the reference stencil
   interpreter: the differential suite (test_functional_compiled)
   compares every float of every field, halos included, bit for bit
   against {!Shmls_interp.Interp}, pins the message and {!Loc} of each
   mis-wired-design error, and drives one shared plan concurrently from
   several domains with independent run states. *)

open Shmls_ir
open Shmls_dialects

(* ------------------------------------------------------------------ *)
(* Ring buffers *)

(* Each stream has exactly one producer stage, and stages run to
   completion in topological order, so a ring is fully pushed (while
   [rg_head = 0]) before its consumer pops anything: the data never
   wraps.  That invariant lets the hot paths below index [rg_data]
   directly — pushes land at [rg_head + rg_len], pops read at
   [rg_head] — with no modulo arithmetic anywhere. *)

(* The padded-buffer geometry of a shift window.  A shift over
   [extent] with [halo] copies its scalar input once into a buffer of
   extent + 2*halo in every dimension whose pad is NaN.  Row [r] of the
   extent (its tokens [r * wn_inner ..]) starts at padded index
   [window_row win r], and tokens are consecutive inside a row;
   neighbour [k] of a token (row-major over the halo cube, the lane
   order of the stream's vector type) sits [wn_pdelta.(k)] from it.  An
   out-of-range neighbour lands in the pad and reads NaN. *)
type window = {
  wn_total : int; (* tokens: points of the extent *)
  wn_inner : int; (* innermost extent: tokens per row *)
  wn_outer : int array; (* the outer extents *)
  wn_pstrides : int array; (* padded strides of the outer dimensions *)
  wn_origin : int; (* padded index of token 0 *)
  wn_pdelta : int array; (* per lane: padded-index offset of the
                            neighbour *)
  wn_size : int; (* floats in the padded buffer *)
}

let window_row win row =
  let p = ref win.wn_origin and r = ref row in
  for d = Array.length win.wn_outer - 1 downto 0 do
    let e = Array.unsafe_get win.wn_outer d in
    p := !p + (!r mod e * Array.unsafe_get win.wn_pstrides d);
    r := !r / e
  done;
  !p

type ring = {
  rg_stream : int; (* SSA stream id, for error messages *)
  rg_width : int; (* floats per token (1 = scalar stream) *)
  rg_win : window option;
  mutable rg_data : float array;
      (* [[||]] outside its owner's live range (see "Stream storage"),
         so a stray push never writes into another stream's buffer *)
  mutable rg_head : int; (* index of the first queued float *)
  mutable rg_len : int; (* queued floats; a window counts [width] per
                           token *)
}

let ring_create ~stream ~width ~win =
  {
    rg_stream = stream;
    rg_width = width;
    rg_win = win;
    rg_data = [||];
    rg_head = 0;
    rg_len = 0;
  }

let ring_reset r =
  r.rg_data <- [||];
  r.rg_head <- 0;
  r.rg_len <- 0

let ring_tokens r = r.rg_len / r.rg_width

(* Make room for [extra] more floats, compacting to [rg_head = 0].
   A producer takes storage sized from the design, so this only grows
   a ring on a mis-wired design (a stream with a second producer, or a
   push into a dup output before its dup runs).  Only its shift fills a
   window: a push into one is always an error. *)
let ring_reserve r extra =
  let needed = r.rg_head + r.rg_len + extra in
  if needed > Array.length r.rg_data then begin
    if r.rg_win <> None then
      Err.raise_error "functional sim: stream %d has a second producer"
        r.rg_stream;
    let cap = ref (max 1 (2 * Array.length r.rg_data)) in
    while !cap < r.rg_len + extra do
      cap := 2 * !cap
    done;
    let data = Array.create_float !cap in
    Array.blit r.rg_data r.rg_head data 0 r.rg_len;
    r.rg_data <- data;
    r.rg_head <- 0
  end

(* Append [n] floats from [src.(srcoff ..)] in one blit. *)
let ring_push_blit r src srcoff n =
  ring_reserve r n;
  Array.blit src srcoff r.rg_data (r.rg_head + r.rg_len) n;
  r.rg_len <- r.rg_len + n

let starved loc = Err.raise_error ~loc "functional sim: read from empty stream"

(* An external-memory load is checked against its buffer: a design
   whose address arithmetic leaves the padded grid fails here instead
   of reading outside the array. *)
let load_out_of_range loc i len =
  Err.raise_error ~loc
    "functional sim: llvm.load of element %d of a %d-element buffer" i len

(* Fail like a starved pop unless [n] floats are queued — used by the
   bulk stage loops below, which then index [rg_data] directly. *)
let ring_require r n = if r.rg_len < n then starved Loc.unknown

let ring_drop r n =
  r.rg_head <- r.rg_head + n;
  r.rg_len <- r.rg_len - n

(* ------------------------------------------------------------------ *)
(* Per-run state: every mutable word a run touches lives here *)

type run_state = {
  rs_plan : int; (* [pl_id] of the plan that created this state *)
  mutable rs_args : Functional.value array;
  rs_fregs : float array; (* seeded from the plan's float constant pool *)
  rs_iregs : int array; (* seeded from the plan's int constant pool *)
  rs_pbase : float array array;
  rs_poff : int array;
  rs_rings : ring array; (* plan ring-descriptor order (ascending id) *)
  rs_owned : float array array;
      (* per ring: the storage its owner took for the current run, or
         [[||]] *)
  rs_free : float array list array; (* per storage class: free storage *)
  (* Column files.  A compute loop processes the stream in
     blocks of up to [batch_width] elements: every in-loop SSA value
     becomes a dense column, one lane per element of the current
     block. *)
  rs_fcols : float array array; (* float columns, [batch_width] lanes each *)
  rs_icols : int array array; (* int/i1 columns *)
  rs_pcols_base : float array array; (* pointer columns: shared base ... *)
  rs_pcols_off : int array array; (* ... plus a per-lane offset column *)
}

module Run_state = struct
  type t = run_state
end

(* ------------------------------------------------------------------ *)
(* Slot allocation *)

type kind =
  | KF of int (* float slot *)
  | KI of int (* int / i1 slot *)
  | KP of int (* pointer or memref slot: base array + offset *)
  | KV of int
      (* a neighbourhood token in a loop, keyed by its SSA id: never
         materialised, its lanes are read in place from the window *)
  | KS of int * int * int
      (* an extracted neighbourhood lane left in its window — (ring,
         padded-index column, lane offset).  Lane
         [j] of the block is [rg_data.(pidx.(j) + offset)]; consumers
         read it in place instead of gathering it into a dense column
         first. *)

type alloc = {
  slots : kind Int_tbl.t; (* SSA value id -> slot *)
  mutable nf : int;
  mutable ni : int;
  mutable np : int;
}

let kind_of_ty (ty : Ty.t) =
  match ty with
  | Ty.F16 | Ty.F32 | Ty.F64 -> `F
  | Ty.I1 | Ty.I8 | Ty.I16 | Ty.I32 | Ty.I64 | Ty.Index -> `I
  | Ty.Ptr _ | Ty.Memref _ -> `P
  | Ty.Struct ts -> `V (List.length ts)
  | Ty.Array (n, _) -> `V n
  | Ty.Stream _ -> `S
  | _ -> `Skip

let alloc_value a v =
  let id = Ir.Value.id v in
  if not (Int_tbl.mem a.slots id) then
    match kind_of_ty (Ir.Value.ty v) with
    | `F ->
      Int_tbl.add a.slots id (KF a.nf);
      a.nf <- a.nf + 1
    | `I ->
      Int_tbl.add a.slots id (KI a.ni);
      a.ni <- a.ni + 1
    | `P ->
      Int_tbl.add a.slots id (KP a.np);
      a.np <- a.np + 1
    | `V _ | `S | `Skip -> ()

(* Registers hold the values a stage computes outside its loops and the
   constants folded anywhere in it; every other value inside a loop
   lives in a column ([cctx.cols]). *)
let rec alloc_op a ~in_loop (op : Ir.op) =
  if (not in_loop) || Ir.Op.name op = Arith.constant_op then
    List.iter (alloc_value a) (Ir.Op.results op);
  let in_loop = in_loop || Ir.Op.name op = Scf.for_op in
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          if not in_loop then List.iter (alloc_value a) (Ir.Block.args b);
          List.iter (alloc_op a ~in_loop) (Ir.Block.ops b))
        (Ir.Region.blocks r))
    (Ir.Op.regions op)

(* ------------------------------------------------------------------ *)
(* Plans *)

type ring_desc = { rd_stream : int; rd_width : int; rd_win : window option }

(* A storage class: rings of one length, or windows of one geometry
   (allocated with their NaN pad, which no run ever overwrites). *)
type store_class = { sc_len : int; sc_nan : bool }

type stats = {
  cs_fregs : int;
  cs_iregs : int;
  cs_pregs : int;
  cs_steps : int; (* compiled step closures across all stages *)
  cs_folded : int; (* constants folded into the pools at compile time *)
  cs_batched : int; (* compute loops compiled to whole-stream batches *)
  cs_peak_floats : int; (* stream storage live at once *)
}

(* The immutable plan: nothing in here is written after [compile]
   returns, so one plan is freely shared across domains.  All the step
   closures take the run state as an argument instead of capturing it. *)
type t = {
  pl_id : int; (* plan identity, keys the per-domain state cache *)
  pl_design : Design.t;
  pl_ring_descs : ring_desc array; (* ascending stream id, drain order *)
  pl_classes : store_class array;
  pl_class : int array; (* per ring: its storage class if it owns
                           storage, else -1 *)
  pl_const_f : float array; (* constant pool: initial float registers *)
  pl_const_i : int array; (* constant pool: initial int registers *)
  pl_np : int;
  pl_n_fcols : int; (* column-file sizes *)
  pl_n_icols : int;
  pl_n_pcols : int;
  pl_bind : Functional.value array -> run_state -> unit;
  pl_steps : (run_state -> unit) array; (* stages, in topological order *)
  pl_stats : stats;
}

let compile_counter = Atomic.make 0
let compile_count () = Atomic.get compile_counter
let reset_compile_count () = Atomic.set compile_counter 0
let state_counter = Atomic.make 0
let state_count () = Atomic.get state_counter
let reset_state_count () = Atomic.set state_counter 0
let stats t = t.pl_stats

(* Lanes per block of a batched compute loop. *)
let batch_width = 64

let create_state (t : t) : run_state =
  Atomic.incr state_counter;
  {
    rs_plan = t.pl_id;
    rs_args = [||];
    rs_fregs = Array.copy t.pl_const_f;
    rs_iregs = Array.copy t.pl_const_i;
    rs_pbase = Array.make (max 1 t.pl_np) [||];
    rs_poff = Array.make (max 1 t.pl_np) 0;
    rs_rings =
      Array.map
        (fun rd ->
          ring_create ~stream:rd.rd_stream ~width:rd.rd_width ~win:rd.rd_win)
        t.pl_ring_descs;
    rs_owned = Array.make (Array.length t.pl_ring_descs) [||];
    rs_free = Array.make (Array.length t.pl_classes) [];
    rs_fcols = Array.init t.pl_n_fcols (fun _ -> Array.make batch_width 0.0);
    rs_icols = Array.init t.pl_n_icols (fun _ -> Array.make batch_width 0);
    rs_pcols_base = Array.make t.pl_n_pcols [||];
    rs_pcols_off = Array.init t.pl_n_pcols (fun _ -> Array.make batch_width 0);
  }

(* ------------------------------------------------------------------ *)
(* Compute-stage compilation *)

type cctx = {
  al : alloc;
  const_f : float array; (* compile-time constant folding writes here *)
  const_i : int array;
  ring_index : int Int_tbl.t; (* SSA stream id -> rs_rings index *)
  ring_win : window option array; (* per rs_rings index *)
  mutable folded : int;
  (* batched-loop compilation state *)
  cols : kind Int_tbl.t; (* in-loop SSA id -> column slot *)
  vec_ring : (int * int * window) option Int_tbl.t;
      (* KV token -> (ring idx, padded-index column, window), or [None]
         for a read of a stream no shift produces *)
  mutable nfc : int; (* column-file sizes *)
  mutable nic : int;
  mutable npc : int;
  mutable batched_loops : int;
  (* per batched loop: uniform columns and the steps that fill them *)
  mutable inv : int list; (* invariant values bound to uniform columns *)
  uni_f : unit Int_tbl.t; (* uniform float / int columns *)
  uni_i : unit Int_tbl.t;
  mutable entry : (run_state -> int -> unit) list; (* reversed *)
  (* rings the compute stage being compiled reads and writes *)
  mutable st_reads : int list;
  mutable st_writes : int list;
}

let slot_exn c v =
  match Int_tbl.find_opt c.al.slots (Ir.Value.id v) with
  | Some k -> k
  | None -> Err.raise_error "functional sim: unbound value"

let fslot c v =
  match slot_exn c v with
  | KF i -> i
  | _ -> Err.raise_error "functional sim: expected float"

let islot c v =
  match slot_exn c v with
  | KI i -> i
  | _ -> Err.raise_error "functional sim: expected int"

(* Fold a constant into the plan's constant pools: SSA values never
   change, and every fresh run state copies the pools into its register
   files, so the fold survives across runs. *)
let fold_constant c op =
  c.folded <- c.folded + 1;
  match Ir.Op.get_attr_exn op "value" with
  | Attr.Float f -> c.const_f.(fslot c (Ir.Op.result op 0)) <- f
  | Attr.Int i -> c.const_i.(islot c (Ir.Op.result op 0)) <- i
  | _ -> Err.raise_error ~loc:(Ir.Op.loc op) "functional sim: bad constant"

let ring_idx c v =
  let id = Ir.Value.id v in
  match Int_tbl.find_opt c.ring_index id with
  | Some i -> i
  | None -> Err.raise_error "functional sim: read of unknown stream %d" id

(* ------------------------------------------------------------------ *)
(* Batched compute-loop compilation.

   Every [scf.for] of a compute stage runs in blocks, and its body ops
   must lie in the independent-per-element subset below: no nested
   loops, at most one read and one write per stream, and a BRAM buffer
   stored by at most one op and then not loaded in the same loop — the
   op forms whose per-element interleaving would be observable through
   the rings and buffers.  A body op outside the subset raises when the
   plan is compiled, at its [Loc].  Each op becomes one closure looping
   the block's lanes over dense columns, loop-invariant operands
   (including folded constants) are read once per block, and stream
   reads/writes move whole blocks through the rings with blits.
   Neighbourhood (vector) reads never materialise: a window read fills
   one int column with the block's padded indices, and an
   [extractvalue] lane reads the window at that column plus the lane's
   offset.

   Every lane's dataflow is the float expression an element-at-a-time
   loop would evaluate, op-at-a-time instead, and a store writes its
   lanes in element order into a buffer nothing else in the loop
   touches, so no partial-block state is observable.  Before a block
   touches anything, each read counts the tokens its ring holds; a
   starved block runs only the lanes every read can feed and then
   raises at the [Loc] of the read that starves first (see
   [compile_for]). *)

exception Not_batchable

(* The padded indices of window tokens [t0 .. t0 + n - 1] into
   [px.(0 .. n - 1)]: consecutive inside a row.  The first row's base is
   one [window_row]; each later row steps it by the last outer
   dimension's padded stride, and only a carry out of that dimension
   (once per plane) computes a base afresh. *)
let window_pidx win t0 (px : int array) n =
  let inner = win.wn_inner and nd = Array.length win.wn_outer in
  let e = if nd = 0 then 1 else Array.unsafe_get win.wn_outer (nd - 1) in
  let s = if nd = 0 then 0 else Array.unsafe_get win.wn_pstrides (nd - 1) in
  let row = ref (t0 / inner) and col = ref (t0 mod inner) and j = ref 0 in
  let base = ref (window_row win !row) and digit = ref (!row mod e) in
  while !j < n do
    let b = !base + !col - !j in
    let m = min (n - !j) (inner - !col) in
    for q = !j to !j + m - 1 do
      Array.unsafe_set px q (b + q)
    done;
    j := !j + m;
    col := 0;
    incr row;
    incr digit;
    if !j < n then
      if !digit < e then base := !base + s
      else begin
        digit := 0;
        base := window_row win !row
      end
  done

(* A float operand of the lane loops: a column, or an extracted
   neighbourhood lane read in place from its window (ring, padded-index
   column, lane offset), which skips the dense column. *)
type fsrc = FCol of int | FWin of int * int * int
type psrc = PCol of int | PInv of int

let new_fcol c =
  let i = c.nfc in
  c.nfc <- i + 1;
  i

let new_icol c =
  let i = c.nic in
  c.nic <- i + 1;
  i

let new_pcol c =
  let i = c.npc in
  c.npc <- i + 1;
  i

let bind_fcol c v =
  let i = new_fcol c in
  Int_tbl.replace c.cols (Ir.Value.id v) (KF i);
  i

let bind_icol c v =
  let i = new_icol c in
  Int_tbl.replace c.cols (Ir.Value.id v) (KI i);
  i

let bind_pcol c v =
  let i = new_pcol c in
  Int_tbl.replace c.cols (Ir.Value.id v) (KP i);
  i

(* Lane [j] of a column; lane [j] of a window lane, at its padded-index
   column plus the lane's offset. *)
let[@inline] cget (a : float array) j = Array.unsafe_get a j

let[@inline] wget (w : float array) (x : int array) o j =
  Array.unsafe_get w (Array.unsafe_get x j + o)

let[@inline] fset (d : float array) j (v : float) = Array.unsafe_set d j v
let[@inline] iget (a : int array) j = Array.unsafe_get a j
let[@inline] iset (d : int array) j (v : int) = Array.unsafe_set d j v

let[@inline] fcol rs i = Array.unsafe_get rs.rs_fcols i
let[@inline] icol rs i = Array.unsafe_get rs.rs_icols i
let[@inline] wdata rs ri = (Array.unsafe_get rs.rs_rings ri).rg_data

(* Columns whose lanes all hold one value: a loop-invariant operand
   filled once per loop run, or an op over such columns, which runs
   once per loop run too.  Column numbers are never reused, so the
   sets need no reset between loops. *)
let uniform c = function
  | KF i -> Int_tbl.mem c.uni_f i
  | KI i -> Int_tbl.mem c.uni_i i
  | _ -> false

let set_uniform c = function
  | KF i -> Int_tbl.replace c.uni_f i ()
  | KI i -> Int_tbl.replace c.uni_i i ()
  | _ -> invalid_arg "set_uniform"

(* Bind loop-invariant register [v] to a new uniform column [kind d],
   [fill]ed once per loop run over every lane.  The binding lasts for
   this loop only (see [compile_for_batched]). *)
let inv_col c v new_col kind fill =
  let d = new_col c in
  Int_tbl.replace c.cols (Ir.Value.id v) (kind d);
  c.inv <- Ir.Value.id v :: c.inv;
  set_uniform c (kind d);
  c.entry <- fill d :: c.entry;
  d

let bicol c v =
  match Int_tbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KI i) -> i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KI r ->
      inv_col c v new_icol
        (fun d -> KI d)
        (fun d rs n ->
          Array.fill (icol rs d) 0 n (Array.unsafe_get rs.rs_iregs r))
    | _ -> raise Not_batchable)

(* A float operand as a column: a window lane is gathered and an int
   column converted, once per block (a window lane is rebound, so later
   consumers share it); a loop-invariant register is bound to a uniform
   column, and an int one converted as [getf] does. *)
let rec bfcol c preps v =
  (* a conversion of a uniform column is uniform too *)
  let converted d step =
    if uniform c (KF d) then c.entry <- step :: c.entry
    else preps := step :: !preps;
    d
  in
  let id = Ir.Value.id v in
  match Int_tbl.find_opt c.cols id with
  | Some (KF i) -> i
  | Some (KS (ri, pc, off)) ->
    let d = new_fcol c in
    Int_tbl.replace c.cols id (KF d);
    converted d (fun rs n ->
        let buf = wdata rs ri and px = icol rs pc and fd = fcol rs d in
        for j = 0 to n - 1 do
          fset fd j (wget buf px off j)
        done)
  | Some (KI i) ->
    let d = new_fcol c in
    if uniform c (KI i) then set_uniform c (KF d);
    converted d (fun rs n ->
        let src = icol rs i and dst = fcol rs d in
        for j = 0 to n - 1 do
          fset dst j (float_of_int (iget src j))
        done)
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KF r ->
      inv_col c v new_fcol
        (fun d -> KF d)
        (fun d rs n ->
          Array.fill (fcol rs d) 0 n (Array.unsafe_get rs.rs_fregs r))
    | KI _ ->
      ignore (bicol c v);
      bfcol c preps v
    | _ -> raise Not_batchable)

let bfsrc c preps v =
  match Int_tbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KS (ri, pc, off)) -> FWin (ri, pc, off)
  | _ -> FCol (bfcol c preps v)

let bpsrc c v =
  match Int_tbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KP i) -> PCol i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with KP i -> PInv i | _ -> raise Not_batchable)

(* Lane loops, one per opcode and operand form, chosen when the plan is
   compiled.  Without flambda nothing specialises an opcode match inside
   a loop: measured standalone on a 2-vCPU VM, a 64-lane loop that
   matched on its opcode per lane cost 2.8-3.4 ns per lane (3.7-5.5 for
   min/max), a specialised one 0.8-1.6 ns (2.0-2.1).  Each loop is a
   closed function, so choosing one allocates nothing; a step calls it
   once per block. *)
type f2op = F2Add | F2Sub | F2Mul | F2Div | F2Max | F2Min | F2Pow
type f1op = F1Neg | F1Sqrt | F1Exp | F1Log | F1Abs | F1Tanh
type i2op = I2Add | I2Sub | I2Mul | I2Div | I2Rem
type icmp = CLt | CLe | CGt | CGe | CEq | CNe

(* [Float.max] and [Float.min], bit for bit: ordered operands skip
   their two sign-bit calls, equal and NaN operands take them. *)
let[@inline] fmax (a : float) b =
  if b > a then b else if a > b then a else Float.max a b

let[@inline] fmin (a : float) b =
  if b < a then b else if a < b then a else Float.min a b

(* column, column *)
let f2_cc = function
  | F2Add ->
    fun a b d n -> for j = 0 to n - 1 do fset d j (cget a j +. cget b j) done
  | F2Sub ->
    fun a b d n -> for j = 0 to n - 1 do fset d j (cget a j -. cget b j) done
  | F2Mul ->
    fun a b d n -> for j = 0 to n - 1 do fset d j (cget a j *. cget b j) done
  | F2Div ->
    fun a b d n -> for j = 0 to n - 1 do fset d j (cget a j /. cget b j) done
  | F2Max ->
    fun a b d n ->
      for j = 0 to n - 1 do fset d j (fmax (cget a j) (cget b j)) done
  | F2Min ->
    fun a b d n ->
      for j = 0 to n - 1 do fset d j (fmin (cget a j) (cget b j)) done
  | F2Pow ->
    fun a b d n -> for j = 0 to n - 1 do fset d j (cget a j ** cget b j) done

(* column, window lane *)
let f2_cw = function
  | F2Add ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (cget a j +. wget w x o j) done
  | F2Sub ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (cget a j -. wget w x o j) done
  | F2Mul ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (cget a j *. wget w x o j) done
  | F2Div ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (cget a j /. wget w x o j) done
  | F2Max ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (fmax (cget a j) (wget w x o j)) done
  | F2Min ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (fmin (cget a j) (wget w x o j)) done
  | F2Pow ->
    fun a w x o d n ->
      for j = 0 to n - 1 do fset d j (cget a j ** wget w x o j) done

(* window lane, column *)
let f2_wc = function
  | F2Add ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (wget w x o j +. cget b j) done
  | F2Sub ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (wget w x o j -. cget b j) done
  | F2Mul ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (wget w x o j *. cget b j) done
  | F2Div ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (wget w x o j /. cget b j) done
  | F2Max ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (fmax (wget w x o j) (cget b j)) done
  | F2Min ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (fmin (wget w x o j) (cget b j)) done
  | F2Pow ->
    fun w x o b d n ->
      for j = 0 to n - 1 do fset d j (wget w x o j ** cget b j) done

(* window lane, window lane *)
let f2_ww = function
  | F2Add ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (wget v y p j +. wget w x o j) done
  | F2Sub ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (wget v y p j -. wget w x o j) done
  | F2Mul ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (wget v y p j *. wget w x o j) done
  | F2Div ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (wget v y p j /. wget w x o j) done
  | F2Max ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (fmax (wget v y p j) (wget w x o j)) done
  | F2Min ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (fmin (wget v y p j) (wget w x o j)) done
  | F2Pow ->
    fun v y p w x o d n ->
      for j = 0 to n - 1 do fset d j (wget v y p j ** wget w x o j) done

let f1_c = function
  | F1Neg -> fun a d n -> for j = 0 to n - 1 do fset d j (-.cget a j) done
  | F1Sqrt -> fun a d n -> for j = 0 to n - 1 do fset d j (sqrt (cget a j)) done
  | F1Exp -> fun a d n -> for j = 0 to n - 1 do fset d j (exp (cget a j)) done
  | F1Log -> fun a d n -> for j = 0 to n - 1 do fset d j (log (cget a j)) done
  | F1Abs ->
    fun a d n -> for j = 0 to n - 1 do fset d j (Float.abs (cget a j)) done
  | F1Tanh -> fun a d n -> for j = 0 to n - 1 do fset d j (tanh (cget a j)) done

let f1_w = function
  | F1Neg ->
    fun w x o d n -> for j = 0 to n - 1 do fset d j (-.wget w x o j) done
  | F1Sqrt ->
    fun w x o d n -> for j = 0 to n - 1 do fset d j (sqrt (wget w x o j)) done
  | F1Exp ->
    fun w x o d n -> for j = 0 to n - 1 do fset d j (exp (wget w x o j)) done
  | F1Log ->
    fun w x o d n -> for j = 0 to n - 1 do fset d j (log (wget w x o j)) done
  | F1Abs ->
    fun w x o d n ->
      for j = 0 to n - 1 do fset d j (Float.abs (wget w x o j)) done
  | F1Tanh ->
    fun w x o d n -> for j = 0 to n - 1 do fset d j (tanh (wget w x o j)) done

let i2_cc = function
  | I2Add -> fun a b d n -> for j = 0 to n - 1 do iset d j (iget a j + iget b j) done
  | I2Sub -> fun a b d n -> for j = 0 to n - 1 do iset d j (iget a j - iget b j) done
  | I2Mul -> fun a b d n -> for j = 0 to n - 1 do iset d j (iget a j * iget b j) done
  | I2Div -> fun a b d n -> for j = 0 to n - 1 do iset d j (iget a j / iget b j) done
  | I2Rem ->
    fun a b d n -> for j = 0 to n - 1 do iset d j (iget a j mod iget b j) done

(* [a / b] or [a mod b] by a uniform divisor [b].  Columns here are
   usually consecutive (derived from the induction variable), so the
   division strength-reduces to a carry counter; any lane that breaks
   the progression (or a non-positive divisor) falls back to real
   division, keeping the values bit-identical. *)
let i2_div_uniform ~quot a b d n =
  let b = iget b 0 in
  if b > 0 && n > 0 && iget a 0 >= 0 then begin
    let v0 = iget a 0 in
    let q = ref (v0 / b) and r = ref (v0 mod b) and prev = ref v0 in
    iset d 0 (if quot then !q else !r);
    for j = 1 to n - 1 do
      let v = iget a j in
      if v = !prev + 1 then begin
        incr r;
        if !r = b then begin
          r := 0;
          incr q
        end
      end
      else begin
        q := v / b;
        r := v mod b
      end;
      prev := v;
      iset d j (if quot then !q else !r)
    done
  end
  else if quot then for j = 0 to n - 1 do iset d j (iget a j / b) done
  else for j = 0 to n - 1 do iset d j (iget a j mod b) done

let[@inline] bit b = if b then 1 else 0

let icmp_cc = function
  | CLt -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j < iget b j)) done
  | CLe -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j <= iget b j)) done
  | CGt -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j > iget b j)) done
  | CGe -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j >= iget b j)) done
  | CEq -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j = iget b j)) done
  | CNe -> fun a b d n -> for j = 0 to n - 1 do iset d j (bit (iget a j <> iget b j)) done

(* The step of a binary float op: its lane loop over the operands'
   arrays, fetched from the run state once per block. *)
let f2_step k a b d =
  match (a, b) with
  | FCol a, FCol b ->
    let f = f2_cc k in
    fun rs n -> f (fcol rs a) (fcol rs b) (fcol rs d) n
  | FCol a, FWin (rb, xb, ob) ->
    let f = f2_cw k in
    fun rs n -> f (fcol rs a) (wdata rs rb) (icol rs xb) ob (fcol rs d) n
  | FWin (ra, xa, oa), FCol b ->
    let f = f2_wc k in
    fun rs n -> f (wdata rs ra) (icol rs xa) oa (fcol rs b) (fcol rs d) n
  | FWin (ra, xa, oa), FWin (rb, xb, ob) ->
    let f = f2_ww k in
    fun rs n ->
      f (wdata rs ra) (icol rs xa) oa (wdata rs rb) (icol rs xb) ob
        (fcol rs d) n

let f1_step k a d =
  match a with
  | FCol a ->
    let f = f1_c k in
    fun rs n -> f (fcol rs a) (fcol rs d) n
  | FWin (ra, xa, oa) ->
    let f = f1_w k in
    fun rs n -> f (wdata rs ra) (icol rs xa) oa (fcol rs d) n

(* A read of a compute loop: its ring, floats per token (0 for a vector
   read of a stream no shift produces, which holds no token it can
   take) and its location, where a starved block raises. *)
type bread = { br_ring : int; br_width : int; br_loc : Loc.t }

(* What one loop body reads, writes, and loads and stores in BRAM
   (pointer slots). *)
type loop = {
  mutable reads : bread list; (* reversed body order *)
  mutable writes : int list;
  mutable loaded : int list;
  mutable stored : int list;
}

(* Compile one loop body op into an optional per-block step
   [fun rs n -> ...] over the first [n] lanes.  An op that cannot raise,
   over uniform columns only, goes to the loop's entry steps instead and
   its result is uniform.  Raises [Not_batchable] on anything outside
   the subset; [compile_for] turns that into an error at the op. *)
let compile_bop c lp (op : Ir.op) :
    (run_state -> int -> unit) option =
  let preps = ref [] in
  let finish body =
    match !preps with
    | [] -> Some body
    | ps ->
      let ps = Array.of_list (List.rev ps) in
      let np = Array.length ps in
      Some
        (fun rs n ->
          for k = 0 to np - 1 do
            (Array.unsafe_get ps k) rs n
          done;
          body rs n)
  in
  (* the step computing column [d] from operand columns [ks] *)
  let lanes ks d step =
    if List.for_all (uniform c) ks then begin
      set_uniform c d;
      c.entry <- step :: c.entry;
      None
    end
    else finish step
  in
  let fk = function FCol a -> KF a | FWin (ri, pc, off) -> KS (ri, pc, off) in
  let bin k =
    let a = bfsrc c preps (Ir.Op.operand op 0) in
    let b = bfsrc c preps (Ir.Op.operand op 1) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    lanes [ fk a; fk b ] (KF d) (f2_step k a b d)
  in
  let un k =
    let a = bfsrc c preps (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    lanes [ fk a ] (KF d) (f1_step k a d)
  in
  let bini k =
    let a = bicol c (Ir.Op.operand op 0) in
    let b = bicol c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    let f = i2_cc k in
    let step rs n = f (icol rs a) (icol rs b) (icol rs d) n in
    match k with
    | (I2Div | I2Rem) when uniform c (KI b) ->
      (* a division may raise, so it is never hoisted *)
      let quot = k = I2Div in
      finish (fun rs n ->
          i2_div_uniform ~quot (icol rs a) (icol rs b) (icol rs d) n)
    | I2Div | I2Rem -> finish step
    | _ -> lanes [ KI a; KI b ] (KI d) step
  in
  let cmpi k =
    let a = bicol c (Ir.Op.operand op 0) in
    let b = bicol c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    let f = icmp_cc k in
    lanes [ KI a; KI b ] (KI d) (fun rs n ->
        f (icol rs a) (icol rs b) (icol rs d) n)
  in
  match Ir.Op.name op with
  | "arith.constant" ->
    (* the value stays out of [c.cols], so operand resolution sees it
       as a loop-invariant register *)
    fold_constant c op;
    None
  | "arith.addf" -> bin F2Add
  | "arith.subf" -> bin F2Sub
  | "arith.mulf" -> bin F2Mul
  | "arith.divf" -> bin F2Div
  | "arith.maximumf" -> bin F2Max
  | "arith.minimumf" -> bin F2Min
  | "arith.negf" -> un F1Neg
  | "arith.addi" -> bini I2Add
  | "arith.subi" -> bini I2Sub
  | "arith.muli" -> bini I2Mul
  | "arith.divsi" -> bini I2Div
  | "arith.remsi" -> bini I2Rem
  | "math.sqrt" -> un F1Sqrt
  | "math.exp" -> un F1Exp
  | "math.log" -> un F1Log
  | "math.absf" -> un F1Abs
  | "math.tanh" -> un F1Tanh
  | "math.powf" -> bin F2Pow
  | "arith.cmpi" -> (
    match Attr.str_exn (Ir.Op.get_attr_exn op "predicate") with
    | "slt" -> cmpi CLt
    | "sle" -> cmpi CLe
    | "sgt" -> cmpi CGt
    | "sge" -> cmpi CGe
    | "eq" -> cmpi CEq
    | "ne" -> cmpi CNe
    | _ -> raise Not_batchable)
  | "arith.select" -> (
    (* a uniform condition picks a side once per block *)
    let cnd = bicol c (Ir.Op.operand op 0) in
    let pick rs = Array.unsafe_get (icol rs cnd) 0 <> 0 in
    match kind_of_ty (Ir.Value.ty (Ir.Op.result op 0)) with
    | `F ->
      let a = bfcol c preps (Ir.Op.operand op 1) in
      let b = bfcol c preps (Ir.Op.operand op 2) in
      let d = bind_fcol c (Ir.Op.result op 0) in
      lanes [ KI cnd; KF a; KF b ] (KF d)
        (if uniform c (KI cnd) then fun rs n ->
           Array.blit (fcol rs (if pick rs then a else b)) 0 (fcol rs d) 0 n
         else fun rs n ->
           let ic = icol rs cnd and fa = fcol rs a and fb = fcol rs b in
           let fd = fcol rs d in
           for j = 0 to n - 1 do
             fset fd j (if iget ic j <> 0 then cget fa j else cget fb j)
           done)
    | `I ->
      let a = bicol c (Ir.Op.operand op 1) in
      let b = bicol c (Ir.Op.operand op 2) in
      let d = bind_icol c (Ir.Op.result op 0) in
      lanes [ KI cnd; KI a; KI b ] (KI d)
        (if uniform c (KI cnd) then fun rs n ->
           Array.blit (icol rs (if pick rs then a else b)) 0 (icol rs d) 0 n
         else fun rs n ->
           let ic = icol rs cnd and ia = icol rs a and ib = icol rs b in
           let id = icol rs d in
           for j = 0 to n - 1 do
             iset id j (if iget ic j <> 0 then iget ia j else iget ib j)
           done)
    | _ -> raise Not_batchable)
  | "hls.pipeline" | "hls.unroll" | "hls.array_partition" -> None
  | "scf.yield" -> None
  | "hls.read" -> (
    let ri = ring_idx c (Ir.Op.operand op 0) in
    if List.exists (fun rd -> rd.br_ring = ri) lp.reads then
      raise Not_batchable;
    c.st_reads <- ri :: c.st_reads;
    let read width =
      let rd = { br_ring = ri; br_width = width; br_loc = Ir.Op.loc op } in
      lp.reads <- rd :: lp.reads
    in
    let res = Ir.Op.result op 0 in
    match kind_of_ty (Ir.Value.ty res) with
    | `F ->
      read 1;
      let d = bind_fcol c res in
      finish (fun rs n ->
          (* the block driver checked availability up front *)
          let r = Array.unsafe_get rs.rs_rings ri in
          Array.blit r.rg_data r.rg_head (fcol rs d) 0 n;
          r.rg_head <- r.rg_head + n;
          r.rg_len <- r.rg_len - n)
    | `V w -> (
      let s = Ir.Value.id res in
      Int_tbl.replace c.cols s (KV s);
      match c.ring_win.(ri) with
      | None ->
        (* a stream no shift produces (a mis-wired design) holds no
           token a vector read can take: the block driver raises before
           any lane runs *)
        read 0;
        Int_tbl.replace c.vec_ring s None;
        None
      | Some win when Array.length win.wn_pdelta = w ->
        read w;
        let pc = new_icol c in
        Int_tbl.replace c.vec_ring s (Some (ri, pc, win));
        (* no materialisation: record the block's padded indices and
           let extracted lanes read the window at an offset from them *)
        finish (fun rs n ->
            let r = Array.unsafe_get rs.rs_rings ri in
            window_pidx win (r.rg_head / w) (icol rs pc) n;
            r.rg_head <- r.rg_head + (n * w);
            r.rg_len <- r.rg_len - (n * w))
      | _ -> raise Not_batchable)
    | _ -> raise Not_batchable)
  | "llvm.extractvalue" -> (
    match
      ( Int_tbl.find_opt c.cols (Ir.Value.id (Ir.Op.operand op 0)),
        Ir.Op.get_attr_exn op "indices" )
    with
    | Some (KV s), Attr.Ints [ i ] -> (
      (* no step at all: the lane stays in the window and consumers read
         it in place (the lane loops directly, anything else through a
         one-time gather in [bfcol]) *)
      match Int_tbl.find_opt c.vec_ring s with
      | Some (Some (ri, pc, win)) when i >= 0 && i < Array.length win.wn_pdelta
        ->
        Int_tbl.replace c.cols
          (Ir.Value.id (Ir.Op.result op 0))
          (KS (ri, pc, win.wn_pdelta.(i)));
        None
      | Some None ->
        (* a lane of a windowless read: no lane of its loop ever runs *)
        ignore (bind_fcol c (Ir.Op.result op 0));
        None
      | _ -> raise Not_batchable)
    | _ -> raise Not_batchable)
  | "hls.write" ->
    let ri = ring_idx c (Ir.Op.operand op 1) in
    if List.mem ri lp.writes then raise Not_batchable;
    lp.writes <- ri :: lp.writes;
    c.st_writes <- ri :: c.st_writes;
    let s = bfcol c preps (Ir.Op.operand op 0) in
    finish (fun rs n ->
        ring_push_blit (Array.unsafe_get rs.rs_rings ri) (fcol rs s) 0 n)
  | "llvm.getelementptr" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_pcol c (Ir.Op.result op 0) in
    let base rs =
      Array.unsafe_set rs.rs_pcols_base d
        (match s with
        | PInv s -> Array.unsafe_get rs.rs_pbase s
        | PCol s -> Array.unsafe_get rs.rs_pcols_base s)
    in
    match
      (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
    with
    | [], 2 ->
      let k = bicol c (Ir.Op.operand op 1) in
      finish
        (match s with
        | PInv s ->
          fun rs n ->
            base rs;
            let o = Array.unsafe_get rs.rs_poff s in
            let ko = icol rs k and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              iset od j (o + iget ko j)
            done
        | PCol s ->
          fun rs n ->
            base rs;
            let os = Array.unsafe_get rs.rs_pcols_off s
            and ko = icol rs k
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              iset od j (iget os j + iget ko j)
            done)
    | idx, 1 ->
      let delta = List.fold_left ( + ) 0 idx in
      finish
        (match s with
        | PInv s ->
          fun rs n ->
            base rs;
            Array.fill
              (Array.unsafe_get rs.rs_pcols_off d)
              0 n
              (Array.unsafe_get rs.rs_poff s + delta)
        | PCol s ->
          fun rs n ->
            base rs;
            let os = Array.unsafe_get rs.rs_pcols_off s
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              iset od j (iget os j + delta)
            done)
    | _ -> raise Not_batchable)
  | "llvm.load" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    let loc = Ir.Op.loc op in
    finish
      (match s with
      | PCol s ->
        fun rs n ->
          let base = Array.unsafe_get rs.rs_pcols_base s
          and off = Array.unsafe_get rs.rs_pcols_off s
          and fd = fcol rs d in
          let len = Array.length base in
          for j = 0 to n - 1 do
            let i = iget off j in
            if i < 0 || i >= len then load_out_of_range loc i len;
            fset fd j (Array.unsafe_get base i)
          done
      | PInv s ->
        fun rs n ->
          let base = Array.unsafe_get rs.rs_pbase s
          and i = Array.unsafe_get rs.rs_poff s in
          if i < 0 || i >= Array.length base then
            load_out_of_range loc i (Array.length base);
          Array.fill (fcol rs d) 0 n (Array.unsafe_get base i)))
  | "memref.load" -> (
    match bpsrc c (Ir.Op.operand op 0) with
    | PInv m ->
      if List.mem m lp.stored then raise Not_batchable;
      lp.loaded <- m :: lp.loaded;
      let i = bicol c (Ir.Op.operand op 1) in
      let d = bind_fcol c (Ir.Op.result op 0) in
      finish (fun rs n ->
          let arr = Array.unsafe_get rs.rs_pbase m
          and ic = icol rs i
          and fd = fcol rs d in
          for j = 0 to n - 1 do
            fset fd j arr.(iget ic j)
          done)
    | PCol _ -> raise Not_batchable)
  | "memref.store" -> (
    (* a column write into a BRAM buffer, lanes in element order; a
       buffer the loop also loads or stores elsewhere would make that
       order observable *)
    match bpsrc c (Ir.Op.operand op 1) with
    | PInv m ->
      if List.mem m lp.stored || List.mem m lp.loaded then raise Not_batchable;
      lp.stored <- m :: lp.stored;
      let s = bfcol c preps (Ir.Op.operand op 0) in
      let i = bicol c (Ir.Op.operand op 2) in
      finish (fun rs n ->
          let arr = Array.unsafe_get rs.rs_pbase m
          and ic = icol rs i
          and fs = fcol rs s in
          for j = 0 to n - 1 do
            arr.(iget ic j) <- cget fs j
          done)
    | PCol _ -> raise Not_batchable)
  | _ -> raise Not_batchable

(* One [scf.for] of a compute stage, compiled to run in blocks.  Before
   each block every read counts the tokens its ring holds; a block that
   some read cannot feed runs only the lanes every read can, then
   raises at the read holding the fewest tokens, the earlier in body
   order on a tie: the read an element-at-a-time loop reaches first. *)
let compile_for c op =
  let lb = islot c (Ir.Op.operand op 0) in
  let ub = islot c (Ir.Op.operand op 1) in
  let step = islot c (Ir.Op.operand op 2) in
  let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
  let iv =
    match Ir.Block.args block with
    | a :: _ -> a
    | [] ->
      Err.raise_error ~loc:(Ir.Op.loc op) "functional sim: scf.for without args"
  in
  let lp = { reads = []; writes = []; loaded = []; stored = [] } in
  let ivc = new_icol c in
  Int_tbl.replace c.cols (Ir.Value.id iv) (KI ivc);
  c.inv <- [];
  c.entry <- [];
  let bsteps =
    List.fold_left
      (fun acc o ->
        match compile_bop c lp o with
        | None -> acc
        | Some step -> step :: acc
        | exception Not_batchable ->
          Err.raise_error ~loc:(Ir.Op.loc o)
            "functional sim: %s in a compute loop cannot run in blocks"
            (Ir.Op.name o))
      [] (Ir.Block.ops block)
    |> List.rev |> Array.of_list
  in
  (* an invariant's column is filled by this loop's entry steps only *)
  List.iter (Int_tbl.remove c.cols) c.inv;
  c.batched_loops <- c.batched_loops + 1;
  let nb = Array.length bsteps in
  let entry = Array.of_list (List.rev c.entry) in
  let reads = Array.of_list (List.rev lp.reads) in
  let nreads = Array.length reads in
  fun rs ->
    let ir = rs.rs_iregs in
    let ub = Array.unsafe_get ir ub and st = Array.unsafe_get ir step in
    let ivcol = Array.unsafe_get rs.rs_icols ivc in
    (* uniform columns: filled or computed once per loop run *)
    for k = 0 to Array.length entry - 1 do
      (Array.unsafe_get entry k) rs batch_width
    done;
    let i = ref (Array.unsafe_get ir lb) in
    while !i < ub do
      let rem = (ub - !i + st - 1) / st in
      (* the lanes every read can feed, and the read that runs dry first *)
      let n = ref (if rem < batch_width then rem else batch_width) in
      let dry = ref (-1) in
      for k = 0 to nreads - 1 do
        let rd = Array.unsafe_get reads k in
        let len = (Array.unsafe_get rs.rs_rings rd.br_ring).rg_len in
        let held = if rd.br_width = 0 then 0 else len / rd.br_width in
        if held < !n then begin
          n := held;
          dry := k
        end
      done;
      let n = !n in
      for j = 0 to n - 1 do
        Array.unsafe_set ivcol j (!i + (j * st))
      done;
      if n > 0 then
        for k = 0 to nb - 1 do
          (Array.unsafe_get bsteps k) rs n
        done;
      if !dry >= 0 then starved reads.(!dry).br_loc;
      i := !i + (n * st)
    done

(* The top level of a compute stage: constants, its BRAM buffers (a
   fresh zeroed array on every run, held in the run state's pointer
   file, never in the shared plan), their partition pragmas, and the
   loops. *)
let compile_stage_op c (op : Ir.op) : (run_state -> unit) option =
  match Ir.Op.name op with
  | "arith.constant" ->
    fold_constant c op;
    None
  | "memref.alloca" -> (
    match Ir.Value.ty (Ir.Op.result op 0) with
    | Ty.Memref (shape, _) ->
      let size = List.fold_left ( * ) 1 shape in
      let d =
        match slot_exn c (Ir.Op.result op 0) with
        | KP d -> d
        | _ -> Err.raise_error "functional sim: expected pointer"
      in
      Some
        (fun rs ->
          rs.rs_pbase.(d) <- Array.make size 0.0;
          rs.rs_poff.(d) <- 0)
    | _ -> Err.raise_error "functional sim: alloca result not memref")
  | "hls.array_partition" -> None
  | "scf.for" -> Some (compile_for c op)
  | name ->
    Err.raise_error ~loc:(Ir.Op.loc op) "functional sim: unsupported op %s" name

(* ------------------------------------------------------------------ *)
(* Structural stages (the native runtime: load_data, shift_buffer,
   duplicate, write_data on ring buffers) *)

let design_ring_idx ring_index id =
  match Int_tbl.find_opt ring_index id with
  | Some i -> i
  | None -> Err.raise_error "design: unknown stream %d" id

(* Row-major enumeration of the neighbourhood cube of a halo: the lane
   order of a shift stage's vector tokens. *)
let offsets_of_halo halo =
  let rec go = function
    | [] -> [ [] ]
    | h :: rest ->
      let tails = go rest in
      List.concat_map
        (fun o -> List.map (fun t -> o :: t) tails)
        (List.init ((2 * h) + 1) (fun i -> i - h))
  in
  go halo

let load_stage ring_index (d : Design.t) ~out_streams ~ptr_args =
  let total = Design.total_padded d in
  let pairs =
    List.map2
      (fun s argi -> (design_ring_idx ring_index s, argi))
      out_streams ptr_args
  in
  fun rs ->
    List.iter
      (fun (ri, argi) ->
        let data =
          match rs.rs_args.(argi) with
          | Functional.Ptr (a, 0) -> a
          | _ -> Err.raise_error "functional sim: load_data arg is not a pointer"
        in
        ring_push_blit rs.rs_rings.(ri) data 0 total)
      pairs

(* The window of a shift over [extent] with [halo]. *)
let window_of ~halo ~extent =
  if List.length halo <> List.length extent then
    Err.raise_error "design: halo/extent rank mismatch";
  let ext = Array.of_list extent and hal = Array.of_list halo in
  let rank = Array.length ext in
  let pext = Array.mapi (fun d e -> e + (2 * hal.(d))) ext in
  let pstrides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    pstrides.(d) <- pstrides.(d + 1) * pext.(d + 1)
  done;
  let padded_index pos =
    let p = ref 0 in
    List.iteri (fun d x -> p := !p + (x * pstrides.(d))) pos;
    !p
  in
  {
    wn_total = Array.fold_left ( * ) 1 ext;
    wn_inner = max 1 ext.(rank - 1);
    wn_outer = Array.sub ext 0 (rank - 1);
    wn_pstrides = Array.sub pstrides 0 (rank - 1);
    wn_origin = padded_index halo;
    wn_pdelta = offsets_of_halo halo |> List.map padded_index |> Array.of_list;
    wn_size = Array.fold_left ( * ) 1 pext;
  }

(* A shift never materialises a neighbourhood: it copies the scalar
   input once, row by row, into its window's storage (taken with its
   NaN pad intact, see "Stream storage").  The output ring then queues
   [total] tokens of [width] floats, as a stream of vector tokens
   would. *)
let shift_stage ring_index win ~input ~output =
  let in_ri = design_ring_idx ring_index input in
  let out_ri = design_ring_idx ring_index output in
  let total = win.wn_total and inner = win.wn_inner in
  fun rs ->
    let inring = Array.unsafe_get rs.rs_rings in_ri in
    let outring = Array.unsafe_get rs.rs_rings out_ri in
    if inring.rg_width <> 1 then
      Err.raise_error "functional sim: shift input must be scalar";
    ring_require inring total;
    let buf = outring.rg_data and src = inring.rg_data and h = inring.rg_head in
    if Array.length buf <> win.wn_size then
      Err.raise_error "functional sim: stream %d has a second producer"
        outring.rg_stream;
    for row = 0 to (total / inner) - 1 do
      Array.blit src (h + (row * inner)) buf (window_row win row) inner
    done;
    outring.rg_head <- 0;
    outring.rg_len <- total * outring.rg_width;
    ring_drop inring total

(* A dup is zero-copy.  Each output stream has exactly one producer
   (this dup) and its consumers only ever read, while the input stream
   is fully produced before the dup runs (topological stage order) and
   never pushed again afterwards — so the "copies" can alias the input
   ring's buffer, each with its own head/length.  A dup of a window
   aliases the window (its outputs carry the same geometry). *)
let dup_stage ring_index ~input ~outputs =
  let in_ri = design_ring_idx ring_index input in
  let out_ris =
    List.map (design_ring_idx ring_index) outputs |> Array.of_list
  in
  let nout = Array.length out_ris in
  fun rs ->
    let inring = Array.unsafe_get rs.rs_rings in_ri in
    let n = inring.rg_len in
    for k = 0 to nout - 1 do
      let r = Array.unsafe_get rs.rs_rings (Array.unsafe_get out_ris k) in
      r.rg_data <- inring.rg_data;
      r.rg_head <- inring.rg_head;
      r.rg_len <- n
    done;
    ring_drop inring n

(* A write stores the interior points: the interior of each interior
   row is one contiguous run of linear indices, so it is one
   [Array.blit] per interior row, and the final bulk drop discards the
   halo tokens. *)
let write_stage ring_index ~in_streams ~ptr_args ~halo ~extent =
  let ext = Array.of_list extent and hal = Array.of_list halo in
  let rank = Array.length ext in
  let total = Array.fold_left ( * ) 1 ext in
  let pairs =
    List.map2
      (fun s argi -> (design_ring_idx ring_index s, argi))
      in_streams ptr_args
  in
  let inner = ext.(rank - 1) in
  let h_in = hal.(rank - 1) in
  let run_len = max 0 (inner - (2 * h_in)) in
  (* the first linear index of each interior row's interior *)
  let runs =
    List.init (total / inner) Fun.id
    |> List.filter (fun row ->
           let r = ref row and ok = ref (run_len > 0) in
           for d = rank - 2 downto 0 do
             let p = !r mod ext.(d) in
             if p < hal.(d) || p >= ext.(d) - hal.(d) then ok := false;
             r := !r / ext.(d)
           done;
           !ok)
    |> List.map (fun row -> (row * inner) + h_in)
    |> Array.of_list
  in
  let n_runs = Array.length runs in
  fun rs ->
    List.iter
      (fun (ri, argi) ->
        let ring = rs.rs_rings.(ri) in
        let data =
          match rs.rs_args.(argi) with
          | Functional.Ptr (a, 0) -> a
          | _ ->
            Err.raise_error "functional sim: write_data arg is not a pointer"
        in
        ring_require ring total;
        let src = ring.rg_data and h = ring.rg_head in
        for k = 0 to n_runs - 1 do
          let s = Array.unsafe_get runs k in
          Array.blit src (h + s) data s run_len
        done;
        ring_drop ring total)
      pairs

(* ------------------------------------------------------------------ *)
(* Stream storage

   A load or compute stage's output ring and a shift's window own
   storage; a dup output aliases its input's owner.  A push from another
   stage never gives a shift or dup output storage: into a dup output
   before its dup runs, it grows a private array from zero capacity;
   into a window, it is a second producer.  An owner is live from its
   producer stage to the last stage that reads it or any alias of it.
   The producer takes storage of the owner's class from the run state's
   free list, allocating only when the list is empty; after the last
   reader the storage goes back, provided every ring holding it is
   drained (a mis-wired design keeps it, and fails the drain check).
   So a run touches only the storage live at once, and a cached state's
   free lists hold the plan's peak.  A ring outside its owner's range
   holds [[||]]. *)

let take classes rs o k =
  let r = Array.unsafe_get rs.rs_rings o in
  if Array.length r.rg_data = 0 then begin
    let s =
      match rs.rs_free.(k) with
      | s :: rest ->
        rs.rs_free.(k) <- rest;
        s
      | [] ->
        let sc = classes.(k) in
        if sc.sc_nan then Array.make sc.sc_len Float.nan
        else Array.create_float sc.sc_len
    in
    rs.rs_owned.(o) <- s;
    r.rg_data <- s
  end

let release rs o k =
  let s = rs.rs_owned.(o) in
  if
    Array.length s > 0
    && Array.for_all (fun r -> r.rg_data != s || r.rg_len = 0) rs.rs_rings
  then begin
    Array.iter (fun r -> if r.rg_data == s then ring_reset r) rs.rs_rings;
    rs.rs_owned.(o) <- [||];
    rs.rs_free.(k) <- s :: rs.rs_free.(k)
  end

(* How a stage fills the rings it writes. *)
type fill = Owns | Shifts of window | Aliases of int (* the dup's input *)

(* The storage plan of stages given as (rings read, fill, rings
   written): the storage classes, each ring's class (-1 if it owns
   nothing), per stage the (owner, class) pairs to take before it runs
   and to release after, and the floats live at the peak — what a
   fresh state's first run allocates. *)
let plan_storage (descs : ring_desc array) ~total stages =
  let nr = Array.length descs in
  (* a shift or dup output is filled by its shift or dup: a push into it
     from a load or compute stage does not make it an owner *)
  let borrowed = Array.make nr false in
  List.iter
    (fun (_, fill, outs) ->
      match fill with
      | Owns -> ()
      | Shifts _ | Aliases _ -> List.iter (fun ri -> borrowed.(ri) <- true) outs)
    stages;
  let owner = Array.make nr (-1) and set = Array.make nr false in
  let producer = Array.make nr (-1) and cls = Array.make nr (-1) in
  let classes = ref [] and nclasses = ref 0 in
  let new_class sc =
    classes := sc :: !classes;
    incr nclasses;
    !nclasses - 1
  in
  (* (ring length, class) and (window, class) *)
  let rings = ref [] and windows = ref [] in
  let ring_class len =
    match List.find_opt (fun (l, _) -> l = len) !rings with
    | Some (_, k) -> k
    | None ->
      let k = new_class { sc_len = len; sc_nan = false } in
      rings := (len, k) :: !rings;
      k
  in
  let window_class w =
    let same v =
      v.wn_size = w.wn_size && v.wn_origin = w.wn_origin
      && v.wn_inner = w.wn_inner && v.wn_outer = w.wn_outer
      && v.wn_pstrides = w.wn_pstrides
    in
    match List.find_opt (fun (v, _) -> same v) !windows with
    | Some (_, k) -> k
    | None ->
      let k = new_class { sc_len = w.wn_size; sc_nan = true } in
      windows := (w, k) :: !windows;
      k
  in
  List.iteri
    (fun i (_, fill, outs) ->
      List.iter
        (fun ri ->
          if not set.(ri) then
            match fill with
            | Aliases input ->
              set.(ri) <- true;
              owner.(ri) <- owner.(input)
            | Shifts w ->
              set.(ri) <- true;
              owner.(ri) <- ri;
              producer.(ri) <- i;
              cls.(ri) <- window_class w
            | Owns when not borrowed.(ri) ->
              set.(ri) <- true;
              owner.(ri) <- ri;
              producer.(ri) <- i;
              cls.(ri) <- ring_class (total * descs.(ri).rd_width)
            | Owns -> ())
        outs)
    stages;
  let last = Array.copy producer in
  List.iteri
    (fun i (ins, _, _) ->
      List.iter
        (fun ri ->
          let o = owner.(ri) in
          if o >= 0 && producer.(o) >= 0 then last.(o) <- max last.(o) i)
        ins)
    stages;
  let classes = Array.of_list (List.rev !classes) in
  let nst = List.length stages in
  let takes = Array.make nst [] and releases = Array.make nst [] in
  for o = nr - 1 downto 0 do
    let p = producer.(o) in
    if owner.(o) = o && p >= 0 then begin
      takes.(p) <- (o, cls.(o)) :: takes.(p);
      releases.(last.(o)) <- (o, cls.(o)) :: releases.(last.(o))
    end
  done;
  let takes = Array.map Array.of_list takes
  and releases = Array.map Array.of_list releases in
  (* the first run on a fresh state, replayed on free-list lengths *)
  let free = Array.make (Array.length classes) 0 and peak = ref 0 in
  for i = 0 to nst - 1 do
    Array.iter
      (fun (_, k) ->
        if free.(k) > 0 then free.(k) <- free.(k) - 1
        else peak := !peak + classes.(k).sc_len)
      takes.(i);
    Array.iter (fun (_, k) -> free.(k) <- free.(k) + 1) releases.(i)
  done;
  (classes, cls, takes, releases, !peak)

(* A stage step that takes its outputs' storage first and releases its
   inputs' after. *)
let with_storage classes ~takes ~releases step =
  if takes = [||] && releases = [||] then step
  else fun rs ->
    for i = 0 to Array.length takes - 1 do
      let o, k = Array.unsafe_get takes i in
      take classes rs o k
    done;
    step rs;
    for i = 0 to Array.length releases - 1 do
      let o, k = Array.unsafe_get releases i in
      release rs o k
    done

(* ------------------------------------------------------------------ *)
(* Whole-design compilation *)

let stream_width (s : Design.stream) =
  match s.Design.st_elem with
  | Ty.Array (n, _) -> n
  | Ty.Struct ts -> List.length ts
  | _ -> 1

let plan_id_counter = Atomic.make 0

let compile (d : Design.t) : t =
  Atomic.incr compile_counter;
  (* every shift outputs a window, and so does a dup of a window *)
  let windows = Int_tbl.create 8 in
  List.iter
    (fun stage ->
      match stage with
      | Design.Shift { output; halo; extent; _ } ->
        Int_tbl.replace windows output (window_of ~halo ~extent)
      | Design.Dup { input; outputs } ->
        List.iter
          (fun o ->
            Option.iter (Int_tbl.replace windows o)
              (Int_tbl.find_opt windows input))
          outputs
      | _ -> ())
    d.d_stages;
  (* ring descriptors: one per design stream, ascending stream id (the
     drain check reports in that order) *)
  let ring_descs =
    List.map
      (fun (s : Design.stream) ->
        let id = s.Design.st_id in
        {
          rd_stream = id;
          rd_width = max 1 (stream_width s);
          rd_win = Int_tbl.find_opt windows id;
        })
      d.d_streams
    |> List.sort (fun a b -> Int.compare a.rd_stream b.rd_stream)
    |> Array.of_list
  in
  let ring_index = Int_tbl.create 32 in
  Array.iteri
    (fun i rd -> Int_tbl.replace ring_index rd.rd_stream i)
    ring_descs;
  (* slot allocation: kernel arguments plus every compute-stage region *)
  let al =
    {
      slots = Int_tbl.create 256;
      nf = 0;
      ni = 0;
      np = 0;
    }
  in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions d.d_func)) in
  let func_args = Ir.Block.args body in
  List.iter (alloc_value al) func_args;
  List.iter
    (fun stage ->
      match stage with
      | Design.Compute c -> alloc_op al ~in_loop:false c.df_op
      | _ -> ())
    d.d_stages;
  let c =
    {
      al;
      const_f = Array.make (max 1 al.nf) 0.0;
      const_i = Array.make (max 1 al.ni) 0;
      ring_index;
      ring_win = Array.map (fun rd -> rd.rd_win) ring_descs;
      folded = 0;
      cols = Int_tbl.create 64;
      vec_ring = Int_tbl.create 8;
      nfc = 0;
      nic = 0;
      npc = 0;
      batched_loops = 0;
      inv = [];
      uni_f = Int_tbl.create 16;
      uni_i = Int_tbl.create 16;
      entry = [];
      st_reads = [];
      st_writes = [];
    }
  in
  (* argument binding: resolve each kernel argument to its slot once *)
  let binders =
    List.mapi
      (fun i v ->
        match Int_tbl.find_opt al.slots (Ir.Value.id v) with
        | Some (KP s) -> (
          fun (args : Functional.value array) rs ->
            match args.(i) with
            | Functional.Ptr (a, o) ->
              rs.rs_pbase.(s) <- a;
              rs.rs_poff.(s) <- o
            | Functional.Mem a ->
              rs.rs_pbase.(s) <- a;
              rs.rs_poff.(s) <- 0
            | _ -> Err.raise_error "functional sim: gep of non-pointer")
        | Some (KF s) -> (
          fun args rs ->
            match args.(i) with
            | Functional.F f -> rs.rs_fregs.(s) <- f
            | Functional.I n -> rs.rs_fregs.(s) <- float_of_int n
            | _ -> Err.raise_error "functional sim: expected float")
        | Some (KI s) -> (
          fun args rs ->
            match args.(i) with
            | Functional.I n -> rs.rs_iregs.(s) <- n
            | _ -> Err.raise_error "functional sim: expected int")
        | _ -> fun _ _ -> ())
      func_args
  in
  let nargs = List.length func_args in
  let bind args rs =
    if Array.length args <> nargs then
      Err.raise_error "functional sim: expected %d arguments, got %d" nargs
        (Array.length args);
    rs.rs_args <- args;
    List.iter (fun b -> b args rs) binders
  in
  (* stage steps, in the design's topological order, with the rings
     each reads and writes *)
  let n_steps = ref 0 in
  let rings = List.map (design_ring_idx ring_index) in
  let stages =
    List.map
      (fun stage ->
        match stage with
        | Design.Load { out_streams; ptr_args } ->
          ( load_stage ring_index d ~out_streams ~ptr_args,
            ([], Owns, rings out_streams) )
        | Design.Shift { input; output; _ } ->
          let win = Int_tbl.find windows output in
          ( shift_stage ring_index win ~input ~output,
            (rings [ input ], Shifts win, rings [ output ]) )
        | Design.Dup { input; outputs } ->
          let i = design_ring_idx ring_index input in
          (dup_stage ring_index ~input ~outputs, ([ i ], Aliases i, rings outputs))
        | Design.Compute cc ->
          c.st_reads <- [];
          c.st_writes <- [];
          let body =
            Ir.Block.ops (Hls.dataflow_body cc.df_op)
            |> List.filter_map (compile_stage_op c)
            |> Array.of_list
          in
          n_steps := !n_steps + Array.length body;
          let nbody = Array.length body in
          ( (fun rs ->
              for k = 0 to nbody - 1 do
                (Array.unsafe_get body k) rs
              done),
            (c.st_reads, Owns, c.st_writes) )
        | Design.Write { in_streams; ptr_args; halo; extent } ->
          ( write_stage ring_index ~in_streams ~ptr_args ~halo ~extent,
            (rings in_streams, Owns, []) ))
      d.d_stages
  in
  let classes, cls, takes, releases, peak =
    plan_storage ring_descs ~total:(Design.total_padded d) (List.map snd stages)
  in
  let steps =
    List.mapi
      (fun i (step, _) ->
        with_storage classes ~takes:takes.(i) ~releases:releases.(i) step)
      stages
    |> Array.of_list
  in
  {
    pl_id = Atomic.fetch_and_add plan_id_counter 1;
    pl_design = d;
    pl_ring_descs = ring_descs;
    pl_classes = classes;
    pl_class = cls;
    pl_const_f = c.const_f;
    pl_const_i = c.const_i;
    pl_np = al.np;
    pl_n_fcols = c.nfc;
    pl_n_icols = c.nic;
    pl_n_pcols = c.npc;
    pl_bind = bind;
    pl_steps = steps;
    pl_stats =
      {
        cs_fregs = al.nf;
        cs_iregs = al.ni;
        cs_pregs = al.np;
        cs_steps = !n_steps;
        cs_folded = c.folded;
        cs_batched = c.batched_loops;
        cs_peak_floats = peak;
      };
  }

(* Named by the benchmark pipeline's mirror of [Shmls.compiled]; goes
   when that mirror is deleted. *)
let compile_batched = compile

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Drop every reference a run took to its arguments, so a cached state
   never keeps the caller's grids alive after the run. *)
let release_args rs =
  rs.rs_args <- [||];
  Array.fill rs.rs_pbase 0 (Array.length rs.rs_pbase) [||];
  Array.fill rs.rs_pcols_base 0 (Array.length rs.rs_pcols_base) [||]

let run_with (t : t) (rs : run_state) ~(args : Functional.value array) =
  (* the steps index the state's slots and rings without bounds checks *)
  if rs.rs_plan <> t.pl_id then
    Err.raise_error ~loc:(Ir.Op.loc t.pl_design.d_func)
      "functional sim: run state of plan %d passed to plan %d" rs.rs_plan
      t.pl_id;
  (* a failed previous run may have left tokens queued and storage
     taken: put it back on the free lists *)
  Array.iteri
    (fun o s ->
      if Array.length s > 0 then begin
        let k = t.pl_class.(o) in
        rs.rs_free.(k) <- s :: rs.rs_free.(k);
        rs.rs_owned.(o) <- [||]
      end)
    rs.rs_owned;
  Array.iter ring_reset rs.rs_rings;
  Fun.protect
    ~finally:(fun () -> release_args rs)
    (fun () ->
      t.pl_bind args rs;
      let steps = t.pl_steps in
      for k = 0 to Array.length steps - 1 do
        (Array.unsafe_get steps k) rs
      done);
  (* every stream should be fully drained: catches mis-wired designs
     (checked in ascending stream order) *)
  Array.iter
    (fun r ->
      if r.rg_len <> 0 then
        Err.raise_error "functional sim: stream %d left %d undrained tokens"
          r.rg_stream (ring_tokens r))
    rs.rs_rings

(* The per-domain state cache: one run state per (domain, plan), so a
   worker reuses its allocation across every run it executes on that
   plan, and two domains never share mutable state.  The plan is an
   ephemeron key: a cached state lives exactly as long as its plan (and
   its domain). *)
module Plan_states = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash t = Hashtbl.hash t.pl_id
end)

let domain_states : run_state Plan_states.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Plan_states.create 8)

let domain_state (t : t) =
  let tbl = Domain.DLS.get domain_states in
  match Plan_states.find_opt tbl t with
  | Some rs -> rs
  | None ->
    let rs = create_state t in
    Plan_states.add tbl t rs;
    rs

let run (t : t) ~(args : Functional.value array) =
  run_with t (domain_state t) ~args

let design t = t.pl_design
