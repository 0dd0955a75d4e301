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

     - every SSA value is resolved at compile time to a dense slot in an
       unboxed [float array] (floats), an [int array] (ints and i1s), a
       base/offset pair (pointers and BRAM memrefs) or a flat scratch
       [float array] (shift-buffer neighbourhood tokens) — no hashtable
       lookup and no [value] boxing happens in the element loop;
     - each region op becomes a step closure capturing its slot indices
       (constants are folded into the plan's constant pool at compile
       time and emit no step at all);
     - stream buffers are [float array] ring buffers with O(1)
       push/pop/length, sized from the design (every stream carries one
       token per padded point).  A neighbourhood token is never
       materialised: a shift stage's output is a window, one NaN-padded
       copy of its input that consumers index by neighbour offset (see
       {!window});
     - a compute loop whose body is independent per element runs in
       whole-stream blocks over dense columns (see "Batched compute-loop
       compilation"); any other loop runs its per-element compilation.

   The compiled artefact is split in two:

     - {!t}, the plan, is immutable once [compile] returns: slot
       layout, per-op step closures over slot indices, the constant
       pools, ring descriptors.  One plan is safely shared across any
       number of domains — parallel sweeps share the memoised plan
       instead of recompiling a private one per job.
     - {!Run_state.t} holds every mutable word a run touches: register
       files (seeded from the plan's constant pools), ring buffers,
       neighbourhood scratch.  States are cheap to allocate, reusable
       across runs, and cached per (domain, plan) so repeated runs on
       the same worker reuse one allocation ({!run}).

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
  rg_borrowed : bool;
      (* [rg_data] is not the ring's own storage: a dup output (it
         aliases the input's) or a window (its shift points it at
         [rg_pad]); emptied at the start of every run, so a stray push
         never writes into another stage's buffer *)
  rg_win : window option;
  mutable rg_data : float array;
  mutable rg_pad : float array; (* a shift window's padded buffer, kept
                                   across runs (NaN pad written once) *)
  mutable rg_head : int; (* index of the first queued float *)
  mutable rg_len : int; (* queued floats; a window counts [width] per
                           token *)
}

let ring_create ~stream ~width ~tokens ~borrowed ~win =
  {
    rg_stream = stream;
    rg_width = width;
    rg_borrowed = borrowed;
    rg_win = win;
    rg_data = (if borrowed then [||] else Array.create_float (tokens * width));
    rg_pad = [||];
    rg_head = 0;
    rg_len = 0;
  }

let ring_reset r =
  if r.rg_borrowed then r.rg_data <- [||];
  r.rg_head <- 0;
  r.rg_len <- 0

let ring_tokens r = r.rg_len / r.rg_width

(* Make room for [extra] more floats, compacting to [rg_head = 0].
   Rings are sized from the design, so this only grows a ring on a
   mis-wired design (a stream with a second producer).  Only its shift
   fills a window: a push into one is always an error. *)
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

let ring_push r v =
  if r.rg_head + r.rg_len >= Array.length r.rg_data then ring_reserve r 1;
  Array.unsafe_set r.rg_data (r.rg_head + r.rg_len) v;
  r.rg_len <- r.rg_len + 1

(* Append [n] floats from [src.(srcoff ..)] in one blit. *)
let ring_push_blit r src srcoff n =
  ring_reserve r n;
  Array.blit src srcoff r.rg_data (r.rg_head + r.rg_len) n;
  r.rg_len <- r.rg_len + n

let starved loc = Err.raise_error ~loc "functional sim: read from empty stream"

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
  rs_vecs : float array array; (* neighbourhood scratch, one per KV slot *)
  rs_rings : ring array; (* plan ring-descriptor order (ascending id) *)
  (* Column files.  A batched compute loop processes the stream in
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
  | KV of int (* vector-token slot: a private scratch array *)
  | KS of int * int * int
      (* batched loops only: an extracted neighbourhood lane left in
         its window — (ring, padded-index column, lane offset).  Lane
         [j] of the block is [rg_data.(pidx.(j) + offset)]; consumers
         read it in place instead of gathering it into a dense column
         first. *)

type alloc = {
  slots : (int, kind) Hashtbl.t; (* SSA value id -> slot *)
  mutable nf : int;
  mutable ni : int;
  mutable np : int;
  mutable vec_widths : int list; (* reversed; scratch sizes in slot order *)
  mutable nv : int;
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
  if not (Hashtbl.mem a.slots id) then
    match kind_of_ty (Ir.Value.ty v) with
    | `F ->
      Hashtbl.add a.slots id (KF a.nf);
      a.nf <- a.nf + 1
    | `I ->
      Hashtbl.add a.slots id (KI a.ni);
      a.ni <- a.ni + 1
    | `P ->
      Hashtbl.add a.slots id (KP a.np);
      a.np <- a.np + 1
    | `V w ->
      Hashtbl.add a.slots id (KV a.nv);
      a.vec_widths <- w :: a.vec_widths;
      a.nv <- a.nv + 1
    | `S | `Skip -> ()

let rec alloc_op a (op : Ir.op) =
  List.iter (alloc_value a) (Ir.Op.results op);
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          List.iter (alloc_value a) (Ir.Block.args b);
          List.iter (alloc_op a) (Ir.Block.ops b))
        (Ir.Region.blocks r))
    (Ir.Op.regions op)

(* ------------------------------------------------------------------ *)
(* Plans *)

type ring_desc = {
  rd_stream : int;
  rd_width : int;
  rd_borrowed : bool; (* see [rg_borrowed] *)
  rd_win : window option;
}

type stats = {
  cs_fregs : int;
  cs_iregs : int;
  cs_pregs : int;
  cs_vregs : int;
  cs_steps : int; (* compiled step closures across all stages *)
  cs_folded : int; (* constants folded into the pools at compile time *)
  cs_batched : int; (* compute loops compiled to whole-stream batches *)
}

(* The immutable plan: nothing in here is written after [compile]
   returns, so one plan is freely shared across domains.  All the step
   closures take the run state as an argument instead of capturing it. *)
type t = {
  pl_id : int; (* plan identity, keys the per-domain state cache *)
  pl_design : Design.t;
  pl_ring_descs : ring_desc array; (* ascending stream id, drain order *)
  pl_const_f : float array; (* constant pool: initial float registers *)
  pl_const_i : int array; (* constant pool: initial int registers *)
  pl_np : int;
  pl_vec_widths : int array;
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
    rs_vecs = Array.map (fun w -> Array.make w 0.0) t.pl_vec_widths;
    rs_rings =
      (* every stream carries one token per padded point *)
      Array.map
        (fun rd ->
          ring_create ~stream:rd.rd_stream ~width:rd.rd_width
            ~tokens:(Design.total_padded t.pl_design)
            ~borrowed:rd.rd_borrowed ~win:rd.rd_win)
        t.pl_ring_descs;
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
  vec_w : int array; (* scratch width per KV slot *)
  ring_index : (int, int) Hashtbl.t; (* SSA stream id -> rs_rings index *)
  ring_win : window option array; (* per rs_rings index *)
  mutable folded : int;
  (* batched-loop compilation state *)
  cols : (int, kind) Hashtbl.t; (* in-loop SSA id -> column slot *)
  vec_ring : (int, int * int * window) Hashtbl.t;
      (* KV slot -> (ring idx, padded-index column, window) *)
  mutable nfc : int; (* column-file sizes *)
  mutable nic : int;
  mutable npc : int;
  mutable batched_loops : int;
}

let slot_exn c v =
  match Hashtbl.find_opt c.al.slots (Ir.Value.id v) with
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

let pslot c v =
  match slot_exn c v with
  | KP i -> i
  | _ -> Err.raise_error "functional sim: expected pointer"

(* A float getter; an int operand is coerced to float. *)
let getf c v =
  match slot_exn c v with
  | KF i -> fun rs -> Array.unsafe_get rs.rs_fregs i
  | KI i -> fun rs -> float_of_int (Array.unsafe_get rs.rs_iregs i)
  | _ -> Err.raise_error "functional sim: expected float"

let ring_idx c v =
  let id = Ir.Value.id v in
  match Hashtbl.find_opt c.ring_index id with
  | Some i -> i
  | None -> Err.raise_error "functional sim: read of unknown stream %d" id

(* ------------------------------------------------------------------ *)
(* Batched compute-loop compilation.

   A compute stage's [scf.for] is batched when every body op is in the
   independent-per-element subset below (no nested loops, no stores, at
   most one read and one write per stream — the only op forms whose
   per-element interleaving is observable through the rings).  The loop
   then runs in blocks of up to [batch_width] elements: each op becomes
   one closure looping its lanes over dense columns, loop-invariant
   operands (including folded constants) are read once per block, and
   stream reads/writes move whole blocks through the rings with blits.
   Neighbourhood (vector) reads never materialise: a window read fills
   one int column with the block's padded indices, and an
   [extractvalue] lane reads the window at that column plus the lane's
   offset.

   Every lane's dataflow is the float expression the per-element body
   evaluates, op-at-a-time instead of element-at-a-time, and batchable
   loops contain no stores, so no partial-block state is observable.
   Starved reads are detected before a block touches anything; the
   remainder then re-runs through the per-element body, so the raised
   error carries the [Loc] of the read that starves first. *)

exception Not_batchable

(* The padded indices of window tokens [t0 .. t0 + n - 1] into
   [px.(0 .. n - 1)]: consecutive inside a row, one [window_row] per
   row the block touches. *)
let window_pidx win t0 (px : int array) n =
  let inner = win.wn_inner in
  let row = ref (t0 / inner) and col = ref (t0 mod inner) and j = ref 0 in
  while !j < n do
    let base = window_row win !row + !col - !j in
    let m = min (n - !j) (inner - !col) in
    for q = !j to !j + m - 1 do
      Array.unsafe_set px q (base + q)
    done;
    j := !j + m;
    incr row;
    col := 0
  done

(* operand sources within a batched loop: a column or a loop-invariant
   scalar register read once per block *)
type fsrc = FCol of int | FInv of (run_state -> float)
type isrc = ICol of int | IInv of (run_state -> int)
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
  Hashtbl.replace c.cols (Ir.Value.id v) (KF i);
  i

let bind_icol c v =
  let i = new_icol c in
  Hashtbl.replace c.cols (Ir.Value.id v) (KI i);
  i

let bind_pcol c v =
  let i = new_pcol c in
  Hashtbl.replace c.cols (Ir.Value.id v) (KP i);
  i

(* Resolve a float operand, coercing ints as [getf] does; a
   coerced int column converts through a prep step once per block. *)
let bfsrc c preps v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KF i) -> FCol i
  | Some (KS (ri, pc, off)) ->
    (* a consumer outside the in-place fast path: gather the lane into
       a dense column once and rebind, so later consumers share it *)
    let d = new_fcol c in
    Hashtbl.replace c.cols (Ir.Value.id v) (KF d);
    preps :=
      (fun rs n ->
        let buf = (Array.unsafe_get rs.rs_rings ri).rg_data in
        let px = Array.unsafe_get rs.rs_icols pc in
        let fd = Array.unsafe_get rs.rs_fcols d in
        for j = 0 to n - 1 do
          Array.unsafe_set fd j
            (Array.unsafe_get buf (Array.unsafe_get px j + off))
        done)
      :: !preps;
    FCol d
  | Some (KI i) ->
    let d = new_fcol c in
    preps :=
      (fun rs n ->
        let src = Array.unsafe_get rs.rs_icols i
        and dst = Array.unsafe_get rs.rs_fcols d in
        for j = 0 to n - 1 do
          Array.unsafe_set dst j (float_of_int (Array.unsafe_get src j))
        done)
      :: !preps;
    FCol d
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KF i -> FInv (fun rs -> Array.unsafe_get rs.rs_fregs i)
    | KI i -> FInv (fun rs -> float_of_int (Array.unsafe_get rs.rs_iregs i))
    | _ -> raise Not_batchable)

let bisrc c v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KI i) -> ICol i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with
    | KI i -> IInv (fun rs -> Array.unsafe_get rs.rs_iregs i)
    | _ -> raise Not_batchable)

let bpsrc c v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KP i) -> PCol i
  | Some _ -> raise Not_batchable
  | None -> (
    match slot_exn c v with KP i -> PInv i | _ -> raise Not_batchable)

(* Extended float source for the binary-arithmetic fast path: an
   extracted neighbourhood lane stays in its window and is read right
   inside the consumer's loop, skipping the dense column (one indexed
   load instead of gather-store + dense load). *)
type xfsrc =
  | XCol of int
  | XInv of (run_state -> float)
  | XStr of int * int * int (* ring, padded-index column, lane offset *)

let bxfsrc c preps v =
  match Hashtbl.find_opt c.cols (Ir.Value.id v) with
  | Some (KS (ri, pc, off)) -> XStr (ri, pc, off)
  | _ -> (
    match bfsrc c preps v with FCol i -> XCol i | FInv g -> XInv g)

(* Lane arithmetic is dispatched through tiny opcode variants instead
   of operator closures: without flambda a closure argument means an
   indirect call (and float boxing) on every lane, which would eat most
   of the batching win.  The [@inline] match compiles to a perfectly
   predicted jump on a loop-invariant tag, keeping lanes unboxed. *)
type f2op = F2Add | F2Sub | F2Mul | F2Div | F2Max | F2Min | F2Pow
type f1op = F1Neg | F1Sqrt | F1Exp | F1Log | F1Abs | F1Tanh
type i2op = I2Add | I2Sub | I2Mul | I2Div | I2Rem
type icmp = CLt | CLe | CGt | CGe | CEq | CNe

let[@inline] f2_apply k a b =
  match k with
  | F2Add -> a +. b
  | F2Sub -> a -. b
  | F2Mul -> a *. b
  | F2Div -> a /. b
  | F2Max -> Float.max a b
  | F2Min -> Float.min a b
  | F2Pow -> a ** b

let[@inline] f1_apply k a =
  match k with
  | F1Neg -> -.a
  | F1Sqrt -> sqrt a
  | F1Exp -> exp a
  | F1Log -> log a
  | F1Abs -> Float.abs a
  | F1Tanh -> tanh a

let[@inline] i2_apply k a b =
  match k with
  | I2Add -> a + b
  | I2Sub -> a - b
  | I2Mul -> a * b
  | I2Div -> a / b
  | I2Rem -> a mod b

let[@inline] icmp_apply k (a : int) b =
  match k with
  | CLt -> a < b
  | CLe -> a <= b
  | CGt -> a > b
  | CGe -> a >= b
  | CEq -> a = b
  | CNe -> a <> b

(* Compile one batchable-loop body op into an optional per-block step
   [fun rs n -> ...] over the first [n] lanes.  Raises [Not_batchable]
   on anything outside the subset; the caller then runs the loop
   per element. *)
let compile_bop c ~reads ~writes (op : Ir.op) :
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
  let bin k =
    let a = bxfsrc c preps (Ir.Op.operand op 0) in
    let b = bxfsrc c preps (Ir.Op.operand op 1) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | XCol a, XCol b ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get fa j) (Array.unsafe_get fb j))
          done
      | XCol a, XInv gb ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k (Array.unsafe_get fa j) b)
          done
      | XInv ga, XCol b ->
        fun rs n ->
          let fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f2_apply k a (Array.unsafe_get fb j))
          done
      | XInv ga, XInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (f2_apply k (ga rs) (gb rs))
      | XStr (ria, pa, oa), XCol b ->
        fun rs n ->
          let wa = (Array.unsafe_get rs.rs_rings ria).rg_data
          and xa = Array.unsafe_get rs.rs_icols pa
          and fb = Array.unsafe_get rs.rs_fcols b
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k
                 (Array.unsafe_get wa (Array.unsafe_get xa j + oa))
                 (Array.unsafe_get fb j))
          done
      | XCol a, XStr (rib, pb, ob) ->
        fun rs n ->
          let wb = (Array.unsafe_get rs.rs_rings rib).rg_data
          and xb = Array.unsafe_get rs.rs_icols pb
          and fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get fa j)
                 (Array.unsafe_get wb (Array.unsafe_get xb j + ob)))
          done
      | XStr (ria, pa, oa), XInv gb ->
        fun rs n ->
          let wa = (Array.unsafe_get rs.rs_rings ria).rg_data
          and xa = Array.unsafe_get rs.rs_icols pa
          and fd = Array.unsafe_get rs.rs_fcols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k (Array.unsafe_get wa (Array.unsafe_get xa j + oa)) b)
          done
      | XInv ga, XStr (rib, pb, ob) ->
        fun rs n ->
          let wb = (Array.unsafe_get rs.rs_rings rib).rg_data
          and xb = Array.unsafe_get rs.rs_icols pb
          and fd = Array.unsafe_get rs.rs_fcols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k a (Array.unsafe_get wb (Array.unsafe_get xb j + ob)))
          done
      | XStr (ria, pa, oa), XStr (rib, pb, ob) ->
        fun rs n ->
          let wa = (Array.unsafe_get rs.rs_rings ria).rg_data
          and xa = Array.unsafe_get rs.rs_icols pa
          and wb = (Array.unsafe_get rs.rs_rings rib).rg_data
          and xb = Array.unsafe_get rs.rs_icols pb
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (f2_apply k
                 (Array.unsafe_get wa (Array.unsafe_get xa j + oa))
                 (Array.unsafe_get wb (Array.unsafe_get xb j + ob)))
          done)
  in
  let un k =
    let a = bfsrc c preps (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match a with
      | FCol a ->
        fun rs n ->
          let fa = Array.unsafe_get rs.rs_fcols a
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j (f1_apply k (Array.unsafe_get fa j))
          done
      | FInv g ->
        fun rs n ->
          Array.fill (Array.unsafe_get rs.rs_fcols d) 0 n (f1_apply k (g rs)))
  in
  let bini k =
    let a = bisrc c (Ir.Op.operand op 0) in
    let b = bisrc c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | ICol a, ICol b ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (i2_apply k (Array.unsafe_get ia j) (Array.unsafe_get ib j))
          done
      | ICol a, IInv gb -> (
        match k with
        | (I2Div | I2Rem) as k ->
          (* columns here are usually consecutive (derived from the
             induction variable), so the expensive hardware division
             strength-reduces to a carry counter; any lane that breaks
             the progression (or a non-positive divisor) falls back to
             real division, keeping the values bit-identical *)
          fun rs n ->
            let ia = Array.unsafe_get rs.rs_icols a
            and id = Array.unsafe_get rs.rs_icols d in
            let b = gb rs in
            if b > 0 && Array.unsafe_get ia 0 >= 0 then begin
              let v0 = Array.unsafe_get ia 0 in
              let q = ref (v0 / b)
              and r = ref (v0 mod b)
              and prev = ref v0 in
              Array.unsafe_set id 0 (match k with I2Div -> !q | _ -> !r);
              for j = 1 to n - 1 do
                let v = Array.unsafe_get ia j in
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
                Array.unsafe_set id j (match k with I2Div -> !q | _ -> !r)
              done
            end
            else
              for j = 0 to n - 1 do
                Array.unsafe_set id j (i2_apply k (Array.unsafe_get ia j) b)
              done
        | k ->
          fun rs n ->
            let ia = Array.unsafe_get rs.rs_icols a
            and id = Array.unsafe_get rs.rs_icols d in
            let b = gb rs in
            for j = 0 to n - 1 do
              Array.unsafe_set id j (i2_apply k (Array.unsafe_get ia j) b)
            done)
      | IInv ga, ICol b ->
        fun rs n ->
          let ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j (i2_apply k a (Array.unsafe_get ib j))
          done
      | IInv ga, IInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_icols d)
            0 n
            (i2_apply k (ga rs) (gb rs)))
  in
  let cmpi k =
    let a = bisrc c (Ir.Op.operand op 0) in
    let b = bisrc c (Ir.Op.operand op 1) in
    let d = bind_icol c (Ir.Op.result op 0) in
    finish
      (match (a, b) with
      | ICol a, ICol b ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k (Array.unsafe_get ia j) (Array.unsafe_get ib j)
               then 1
               else 0)
          done
      | ICol a, IInv gb ->
        fun rs n ->
          let ia = Array.unsafe_get rs.rs_icols a
          and id = Array.unsafe_get rs.rs_icols d in
          let b = gb rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k (Array.unsafe_get ia j) b then 1 else 0)
          done
      | IInv ga, ICol b ->
        fun rs n ->
          let ib = Array.unsafe_get rs.rs_icols b
          and id = Array.unsafe_get rs.rs_icols d in
          let a = ga rs in
          for j = 0 to n - 1 do
            Array.unsafe_set id j
              (if icmp_apply k a (Array.unsafe_get ib j) then 1 else 0)
          done
      | IInv ga, IInv gb ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_icols d)
            0 n
            (if icmp_apply k (ga rs) (gb rs) then 1 else 0))
  in
  match Ir.Op.name op with
  | "arith.constant" -> (
    (* folded into the pools, as [compile_op] folds it; the value stays
       out of [c.cols], so operand resolution sees it as a
       loop-invariant register (the "constants hoisted" fast path) *)
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f ->
      c.const_f.(fslot c (Ir.Op.result op 0)) <- f;
      None
    | Attr.Int i ->
      c.const_i.(islot c (Ir.Op.result op 0)) <- i;
      None
    | _ -> raise Not_batchable)
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
    let cnd = bisrc c (Ir.Op.operand op 0) in
    match slot_exn c (Ir.Op.result op 0) with
    | KF _ -> (
      let a = bfsrc c preps (Ir.Op.operand op 1) in
      let b = bfsrc c preps (Ir.Op.operand op 2) in
      let d = bind_fcol c (Ir.Op.result op 0) in
      match cnd with
      | IInv g ->
        (* lane-uniform condition: pick a side once per block *)
        let copy = function
          | FCol s ->
            fun rs n ->
              Array.blit
                (Array.unsafe_get rs.rs_fcols s)
                0
                (Array.unsafe_get rs.rs_fcols d)
                0 n
          | FInv gs ->
            fun rs n ->
              Array.fill (Array.unsafe_get rs.rs_fcols d) 0 n (gs rs)
        in
        let ca = copy a and cb = copy b in
        finish (fun rs n -> if g rs <> 0 then ca rs n else cb rs n)
      | ICol cc ->
        finish
          (match (a, b) with
          | FCol a, FCol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fa = Array.unsafe_get rs.rs_fcols a
              and fb = Array.unsafe_get rs.rs_fcols b
              and fd = Array.unsafe_get rs.rs_fcols d in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get fa j
                   else Array.unsafe_get fb j)
              done
          | FCol a, FInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fa = Array.unsafe_get rs.rs_fcols a
              and fd = Array.unsafe_get rs.rs_fcols d in
              let b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get fa j
                   else b)
              done
          | FInv ga, FCol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fb = Array.unsafe_get rs.rs_fcols b
              and fd = Array.unsafe_get rs.rs_fcols d in
              let a = ga rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then a
                   else Array.unsafe_get fb j)
              done
          | FInv ga, FInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and fd = Array.unsafe_get rs.rs_fcols d in
              let a = ga rs and b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set fd j
                  (if Array.unsafe_get ic j <> 0 then a else b)
              done))
    | KI _ -> (
      let a = bisrc c (Ir.Op.operand op 1) in
      let b = bisrc c (Ir.Op.operand op 2) in
      let d = bind_icol c (Ir.Op.result op 0) in
      match cnd with
      | IInv g ->
        let copy = function
          | ICol s ->
            fun rs n ->
              Array.blit
                (Array.unsafe_get rs.rs_icols s)
                0
                (Array.unsafe_get rs.rs_icols d)
                0 n
          | IInv gs ->
            fun rs n -> Array.fill (Array.unsafe_get rs.rs_icols d) 0 n (gs rs)
        in
        let ca = copy a and cb = copy b in
        finish (fun rs n -> if g rs <> 0 then ca rs n else cb rs n)
      | ICol cc ->
        finish
          (match (a, b) with
          | ICol a, ICol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ia = Array.unsafe_get rs.rs_icols a
              and ib = Array.unsafe_get rs.rs_icols b
              and id = Array.unsafe_get rs.rs_icols d in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get ia j
                   else Array.unsafe_get ib j)
              done
          | ICol a, IInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ia = Array.unsafe_get rs.rs_icols a
              and id = Array.unsafe_get rs.rs_icols d in
              let b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then Array.unsafe_get ia j
                   else b)
              done
          | IInv ga, ICol b ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and ib = Array.unsafe_get rs.rs_icols b
              and id = Array.unsafe_get rs.rs_icols d in
              let a = ga rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then a
                   else Array.unsafe_get ib j)
              done
          | IInv ga, IInv gb ->
            fun rs n ->
              let ic = Array.unsafe_get rs.rs_icols cc
              and id = Array.unsafe_get rs.rs_icols d in
              let a = ga rs and b = gb rs in
              for j = 0 to n - 1 do
                Array.unsafe_set id j
                  (if Array.unsafe_get ic j <> 0 then a else b)
              done))
    | _ -> raise Not_batchable)
  | "hls.pipeline" | "hls.unroll" | "hls.array_partition" -> None
  | "scf.yield" -> None
  | "hls.read" -> (
    let ri = ring_idx c (Ir.Op.operand op 0) in
    if List.mem_assoc ri !reads then raise Not_batchable;
    match slot_exn c (Ir.Op.result op 0) with
    | KF _ ->
      reads := (ri, 1) :: !reads;
      let d = bind_fcol c (Ir.Op.result op 0) in
      finish (fun rs n ->
          (* the block driver checked availability up front *)
          let r = Array.unsafe_get rs.rs_rings ri in
          Array.blit r.rg_data r.rg_head (Array.unsafe_get rs.rs_fcols d) 0 n;
          r.rg_head <- r.rg_head + n;
          r.rg_len <- r.rg_len - n)
    | KV s -> (
      match c.ring_win.(ri) with
      | Some win when Array.length win.wn_pdelta = c.vec_w.(s) ->
        let w = c.vec_w.(s) in
        reads := (ri, w) :: !reads;
        let pc = new_icol c in
        Hashtbl.replace c.vec_ring s (ri, pc, win);
        Hashtbl.replace c.cols (Ir.Value.id (Ir.Op.result op 0)) (KV s);
        (* no materialisation: record the block's padded indices and
           let extracted lanes read the window at an offset from them *)
        finish (fun rs n ->
            let r = Array.unsafe_get rs.rs_rings ri in
            window_pidx win (r.rg_head / w) (Array.unsafe_get rs.rs_icols pc) n;
            r.rg_head <- r.rg_head + (n * w);
            r.rg_len <- r.rg_len - (n * w))
      | _ -> raise Not_batchable)
    | _ -> raise Not_batchable)
  | "llvm.extractvalue" -> (
    match
      ( Hashtbl.find_opt c.cols (Ir.Value.id (Ir.Op.operand op 0)),
        Ir.Op.get_attr_exn op "indices" )
    with
    | Some (KV s), Attr.Ints [ i ] ->
      let ri, pc, win =
        match Hashtbl.find_opt c.vec_ring s with
        | Some (ri, pc, win) when i >= 0 && i < Array.length win.wn_pdelta ->
          (ri, pc, win)
        | _ -> raise Not_batchable
      in
      (* no step at all: the lane stays in the window and consumers read
         it in place (arithmetic directly, anything else through a
         one-time gather in [bfsrc]) *)
      Hashtbl.replace c.cols
        (Ir.Value.id (Ir.Op.result op 0))
        (KS (ri, pc, win.wn_pdelta.(i)));
      None
    | _ -> raise Not_batchable)
  | "hls.write" -> (
    let ri = ring_idx c (Ir.Op.operand op 1) in
    if List.mem ri !writes then raise Not_batchable;
    writes := ri :: !writes;
    match bfsrc c preps (Ir.Op.operand op 0) with
    | FCol s ->
      finish (fun rs n ->
          ring_push_blit
            (Array.unsafe_get rs.rs_rings ri)
            (Array.unsafe_get rs.rs_fcols s)
            0 n)
    | FInv g ->
      finish (fun rs n ->
          let r = Array.unsafe_get rs.rs_rings ri in
          ring_reserve r n;
          Array.fill r.rg_data (r.rg_head + r.rg_len) n (g rs);
          r.rg_len <- r.rg_len + n))
  | "llvm.getelementptr" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_pcol c (Ir.Op.result op 0) in
    match
      (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
    with
    | [], 2 ->
      let k = bisrc c (Ir.Op.operand op 1) in
      finish
        (match (s, k) with
        | PInv s, ICol k ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            let o = Array.unsafe_get rs.rs_poff s in
            let ko = Array.unsafe_get rs.rs_icols k
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (o + Array.unsafe_get ko j)
            done
        | PInv s, IInv g ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            Array.fill
              (Array.unsafe_get rs.rs_pcols_off d)
              0 n
              (Array.unsafe_get rs.rs_poff s + g rs)
        | PCol s, ICol k ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let os = Array.unsafe_get rs.rs_pcols_off s
            and ko = Array.unsafe_get rs.rs_icols k
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j
                (Array.unsafe_get os j + Array.unsafe_get ko j)
            done
        | PCol s, IInv g ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let delta = g rs in
            let os = Array.unsafe_get rs.rs_pcols_off s
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (Array.unsafe_get os j + delta)
            done)
    | idx, 1 ->
      let delta = List.fold_left ( + ) 0 idx in
      finish
        (match s with
        | PInv s ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d (Array.unsafe_get rs.rs_pbase s);
            Array.fill
              (Array.unsafe_get rs.rs_pcols_off d)
              0 n
              (Array.unsafe_get rs.rs_poff s + delta)
        | PCol s ->
          fun rs n ->
            Array.unsafe_set rs.rs_pcols_base d
              (Array.unsafe_get rs.rs_pcols_base s);
            let os = Array.unsafe_get rs.rs_pcols_off s
            and od = Array.unsafe_get rs.rs_pcols_off d in
            for j = 0 to n - 1 do
              Array.unsafe_set od j (Array.unsafe_get os j + delta)
            done)
    | _ -> raise Not_batchable)
  | "llvm.load" -> (
    let s = bpsrc c (Ir.Op.operand op 0) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    finish
      (match s with
      | PCol s ->
        fun rs n ->
          let base = Array.unsafe_get rs.rs_pcols_base s
          and off = Array.unsafe_get rs.rs_pcols_off s
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j
              (Array.unsafe_get base (Array.unsafe_get off j))
          done
      | PInv s ->
        fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (Array.unsafe_get
               (Array.unsafe_get rs.rs_pbase s)
               (Array.unsafe_get rs.rs_poff s))))
  | "memref.load" -> (
    let m = bpsrc c (Ir.Op.operand op 0) in
    let i = bisrc c (Ir.Op.operand op 1) in
    let d = bind_fcol c (Ir.Op.result op 0) in
    match (m, i) with
    | PInv m, ICol i ->
      finish (fun rs n ->
          let arr = Array.unsafe_get rs.rs_pbase m
          and ic = Array.unsafe_get rs.rs_icols i
          and fd = Array.unsafe_get rs.rs_fcols d in
          for j = 0 to n - 1 do
            Array.unsafe_set fd j arr.(Array.unsafe_get ic j)
          done)
    | PInv m, IInv g ->
      finish (fun rs n ->
          Array.fill
            (Array.unsafe_get rs.rs_fcols d)
            0 n
            (Array.unsafe_get rs.rs_pbase m).(g rs))
    | PCol _, _ -> raise Not_batchable)
  | _ -> raise Not_batchable

(* Attempt to batch one [scf.for] of a compute stage.
   [scalar_body]/[iv_slot] are the per-element compilation of the same
   loop: the loop's steps when the body is not batchable, and the
   replay path when a block's input rings are starved (so the error is
   raised by the read that starves first, at its [Loc]). *)
let compile_for_batched c op ~lb ~ub ~step ~iv_slot ~scalar_body =
  let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
  let iv =
    match Ir.Block.args block with
    | a :: _ -> a
    | [] -> raise Not_batchable
  in
  let reads = ref [] and writes = ref [] in
  let ivc = new_icol c in
  Hashtbl.replace c.cols (Ir.Value.id iv) (KI ivc);
  match
    (let steps =
       List.fold_left
         (fun acc o ->
           match compile_bop c ~reads ~writes o with
           | None -> acc
           | Some step -> step :: acc)
         [] (Ir.Block.ops block)
     in
     Array.of_list (List.rev steps))
  with
  | exception Not_batchable -> None
  | bsteps ->
    c.batched_loops <- c.batched_loops + 1;
    let nb = Array.length bsteps in
    let reads = Array.of_list (List.rev !reads) in
    let nreads = Array.length reads in
    let nscal = Array.length scalar_body in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        let ub = Array.unsafe_get ir ub and st = Array.unsafe_get ir step in
        let ivcol = Array.unsafe_get rs.rs_icols ivc in
        let i = ref (Array.unsafe_get ir lb) in
        while !i < ub do
          let rem = (ub - !i + st - 1) / st in
          let n = if rem < batch_width then rem else batch_width in
          let enough = ref true in
          for k = 0 to nreads - 1 do
            let ri, w = Array.unsafe_get reads k in
            if (Array.unsafe_get rs.rs_rings ri).rg_len < n * w then
              enough := false
          done;
          if !enough then begin
            for j = 0 to n - 1 do
              Array.unsafe_set ivcol j (!i + (j * st))
            done;
            for k = 0 to nb - 1 do
              (Array.unsafe_get bsteps k) rs n
            done;
            i := !i + (n * st)
          end
          else
            (* a starved block: replay the remainder per element, so
               the error is raised by the first read that starves *)
            while !i < ub do
              Array.unsafe_set ir iv_slot !i;
              for k = 0 to nscal - 1 do
                (Array.unsafe_get scalar_body k) rs
              done;
              i := !i + st
            done
        done)

(* Compile one region op into an optional step closure over the run
   state.  Constants are folded straight into the plan's constant pools
   (SSA values never change, and every fresh run state copies the pools
   into its register files, so the fold survives across runs). *)
let rec compile_op c (op : Ir.op) : (run_state -> unit) option =
  let bin f =
    let d = fslot c (Ir.Op.result op 0) in
    match (slot_exn c (Ir.Op.operand op 0), slot_exn c (Ir.Op.operand op 1)) with
    | KF a, KF b ->
      Some
        (fun rs ->
          let fr = rs.rs_fregs in
          Array.unsafe_set fr d
            (f (Array.unsafe_get fr a) (Array.unsafe_get fr b)))
    | _ ->
      let ga = getf c (Ir.Op.operand op 0) and gb = getf c (Ir.Op.operand op 1) in
      Some (fun rs -> Array.unsafe_set rs.rs_fregs d (f (ga rs) (gb rs)))
  in
  let bini f =
    let d = islot c (Ir.Op.result op 0) in
    let a = islot c (Ir.Op.operand op 0) and b = islot c (Ir.Op.operand op 1) in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        Array.unsafe_set ir d
          (f (Array.unsafe_get ir a) (Array.unsafe_get ir b)))
  in
  let un f =
    let d = fslot c (Ir.Op.result op 0) in
    let g = getf c (Ir.Op.operand op 0) in
    Some (fun rs -> Array.unsafe_set rs.rs_fregs d (f (g rs)))
  in
  match Ir.Op.name op with
  | "arith.constant" -> (
    c.folded <- c.folded + 1;
    match Ir.Op.get_attr_exn op "value" with
    | Attr.Float f ->
      c.const_f.(fslot c (Ir.Op.result op 0)) <- f;
      None
    | Attr.Int i ->
      c.const_i.(islot c (Ir.Op.result op 0)) <- i;
      None
    | _ -> Err.raise_error "functional sim: bad constant")
  | "arith.addf" -> bin ( +. )
  | "arith.subf" -> bin ( -. )
  | "arith.mulf" -> bin ( *. )
  | "arith.divf" -> bin ( /. )
  | "arith.maximumf" -> bin Float.max
  | "arith.minimumf" -> bin Float.min
  | "arith.negf" -> un (fun x -> -.x)
  | "arith.addi" -> bini ( + )
  | "arith.subi" -> bini ( - )
  | "arith.muli" -> bini ( * )
  | "arith.divsi" -> bini ( / )
  | "arith.remsi" -> bini (fun a b -> a mod b)
  | "math.sqrt" -> un sqrt
  | "math.exp" -> un exp
  | "math.log" -> un log
  | "math.absf" -> un Float.abs
  | "math.tanh" -> un tanh
  | "math.powf" -> bin ( ** )
  | "arith.cmpi" ->
    let d = islot c (Ir.Op.result op 0) in
    let a = islot c (Ir.Op.operand op 0) and b = islot c (Ir.Op.operand op 1) in
    let p = Attr.str_exn (Ir.Op.get_attr_exn op "predicate") in
    let cmp : int -> int -> bool =
      match p with
      | "slt" -> ( < )
      | "sle" -> ( <= )
      | "sgt" -> ( > )
      | "sge" -> ( >= )
      | "eq" -> ( = )
      | "ne" -> ( <> )
      | _ -> Err.raise_error "functional sim: cmpi predicate %s" p
    in
    Some
      (fun rs ->
        let ir = rs.rs_iregs in
        ir.(d) <- (if cmp ir.(a) ir.(b) then 1 else 0))
  | "arith.select" -> (
    let cnd = islot c (Ir.Op.operand op 0) in
    match slot_exn c (Ir.Op.result op 0) with
    | KF d ->
      let a = fslot c (Ir.Op.operand op 1) and b = fslot c (Ir.Op.operand op 2) in
      Some
        (fun rs ->
          let fr = rs.rs_fregs in
          fr.(d) <- (if rs.rs_iregs.(cnd) <> 0 then fr.(a) else fr.(b)))
    | KI d ->
      let a = islot c (Ir.Op.operand op 1) and b = islot c (Ir.Op.operand op 2) in
      Some
        (fun rs ->
          let ir = rs.rs_iregs in
          ir.(d) <- (if ir.(cnd) <> 0 then ir.(a) else ir.(b)))
    | _ -> Err.raise_error "functional sim: select condition")
  | "hls.pipeline" | "hls.unroll" | "hls.array_partition" -> None
  | "hls.read" -> (
    let ri = ring_idx c (Ir.Op.operand op 0) in
    let loc = Ir.Op.loc op in
    match slot_exn c (Ir.Op.result op 0) with
    | KF d ->
      Some
        (fun rs ->
          let r = Array.unsafe_get rs.rs_rings ri in
          if r.rg_len = 0 then starved loc;
          Array.unsafe_set rs.rs_fregs d (Array.unsafe_get r.rg_data r.rg_head);
          r.rg_head <- r.rg_head + 1;
          r.rg_len <- r.rg_len - 1)
    | KV d -> (
      let w = c.vec_w.(d) in
      match c.ring_win.(ri) with
      | None ->
        (* a stream no shift produces (a mis-wired design) *)
        Some
          (fun rs ->
            let r = Array.unsafe_get rs.rs_rings ri in
            if r.rg_len < w then starved loc;
            Array.blit r.rg_data r.rg_head rs.rs_vecs.(d) 0 w;
            r.rg_head <- r.rg_head + w;
            r.rg_len <- r.rg_len - w)
      | Some win ->
        (* a window token: gather its lanes *)
        let pdelta = win.wn_pdelta and inner = win.wn_inner in
        let nl = min w (Array.length pdelta) in
        Some
          (fun rs ->
            let r = Array.unsafe_get rs.rs_rings ri in
            if r.rg_len < w then starved loc;
            let t = r.rg_head / r.rg_width in
            let p = window_row win (t / inner) + (t mod inner) in
            let buf = r.rg_data and v = rs.rs_vecs.(d) in
            for k = 0 to nl - 1 do
              Array.unsafe_set v k
                (Array.unsafe_get buf (p + Array.unsafe_get pdelta k))
            done;
            r.rg_head <- r.rg_head + w;
            r.rg_len <- r.rg_len - w))
    | _ -> Err.raise_error "functional sim: bad hls.read result")
  | "hls.write" -> (
    let ri = ring_idx c (Ir.Op.operand op 1) in
    match slot_exn c (Ir.Op.operand op 0) with
    | KF s ->
      Some (fun rs -> ring_push rs.rs_rings.(ri) rs.rs_fregs.(s))
    | KV s ->
      let w = c.vec_w.(s) in
      Some (fun rs -> ring_push_blit rs.rs_rings.(ri) rs.rs_vecs.(s) 0 w)
    | _ -> Err.raise_error "functional sim: bad hls.write value")
  | "llvm.extractvalue" -> (
    match (slot_exn c (Ir.Op.operand op 0), Ir.Op.get_attr_exn op "indices") with
    | KV s, Attr.Ints [ i ] ->
      let d = fslot c (Ir.Op.result op 0) in
      Some
        (fun rs ->
          Array.unsafe_set rs.rs_fregs d
            (Array.unsafe_get (Array.unsafe_get rs.rs_vecs s) i))
    | _ -> Err.raise_error "functional sim: bad extractvalue")
  | "llvm.getelementptr" -> (
    let s = pslot c (Ir.Op.operand op 0) in
    let d = pslot c (Ir.Op.result op 0) in
    match
      (Attr.ints_exn (Ir.Op.get_attr_exn op "indices"), Ir.Op.num_operands op)
    with
    | [], 2 ->
      let k = islot c (Ir.Op.operand op 1) in
      Some
        (fun rs ->
          let pb = rs.rs_pbase and po = rs.rs_poff in
          Array.unsafe_set pb d (Array.unsafe_get pb s);
          Array.unsafe_set po d
            (Array.unsafe_get po s + Array.unsafe_get rs.rs_iregs k))
    | idx, 1 ->
      let delta = List.fold_left ( + ) 0 idx in
      Some
        (fun rs ->
          let pb = rs.rs_pbase and po = rs.rs_poff in
          pb.(d) <- pb.(s);
          po.(d) <- po.(s) + delta)
    | _ -> Err.raise_error "functional sim: unsupported gep form")
  | "llvm.load" ->
    let s = pslot c (Ir.Op.operand op 0) in
    let d = fslot c (Ir.Op.result op 0) in
    Some
      (fun rs ->
        Array.unsafe_set rs.rs_fregs d
          (Array.unsafe_get
             (Array.unsafe_get rs.rs_pbase s)
             (Array.unsafe_get rs.rs_poff s)))
  | "llvm.store" ->
    let g = getf c (Ir.Op.operand op 0) in
    let s = pslot c (Ir.Op.operand op 1) in
    Some
      (fun rs ->
        (Array.unsafe_get rs.rs_pbase s).(Array.unsafe_get rs.rs_poff s) <-
          g rs)
  | "memref.alloca" | "memref.alloc" -> (
    match Ir.Value.ty (Ir.Op.result op 0) with
    | Ty.Memref (shape, _) ->
      let size = List.fold_left ( * ) 1 shape in
      let d = pslot c (Ir.Op.result op 0) in
      (* executing the alloca yields a fresh zeroed array on every run;
         the array lives in the run state's pointer file, never in the
         shared plan *)
      Some
        (fun rs ->
          rs.rs_pbase.(d) <- Array.make size 0.0;
          rs.rs_poff.(d) <- 0)
    | _ -> Err.raise_error "functional sim: alloca result not memref")
  | "memref.load" ->
    let m = pslot c (Ir.Op.operand op 0) in
    let i = islot c (Ir.Op.operand op 1) in
    let d = fslot c (Ir.Op.result op 0) in
    Some
      (fun rs ->
        Array.unsafe_set rs.rs_fregs d
          (Array.unsafe_get rs.rs_pbase m).(Array.unsafe_get rs.rs_iregs i))
  | "memref.store" ->
    let g = getf c (Ir.Op.operand op 0) in
    let m = pslot c (Ir.Op.operand op 1) in
    let i = islot c (Ir.Op.operand op 2) in
    Some
      (fun rs -> (Array.unsafe_get rs.rs_pbase m).(rs.rs_iregs.(i)) <- g rs)
  | "scf.for" ->
    let lb = islot c (Ir.Op.operand op 0) in
    let ub = islot c (Ir.Op.operand op 1) in
    let step = islot c (Ir.Op.operand op 2) in
    let block = Ir.Region.entry (List.hd (Ir.Op.regions op)) in
    let iv =
      match Ir.Block.args block with
      | a :: _ -> islot c a
      | [] -> Err.raise_error "functional sim: scf.for without args"
    in
    let body = compile_block c block in
    let nbody = Array.length body in
    let scalar_step rs =
      let ir = rs.rs_iregs in
      let ub = ir.(ub) and step = ir.(step) in
      let i = ref ir.(lb) in
      while !i < ub do
        Array.unsafe_set ir iv !i;
        for k = 0 to nbody - 1 do
          (Array.unsafe_get body k) rs
        done;
        i := !i + step
      done
    in
    Some
      (Option.value ~default:scalar_step
         (compile_for_batched c op ~lb ~ub ~step ~iv_slot:iv ~scalar_body:body))
  | "scf.yield" -> None
  | name -> Err.raise_error "functional sim: unsupported op %s" name

and compile_block c block =
  Ir.Block.ops block
  |> List.filter_map (fun o -> compile_op c o)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Structural stages (the native runtime: load_data, shift_buffer,
   duplicate, write_data on ring buffers) *)

let design_ring_idx ring_index id =
  match Hashtbl.find_opt ring_index id with
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
   input once, row by row, into the window's padded buffer (allocated
   with its NaN pad on the first run and reused after).  The output
   ring then queues [total] tokens of [width] floats, as a stream of
   vector tokens would. *)
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
    if Array.length outring.rg_pad = 0 then
      outring.rg_pad <- Array.make win.wn_size Float.nan;
    let buf = outring.rg_pad and src = inring.rg_data and h = inring.rg_head in
    for row = 0 to (total / inner) - 1 do
      Array.blit src (h + (row * inner)) buf (window_row win row) inner
    done;
    outring.rg_data <- buf;
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
(* Whole-design compilation *)

let stream_width (s : Design.stream) =
  match s.Design.st_elem with
  | Ty.Array (n, _) -> n
  | Ty.Struct ts -> List.length ts
  | _ -> 1

let plan_id_counter = Atomic.make 0

let compile (d : Design.t) : t =
  Atomic.incr compile_counter;
  (* every shift outputs a window, and so does a dup of a window; every
     dup output borrows its input's buffer *)
  let windows = Hashtbl.create 8 and borrowed = Hashtbl.create 8 in
  List.iter
    (fun stage ->
      match stage with
      | Design.Shift { output; halo; extent; _ } ->
        Hashtbl.replace windows output (window_of ~halo ~extent);
        Hashtbl.replace borrowed output ()
      | Design.Dup { input; outputs } ->
        List.iter
          (fun o ->
            Hashtbl.replace borrowed o ();
            Option.iter (Hashtbl.replace windows o)
              (Hashtbl.find_opt windows input))
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
          rd_borrowed = Hashtbl.mem borrowed id;
          rd_win = Hashtbl.find_opt windows id;
        })
      d.d_streams
    |> List.sort (fun a b -> Int.compare a.rd_stream b.rd_stream)
    |> Array.of_list
  in
  let ring_index = Hashtbl.create 32 in
  Array.iteri
    (fun i rd -> Hashtbl.replace ring_index rd.rd_stream i)
    ring_descs;
  (* slot allocation: kernel arguments plus every compute-stage region *)
  let al =
    {
      slots = Hashtbl.create 256;
      nf = 0;
      ni = 0;
      np = 0;
      vec_widths = [];
      nv = 0;
    }
  in
  let body = Ir.Region.entry (List.hd (Ir.Op.regions d.d_func)) in
  let func_args = Ir.Block.args body in
  List.iter (alloc_value al) func_args;
  List.iter
    (fun stage ->
      match stage with
      | Design.Compute c -> alloc_op al c.df_op
      | _ -> ())
    d.d_stages;
  let c =
    {
      al;
      const_f = Array.make (max 1 al.nf) 0.0;
      const_i = Array.make (max 1 al.ni) 0;
      vec_w = Array.of_list (List.rev al.vec_widths);
      ring_index;
      ring_win = Array.map (fun rd -> rd.rd_win) ring_descs;
      folded = 0;
      cols = Hashtbl.create 64;
      vec_ring = Hashtbl.create 8;
      nfc = 0;
      nic = 0;
      npc = 0;
      batched_loops = 0;
    }
  in
  (* argument binding: resolve each kernel argument to its slot once *)
  let binders =
    List.mapi
      (fun i v ->
        match Hashtbl.find_opt al.slots (Ir.Value.id v) with
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
  (* stage steps, in the design's topological order *)
  let n_steps = ref 0 in
  let steps =
    List.map
      (fun stage ->
        match stage with
        | Design.Load { out_streams; ptr_args } ->
          load_stage ring_index d ~out_streams ~ptr_args
        | Design.Shift { input; output; _ } ->
          shift_stage ring_index (Hashtbl.find windows output)
            ~input ~output
        | Design.Dup { input; outputs } ->
          dup_stage ring_index ~input ~outputs
        | Design.Compute cc ->
          let body = compile_block c (Hls.dataflow_body cc.df_op) in
          n_steps := !n_steps + Array.length body;
          let nbody = Array.length body in
          fun rs ->
            for k = 0 to nbody - 1 do
              (Array.unsafe_get body k) rs
            done
        | Design.Write { in_streams; ptr_args; halo; extent } ->
          write_stage ring_index ~in_streams ~ptr_args ~halo ~extent)
      d.d_stages
    |> Array.of_list
  in
  {
    pl_id = Atomic.fetch_and_add plan_id_counter 1;
    pl_design = d;
    pl_ring_descs = ring_descs;
    pl_const_f = c.const_f;
    pl_const_i = c.const_i;
    pl_np = al.np;
    pl_vec_widths = c.vec_w;
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
        cs_vregs = al.nv;
        cs_steps = !n_steps;
        cs_folded = c.folded;
        cs_batched = c.batched_loops;
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
  (* a failed previous run may have left tokens queued *)
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
