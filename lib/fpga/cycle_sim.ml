(* Token-level cycle simulation of an extracted design.

   Simulates the dataflow network cycle by cycle with *bounded* FIFOs and
   back-pressure — the behaviour the paper's Figure 3 structure exhibits
   in hardware.  Tokens are counted, not valued (numerics are the
   functional simulator's job); what this measures is timing: fill
   latency, steady-state initiation interval, and completion cycles, plus
   deadlock detection (the StencilFlow failure mode reported in the
   paper's evaluation).

   Firing rules per stage and cycle:
     load     pushes up to 8 elements per output stream (512-bit words)
     shift    consumes 1 element; emits neighbourhood n once element
              n + lookahead has been consumed (or the input is exhausted)
     dup      moves 1 element to all copies when all have space
     compute  starts one iteration per II when every input has a token
              and the result (after a pipeline latency) fits downstream
     write    retires 1 element per stream per cycle

   The engine applies those rules to one integer state vector and skips
   whole runs of cycles in closed form.  Fill, steady state, drain,
   compute pipelines filling or draining and pipeline-latency waits are
   all affine phases: the same stages fire the same way every p cycles,
   so every FIFO occupancy and counter moves by a constant delta per
   period until some firing guard flips.  The engine jumps straight to
   the period before that flip, stepping only the few cycles between
   phases.  Cycle counts, deadlock verdicts and
   tracer-visible occupancy sequences are identical to firing every
   stage every cycle: the differential suite (test/test_cycle_engines.ml)
   checks them against exactly that loop, kept with the tests as the
   oracle. *)

type result = {
  cycles : int;
  deadlocked : bool;
  stalled_stage : string option; (* where progress stopped, if deadlocked *)
  progress : (string * int * int) list; (* stage, tokens done, target *)
  fifo_occupancy : (int * int * int) list; (* stream, occ, cap (at end) *)
  cycles_simulated : int; (* cycles advanced one at a time *)
  cycles_fast_forwarded : int; (* cycles covered in closed form *)
  ss_period : (int * int) option;
      (* detected steady state: (period cycles, write retirements/period) *)
}

let max_cycles_factor = 64

let check_has_write (d : Design.t) =
  if
    not
      (List.exists
         (fun s -> match s with Design.Write _ -> true | _ -> false)
         d.d_stages)
  then Err.raise_error "cycle sim: design has no write_data stage"

(* ------------------------------------------------------------------ *)
(* The engine.

   State vector.  Every FIFO occupancy and every monotone counter (load's
   remaining words, shift consumed/produced, dup moved, compute
   started/retired, write retired) is one slot of the int array [x]; its
   last slot is always 0.  Stages hold slot indices.  A compute's
   in-flight count is started - retired, so it is affine too.  What [x]
   leaves out is each compute's time state: the cycle of its last start
   and the ready cycles of its in-flight iterations, a ring whose entries
   are never rewritten once pushed.

   Guards.  Every comparison a stage makes while firing is normalised to
   [v >= 0], with v affine in the state, and logged as v and the slot
   pair (a, b): one period moves v by delta.(a) - delta.(b).  Load's
   burst, min 8 (remaining, cap - occ), logs each term's distance from
   the burst taken and the binding term's equality with it, so the burst
   size cannot change unnoticed.  A compute's II distance is logged against
   its [age_start] slot of [delta], its head's readiness against its
   [age_head] slot, and whether anything is in flight against
   started - retired.

   Affine jump.  After every stepped cycle c, for each lag p <= 8, the
   engine screens the period c-p..c, cheapest test first, and builds
   delta = x(c) - x(c - p) only for a lag that passes:
   - c - p must be a stepped cycle of the history ring;
   - per compute, from its started/retired deltas ds and dr alone: one
     that starts (ds > 0) must have the same II distance (clamped at ii)
     at c and c - p, so its starts recur, and if it also retires it must
     retire as many (hold as many in flight);
   - per retiring compute, the dearest test: the queue at c must read,
     relative to c, as the queue at c - p read relative to c - p, on
     every entry the queue at c holds (ready offsets clamped at 0).
   A compute that does not start ages its II distance by p per period;
   one that does not retire keeps the same head, whose readiness ages by
   p per period: [age_start] and [age_head] carry those p's.  So a
   frozen compute, a filling pipeline (starts, no retirements) and a
   draining one (retirements, no starts) all ride the jump beside the
   periodic ones.  By determinism the next period replays the last one's
   firings, with every intermediate state (within a cycle too, since the
   guards were logged where they were evaluated) shifted by delta — as
   long as every guard logged in the last p cycles keeps its truth value.
   The k-th next period sees v + k * delta_v, linear in k, so each guard
   bounds the number of whole periods n it survives, and the jump applies
   the smallest bound (and the cycle budget): x += n * delta and the
   clock moves by n * p; a starting compute's last start moves with the
   clock and its queue gains the last period's starts, repeated n times
   p cycles apart; a retiring compute's head moves n * dr entries on.
   Fill, steady state, drain and pure pipeline-latency waits are such
   phases.  The steady state is the case where occupancy, held-count and
   in-flight deltas are zero — the bounded state repeats — and the first
   such period with writes moving is reported as [ss_period]. *)

type compute = {
  c_fins : int array;
  c_fouts : int array; (* one per serial pass *)
  started : int;
  retired : int;
  age_start : int;
  age_head : int;
      (* slots of [delta] past the state vector: p when the compute does
         not start (resp. retire) in the period, else 0 *)
  ii : int;
  latency : int;
  total : int;
  per_pass : int;
  passes : int;
  (* in-flight ready cycles as a power-of-two ring: the queue is
     q_buf.(q_head ..) of length started - retired.  The ring keeps
     p_max + 1 slots spare, so an entry live in the last p_max cycles is
     still where the history ring saw it; it grows (rarely: only while
     retirement is blocked) when a push would break that *)
  mutable q_buf : int array;
  mutable q_mask : int;
  mutable q_head : int;
  mutable last_start : int;
}

type estage =
  (* every [int] below that is not a parameter is a slot of [x] *)
  | E_load of { outs : int array; rem : int array }
  | E_shift of {
      fin : int;
      fout : int;
      cons : int;
      prod : int;
      lookahead : int;
      window : int;
    }
  | E_dup of { d_fin : int; d_fouts : int array; moved : int }
  | E_compute of compute
  | E_write of { w_fins : int array; w_ret : int array }

(* the longest period the jump tries *)
let p_max = 8

(* a guard's two slots share one word of the log *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1

(* the guard log of the cycle being fired: (v, packed slot pair) words *)
type glog = { mutable buf : int array; mutable len : int }

let[@inline] note lg v a b =
  let i = lg.len and buf = lg.buf in
  buf.(i) <- v;
  buf.(i + 1) <- (a lsl slot_bits) lor b;
  lg.len <- i + 2

let[@inline] guard lg v a b =
  note lg v a b;
  v >= 0

let ring_for need =
  let n = ref 1 in
  while !n < need do
    n := !n * 2
  done;
  !n

let run ?on_cycle (d : Design.t) =
  check_has_write d;
  let total = Design.total_padded d in
  let nstreams = List.length d.d_streams in
  (* stream id -> its occupancy slot, which is its position *)
  let fifos = Hashtbl.create 32 in
  List.iteri
    (fun i (s : Design.stream) -> Hashtbl.replace fifos s.st_id i)
    d.d_streams;
  let cap =
    Array.of_list (List.map (fun (s : Design.stream) -> s.st_depth) d.d_streams)
  in
  let fifo id =
    match Hashtbl.find_opt fifos id with
    | Some i -> i
    | None -> Err.raise_error "cycle sim: unknown stream %d" id
  in
  let fifos_of ids = Array.of_list (List.map fifo ids) in
  (* slots: occupancies, then each stage's counters, then the 0 slot;
     [delta] adds two aging slots per compute past those *)
  let nx =
    List.fold_left
      (fun n stage ->
        n
        +
        match stage with
        | Design.Load { out_streams = l; _ }
        | Design.Write { in_streams = l; _ } ->
          List.length l
        | Design.Shift _ -> 2
        | Design.Dup _ -> 1
        | Design.Compute _ -> 2)
      (nstreams + 1) d.d_stages
  in
  let z = nx - 1 (* the slot that stays 0 *) in
  let next_slot = ref nstreams and next_age = ref nx in
  let counter () =
    let i = !next_slot in
    incr next_slot;
    i
  in
  let counters n = Array.init n (fun _ -> counter ()) in
  let stages = Array.of_list d.d_stages in
  let est =
    Array.map
      (fun stage ->
        match stage with
        | Design.Load { out_streams; _ } ->
          let outs = fifos_of out_streams in
          E_load { outs; rem = counters (Array.length outs) }
        | Design.Shift { input; output; halo; extent; _ } ->
          let la = Design.shift_lookahead ~halo ~extent in
          let cons = counter () in
          let prod = counter () in
          E_shift
            {
              fin = fifo input;
              fout = fifo output;
              cons;
              prod;
              lookahead = la;
              window = (2 * la) + 1;
            }
        | Design.Dup { input; outputs } ->
          let d_fouts = fifos_of outputs in
          E_dup { d_fin = fifo input; d_fouts; moved = counter () }
        | Design.Compute c ->
          let latency = 8 + c.flops in
          let qcap = ring_for (latency + p_max + 2) in
          let started = counter () in
          let retired = counter () in
          let age_start = !next_age in
          next_age := age_start + 2;
          E_compute
            {
              c_fins = fifos_of c.in_streams;
              c_fouts = fifos_of c.out_streams;
              started;
              retired;
              age_start;
              age_head = age_start + 1;
              ii = c.ii;
              latency;
              total = c.serial * total;
              per_pass = total;
              passes = List.length c.out_streams;
              q_buf = Array.make qcap 0;
              q_mask = qcap - 1;
              q_head = 0;
              last_start = -1_000_000;
            }
        | Design.Write { in_streams; _ } ->
          let w_fins = fifos_of in_streams in
          E_write { w_fins; w_ret = counters (Array.length w_fins) })
      stages
  in
  let comps =
    Array.of_list
      (List.filter_map
         (function E_compute cc -> Some cc | _ -> None)
         (Array.to_list est))
  in
  let ncomp = Array.length comps in
  let x = Array.make nx 0 in
  let write_rets =
    Array.concat
      (Array.to_list
         (Array.map (function E_write w -> w.w_ret | _ -> [||]) est))
  in
  Array.iter
    (function E_load l -> Array.iter (fun r -> x.(r) <- total) l.rem | _ -> ())
    est;
  (* write ports still short of [total]: the run is complete at 0 *)
  let open_ports = ref (Array.length write_rets) in
  let recount_open () =
    open_ports :=
      Array.fold_left
        (fun n r -> if x.(r) < total then n + 1 else n)
        0 write_rets
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let stalled = ref None in
  let fast_forwarded = ref 0 in
  let ss_period = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  (* per-period change of x over the period being tried, then each
     compute's two aging slots *)
  let delta = Array.make (nx + (2 * ncomp)) 0 in
  (* the tracer's view of occupancies: those of [y], moved by k periods *)
  let occs_of y k =
    Hashtbl.fold (fun id i acc -> (id, y.(i) + (k * delta.(i))) :: acc) fifos []
  in
  (* history ring over the last p_max+1 stepped cycles: time, state
     vector, each compute's queue head and last start, and guard log *)
  let hcap = p_max + 1 in
  let max_guards =
    Array.fold_left
      (fun acc st ->
        acc
        +
        match st with
        | E_load l -> 3 * Array.length l.outs
        | E_shift _ -> 7
        | E_dup du -> 2 + Array.length du.d_fouts
        | E_compute cc -> 6 + Array.length cc.c_fins
        | E_write w -> 2 * Array.length w.w_fins)
      0 est
  in
  let h_time = Array.make hcap (-1) in
  let h_x = Array.init hcap (fun _ -> Array.make nx 0) in
  let h_sig = Array.init hcap (fun _ -> Array.make (2 * ncomp) 0) in
  let h_guards = Array.init hcap (fun _ -> Array.make (2 * max_guards) 0) in
  let h_nguards = Array.make hcap 0 in
  let hlen = ref 0 in
  let lg = { buf = h_guards.(0); len = 0 } in
  let rec all_room outs i =
    i = Array.length outs
    ||
    let o = outs.(i) in
    guard lg (cap.(o) - 1 - x.(o)) z o && all_room outs (i + 1)
  in
  let rec all_tokens ins i =
    i = Array.length ins
    ||
    let o = ins.(i) in
    guard lg (x.(o) - 1) o z && all_tokens ins (i + 1)
  in
  (* make room for [need] queue entries; moved entries invalidate the
     history's view of the ring *)
  let reserve cc need =
    if need > Array.length cc.q_buf then begin
      let b = Array.make (ring_for need) 0 in
      for j = 0 to x.(cc.started) - x.(cc.retired) - 1 do
        b.(j) <- cc.q_buf.((cc.q_head + j) land cc.q_mask)
      done;
      cc.q_buf <- b;
      cc.q_mask <- Array.length b - 1;
      cc.q_head <- 0;
      hlen := 0
    end
  in
  let fire_compute c cc =
    if
      guard lg (cc.total - 1 - x.(cc.started)) z cc.started
      && all_tokens cc.c_fins 0
      && guard lg (c - cc.last_start - cc.ii) cc.age_start z
    then begin
      for i = 0 to Array.length cc.c_fins - 1 do
        let o = cc.c_fins.(i) in
        x.(o) <- x.(o) - 1
      done;
      let q = x.(cc.started) - x.(cc.retired) in
      reserve cc (q + p_max + 2);
      cc.q_buf.((cc.q_head + q) land cc.q_mask) <- c + cc.latency;
      x.(cc.started) <- x.(cc.started) + 1;
      cc.last_start <- c;
      progressed := true
    end;
    if guard lg (x.(cc.started) - x.(cc.retired) - 1) cc.started cc.retired then
      if guard lg (c - cc.q_buf.(cc.q_head)) cc.age_head z then begin
        let pass = x.(cc.retired) / cc.per_pass in
        let phase =
          if pass >= cc.passes - 1 then cc.passes - 1
          else begin
            (* the retirement that moves on to the next pass *)
            note lg (x.(cc.retired) - ((pass + 1) * cc.per_pass)) cc.retired z;
            pass
          end
        in
        let o = cc.c_fouts.(phase) in
        if guard lg (cap.(o) - 1 - x.(o)) z o then begin
          x.(o) <- x.(o) + 1;
          x.(cc.retired) <- x.(cc.retired) + 1;
          cc.q_head <- (cc.q_head + 1) land cc.q_mask;
          progressed := true
        end
      end
      else progressed := true
  in
  (* one stepped cycle: every stage fires once, in stage order *)
  let fire () =
    let c = !cycle in
    lg.buf <- h_guards.(c mod hcap);
    lg.len <- 0;
    for si = 0 to Array.length est - 1 do
      match est.(si) with
      | E_load l ->
        for i = 0 to Array.length l.outs - 1 do
          let o = l.outs.(i) and r = l.rem.(i) in
          let left = x.(r) and room = cap.(o) - x.(o) in
          let burst = min 8 (min left room) in
          note lg (left - burst) r z;
          note lg (room - burst) z o;
          if burst < 8 then
            if left = burst then note lg 0 z r else note lg 0 o z;
          if burst > 0 then begin
            x.(o) <- x.(o) + burst;
            x.(r) <- left - burst;
            progressed := true
          end
        done
      | E_shift s ->
        if
          guard lg (total - 1 - x.(s.cons)) z s.cons
          && guard lg (x.(s.fin) - 1) s.fin z
          && guard lg (s.window - 1 - (x.(s.cons) - x.(s.prod))) s.prod s.cons
        then begin
          x.(s.fin) <- x.(s.fin) - 1;
          x.(s.cons) <- x.(s.cons) + 1;
          progressed := true
        end;
        if
          guard lg (total - 1 - x.(s.prod)) z s.prod
          && (guard lg (x.(s.cons) - x.(s.prod) - s.lookahead - 1) s.cons s.prod
             || guard lg (x.(s.cons) - total) s.cons z)
          && guard lg (cap.(s.fout) - 1 - x.(s.fout)) z s.fout
        then begin
          x.(s.fout) <- x.(s.fout) + 1;
          x.(s.prod) <- x.(s.prod) + 1;
          progressed := true
        end
      | E_dup du ->
        if
          guard lg (total - 1 - x.(du.moved)) z du.moved
          && guard lg (x.(du.d_fin) - 1) du.d_fin z
          && all_room du.d_fouts 0
        then begin
          x.(du.d_fin) <- x.(du.d_fin) - 1;
          for i = 0 to Array.length du.d_fouts - 1 do
            let o = du.d_fouts.(i) in
            x.(o) <- x.(o) + 1
          done;
          x.(du.moved) <- x.(du.moved) + 1;
          progressed := true
        end
      | E_compute cc -> fire_compute c cc
      | E_write w ->
        for i = 0 to Array.length w.w_fins - 1 do
          let o = w.w_fins.(i) and r = w.w_ret.(i) in
          if guard lg (total - 1 - x.(r)) z r && guard lg (x.(o) - 1) o z
          then begin
            x.(o) <- x.(o) - 1;
            x.(r) <- x.(r) + 1;
            if x.(r) = total then decr open_ports;
            progressed := true
          end
        done
    done
  in
  let record_history c =
    let slot = c mod hcap in
    let sg = h_sig.(slot) in
    for i = 0 to ncomp - 1 do
      let cc = comps.(i) in
      sg.(2 * i) <- cc.q_head;
      sg.((2 * i) + 1) <- cc.last_start
    done;
    h_time.(slot) <- c;
    h_nguards.(slot) <- lg.len;
    Array.blit x 0 h_x.(slot) 0 nx;
    if !hlen < hcap then incr hlen
  in
  (* the screen on lag p (history slots cur = c, prev = c - p), in
     increasing cost: counters and last starts first, queues last *)
  let screen c p cur prev =
    let xc = h_x.(cur) and xp = h_x.(prev) in
    let sc = h_sig.(cur) and sp = h_sig.(prev) in
    let ok = ref true and i = ref 0 in
    while !ok && !i < ncomp do
      let cc = comps.(!i) in
      let ds = xc.(cc.started) - xp.(cc.started)
      and dr = xc.(cc.retired) - xp.(cc.retired) in
      if
        ds > 0
        && ((dr > 0 && ds <> dr)
           || min (c - sc.((2 * !i) + 1)) cc.ii
              <> min (c - p - sp.((2 * !i) + 1)) cc.ii)
      then ok := false;
      incr i
    done;
    i := 0;
    while !ok && !i < ncomp do
      let cc = comps.(!i) in
      if xc.(cc.retired) > xp.(cc.retired) then begin
        let hc = sc.(2 * !i) and hp = sp.(2 * !i) in
        let j = ref 0 and m = xc.(cc.started) - xc.(cc.retired) in
        while !ok && !j < m do
          let a = cc.q_buf.((hc + !j) land cc.q_mask) - c
          and b = cc.q_buf.((hp + !j) land cc.q_mask) - (c - p) in
          if a <> b && (a > 0 || b > 0) then ok := false;
          incr j
        done
      end;
      incr i
    done;
    !ok
  in
  (* whole periods for which every guard logged in cycles c-p+1..c keeps
     its truth value, period k seeing v + k * (delta.(a) - delta.(b)) *)
  let periods_bound c p =
    let n = ref max_int in
    let t = ref c in
    while !n > 0 && !t > c - p do
      let slot = !t mod hcap in
      let g = h_guards.(slot) in
      let i = ref 0 in
      while !n > 0 && !i < h_nguards.(slot) do
        let v = g.(!i) and ab = g.(!i + 1) in
        let dv = delta.(ab lsr slot_bits) - delta.(ab land slot_mask) in
        (* a guard that holds flips once v + k * dv < 0, one that fails
           once v + k * dv >= 0; a unit step (most of them) needs no
           division *)
        let b =
          if v >= 0 then
            if dv >= 0 then max_int else if dv = -1 then v else v / -dv
          else if dv <= 0 then max_int
          else if dv = 1 then -v - 1
          else (-v - 1) / dv
        in
        if b < !n then n := b;
        i := !i + 2
      done;
      decr t
    done;
    !n
  in
  (* the first period whose bounded state (occupancies, held counts,
     in-flight counts, time state) repeats: write retirements per
     period, for the model's fill/steady cross-check *)
  let note_steady p =
    let repeats = ref true and writes = ref 0 in
    for i = 0 to nstreams - 1 do
      if delta.(i) <> 0 then repeats := false
    done;
    Array.iter
      (function
        | E_shift s -> if delta.(s.cons) <> delta.(s.prod) then repeats := false
        | E_compute cc ->
          if delta.(cc.started) <> delta.(cc.retired) then repeats := false
        | E_write w ->
          Array.iter (fun r -> writes := !writes + delta.(r)) w.w_ret
        | _ -> ())
      est;
    if !repeats && !writes > 0 then ss_period := Some (p, !writes)
  in
  (* the last period's starts (at most one per cycle) *)
  let starts = Array.make p_max 0 in
  (* advance a compute's time state by n periods of p cycles *)
  let jump_compute cc n p =
    let ds = delta.(cc.started) and dr = delta.(cc.retired) in
    if ds > 0 then begin
      (* the queue is the one at c with n * dr entries retired and the
         last period's ds starts appended n times, p cycles apart *)
      let m = x.(cc.started) - x.(cc.retired) in
      let m' = m + (n * (ds - dr)) in
      reserve cc (m' + p_max + 2);
      for j = 0 to ds - 1 do
        starts.(j) <- cc.q_buf.((cc.q_head + m - ds + j) land cc.q_mask)
      done;
      let g0 = max m (n * dr) in
      (* entry g is start (g - (m - ds)) mod ds, (g - (m - ds)) / ds
         periods on *)
      let j = ref ((g0 - (m - ds)) mod ds)
      and shift = ref ((g0 - (m - ds)) / ds * p) in
      for g = g0 to (n * dr) + m' - 1 do
        cc.q_buf.((cc.q_head + g) land cc.q_mask) <- starts.(!j) + !shift;
        incr j;
        if !j = ds then begin
          j := 0;
          shift := !shift + p
        end
      done;
      cc.last_start <- cc.last_start + (n * p)
    end;
    cc.q_head <- (cc.q_head + (n * dr)) land cc.q_mask
  in
  (* detect an affine period ending at cycle c (= !cycle - 1) and apply
     as many whole periods as the guards and the budget allow *)
  let try_jump c =
    let cur = c mod hcap in
    let p = ref 1 in
    let jumped = ref false in
    while (not !jumped) && !p <= min p_max (!hlen - 1) do
      let prev = (c - !p) mod hcap in
      if h_time.(prev) = c - !p && screen c !p cur prev then begin
        let xc = h_x.(cur) and xp = h_x.(prev) in
        for i = 0 to nx - 1 do
          delta.(i) <- xc.(i) - xp.(i)
        done;
        for i = 0 to ncomp - 1 do
          let cc = comps.(i) in
          delta.(cc.age_start) <- (if delta.(cc.started) = 0 then !p else 0);
          delta.(cc.age_head) <- (if delta.(cc.retired) = 0 then !p else 0)
        done;
        if !ss_period = None then note_steady !p;
        let n = min (periods_bound c !p) ((budget - !cycle) / !p) in
        if n >= 1 then begin
          let skipped = n * !p in
          (match on_cycle with
          | Some f ->
            for j = 0 to skipped - 1 do
              f (!cycle + j)
                (occs_of h_x.((c - !p + 1 + (j mod !p)) mod hcap) ((j / !p) + 1))
            done
          | None -> ());
          Array.iter (fun cc -> jump_compute cc n !p) comps;
          for i = 0 to nx - 1 do
            x.(i) <- x.(i) + (n * delta.(i))
          done;
          recount_open ();
          cycle := !cycle + skipped;
          fast_forwarded := !fast_forwarded + skipped;
          (* the landing state starts a fresh history: the next stepped
             cycle can already try lag 1 against it (no lag reaches back
             to its guard log) *)
          hlen := 0;
          record_history (!cycle - 1);
          jumped := true
        end
      end;
      incr p
    done
  in
  while !open_ports > 0 && !progressed && !cycle < budget do
    progressed := false;
    fire ();
    (match on_cycle with
    | Some f -> f !cycle (occs_of x 0)
    | None -> ());
    incr cycle;
    if !progressed then begin
      record_history (!cycle - 1);
      if !hlen >= 2 then try_jump (!cycle - 1)
    end
  done;
  let deadlocked = !open_ports > 0 in
  let sum slots = Array.fold_left (fun a r -> a + x.(r)) 0 slots in
  let progress =
    Array.to_list
      (Array.map2
         (fun stage st ->
           let done_, target =
             match st with
             | E_load l ->
               let n = Array.length l.rem in
               ((total * n) - sum l.rem, total * n)
             | E_shift s -> (x.(s.prod), total)
             | E_dup du -> (x.(du.moved), total)
             | E_compute cc -> (x.(cc.retired), cc.total)
             | E_write w -> (sum w.w_ret, total * Array.length w.w_ret)
           in
           (Design.stage_name stage, done_, target))
         stages est)
  in
  if deadlocked then
    stalled :=
      List.find_map
        (fun (name, done_, target) -> if done_ < target then Some name else None)
        progress;
  let fifo_occupancy =
    Hashtbl.fold (fun id i acc -> (id, x.(i), cap.(i)) :: acc) fifos []
    |> List.sort compare
  in
  { cycles = !cycle; deadlocked; stalled_stage = !stalled; progress;
    fifo_occupancy; cycles_simulated = !cycle - !fast_forwarded;
    cycles_fast_forwarded = !fast_forwarded; ss_period = !ss_period }

(* ------------------------------------------------------------------ *)
(* Multi-device runs: one design per slab device, joined by an
   inter-device link (DESIGN.md section 16).  Each device runs its own
   (independent) cycle simulation; every sweep is preceded by a halo
   delivery over the link, whose charged cycles come from the link
   model (latency never hidden, serialisation overlapped with the
   design's fill ramp, {!Depth_balance.fill}).  The makespan is the
   slowest device's total: compute and exchange of different devices
   overlap freely, neighbours' exchanges are concurrent on distinct
   links. *)

type device_lane = {
  dl_result : result;
  dl_exchange_bytes : int;  (** received per exchange phase *)
  dl_exchange_cycles : float;  (** link transfer per phase (unhidden) *)
  dl_exchange_charged : float;  (** per phase, after fill overlap *)
  dl_total : float;  (** sweeps x (compute + charged exchange) *)
}

type multi_result = {
  mr_link : Link.t;
  mr_sweeps : int;
  mr_lanes : device_lane list;
  mr_cycles : float;  (** makespan: the slowest lane's total *)
  mr_exchange_charged : float;  (** makespan lane, per phase *)
  mr_exchange_hidden : float;  (** makespan lane: transfer - charged *)
  mr_deadlocked : bool;
}

let run_multi ?(sweeps = 1) ~link
    (devices : (Design.t * int) list) =
  if devices = [] then Err.raise_error "cycle_sim: run_multi needs a device";
  if sweeps < 1 then Err.raise_error "cycle_sim: run_multi needs sweeps >= 1";
  let lanes =
    List.map
      (fun (d, bytes) ->
        let r = run d in
        let fill = Depth_balance.fill d in
        let transfer =
          if bytes <= 0 then 0.0 else Link.transfer_cycles link ~bytes
        in
        let charged = Link.charged_cycles link ~bytes ~fill in
        {
          dl_result = r;
          dl_exchange_bytes = bytes;
          dl_exchange_cycles = transfer;
          dl_exchange_charged = charged;
          dl_total =
            float_of_int sweeps *. (float_of_int r.cycles +. charged);
        })
      devices
  in
  let slowest =
    List.fold_left
      (fun acc l -> if l.dl_total > acc.dl_total then l else acc)
      (List.hd lanes) lanes
  in
  {
    mr_link = link;
    mr_sweeps = sweeps;
    mr_lanes = lanes;
    mr_cycles = slowest.dl_total;
    mr_exchange_charged = slowest.dl_exchange_charged;
    mr_exchange_hidden =
      slowest.dl_exchange_cycles -. slowest.dl_exchange_charged;
    mr_deadlocked = List.exists (fun l -> l.dl_result.deadlocked) lanes;
  }
