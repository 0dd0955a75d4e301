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

   The engine applies those rules on precomputed arrays, plus two
   fast-forward mechanisms that skip whole runs of cycles in closed
   form: an idle jump to the next time-based guard flip when a cycle
   mutates nothing (pure pipeline-latency wait), and a steady-state
   detector that recognises when the bounded state (FIFO occupancies,
   in-flight offsets, II distances) repeats with period p and all
   counters advance by a constant per-period delta, then applies n
   periods at once.  Cycle counts, deadlock verdicts and tracer-visible
   occupancy sequences are identical to firing every stage every cycle:
   the differential suite (test/test_cycle_engines.ml) checks them
   against exactly that loop, kept with the tests as the oracle. *)

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

type fifo = { mutable occ : int; cap : int }

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

   The firing rules compiled to arrays with direct FIFO references (no
   per-cycle hashtable lookups or list allocation), plus two closed-form
   fast-forward mechanisms:

   Idle jump.  When a fired cycle mutates no state yet still counts as
   progress (results draining through a compute pipeline), nothing can
   change until a time-based guard flips: an in-flight result becomes
   ready, or a compute's II distance elapses.  We jump straight to the
   earliest such flip, synthesising the unchanged per-cycle tracer
   records in between.

   Steady-state skip.  After every mutating cycle we record a signature
   of the *bounded* state: all FIFO occupancies, each shift's held
   element count, each compute's retirement phase, in-flight ready
   offsets (clamped at 0 — once ready <= cycle the exact value can
   never matter again) and II distance (clamped at ii — once the guard
   is satisfied it stays satisfied until the next start), plus the full
   vector of monotone counters.  If the signature at cycle t equals the
   signature at t-p, determinism makes cycles t+1..t+p replay
   t-p+1..t exactly — provided every counter-dependent guard evaluates
   the same, which holds as long as each moving counter stays strictly
   inside its current regime: below [total] for the monotone-increasing
   ones, at or above a full burst (8) for load's remaining words, and
   inside the current serial pass for a compute's retirement phase.
   Those thresholds bound how many whole periods n can be applied at
   once; we add n * delta to every counter, n * p to every in-flight
   ready time and (when the compute started during the period) to
   last_start, and advance the clock by n * p.  FIFO occupancies are
   periodic, so they are left untouched.  Variants break periodicity
   only transiently: a no-split fused stage changes its retirement
   target stream once per serial pass and cu=N designs interleave
   phased retirement, both of which land outside the signature match or
   the phase threshold for a few cycles, after which the detector locks
   on again. *)

type estage =
  | E_load of { outs : fifo array; remaining : int array }
  | E_shift of {
      s_fin : fifo;
      s_fout : fifo;
      mutable consumed : int;
      mutable produced : int;
      lookahead : int;
      window : int;
      total : int;
    }
  | E_dup of {
      d_fin : fifo;
      d_fouts : fifo array;
      mutable moved : int;
      total : int;
    }
  | E_compute of {
      c_fins : fifo array;
      c_fouts : fifo array; (* one per serial pass *)
      mutable started : int;
      mutable retired : int;
      ii : int;
      latency : int;
      total : int;
      per_pass : int;
      passes : int;
      (* in-flight ready cycles as a power-of-two ring buffer: at most
         one start per cycle and a fixed latency bound the population to
         latency + 1, so the ring never grows and never allocates *)
      q_buf : int array;
      q_mask : int;
      mutable q_head : int;
      mutable q_len : int;
      mutable last_start : int;
      (* bit j set iff an iteration started j cycles ago (j < latency).
         Together with q_len this encodes the in-flight ready offsets
         exactly — entries older than latency are all ready (offset
         clamps to 0) — so the steady-state signature needs one word
         per compute instead of a queue walk.  0 mask = latency too
         large for a word; the signature walks the ring instead. *)
      bits_mask : int;
      mutable start_bits : int;
    }
  | E_write of { w_fins : fifo array; w_retired : int array; w_total : int }

(* counter thresholds: how far a moving counter may advance before a
   counter-dependent guard could change its value *)
type cnt_kind =
  | K_inc of int (* guard reads [v < limit] *)
  | K_dec (* load remaining: full bursts only while >= 8 *)
  | K_phase of int * int (* per_pass, passes: retirement stream select *)

let run ?on_cycle (d : Design.t) =
  check_has_write d;
  let total = Design.total_padded d in
  let nstreams = List.length d.d_streams in
  let fifos = Hashtbl.create 32 in
  let fifo_arr = Array.make (max nstreams 1) { occ = 0; cap = 0 } in
  List.iteri
    (fun i (s : Design.stream) ->
      let f = { occ = 0; cap = s.st_depth } in
      Hashtbl.replace fifos s.st_id f;
      fifo_arr.(i) <- f)
    d.d_streams;
  let fifo id =
    match Hashtbl.find_opt fifos id with
    | Some f -> f
    | None -> Err.raise_error "cycle sim: unknown stream %d" id
  in
  let estages =
    List.map
      (fun stage ->
        let st =
          match stage with
          | Design.Load { out_streams; _ } ->
            E_load
              {
                outs = Array.of_list (List.map fifo out_streams);
                remaining = Array.make (List.length out_streams) total;
              }
          | Design.Shift { input; output; halo; extent; _ } ->
            let la = Design.shift_lookahead ~halo ~extent in
            E_shift
              {
                s_fin = fifo input;
                s_fout = fifo output;
                consumed = 0;
                produced = 0;
                lookahead = la;
                window = (2 * la) + 1;
                total;
              }
          | Design.Dup { input; outputs } ->
            E_dup
              {
                d_fin = fifo input;
                d_fouts = Array.of_list (List.map fifo outputs);
                moved = 0;
                total;
              }
          | Design.Compute c ->
            let latency = 8 + c.flops in
            let cap = ref 1 in
            while !cap < latency + 2 do
              cap := !cap * 2
            done;
            E_compute
              {
                c_fins = Array.of_list (List.map fifo c.in_streams);
                c_fouts = Array.of_list (List.map fifo c.out_streams);
                started = 0;
                retired = 0;
                ii = c.ii;
                latency;
                total = c.serial * total;
                per_pass = total;
                passes = List.length c.out_streams;
                q_buf = Array.make !cap 0;
                q_mask = !cap - 1;
                q_head = 0;
                q_len = 0;
                last_start = -1_000_000;
                bits_mask = (if latency <= 62 then (1 lsl latency) - 1 else 0);
                start_bits = 0;
              }
          | Design.Write { in_streams; _ } ->
            E_write
              {
                w_fins = Array.of_list (List.map fifo in_streams);
                w_retired = Array.make (List.length in_streams) 0;
                w_total = total;
              }
        in
        (stage, st))
      d.d_stages
    |> Array.of_list
  in
  let complete () =
    Array.for_all
      (fun (_, st) ->
        match st with
        | E_write w -> Array.for_all (fun r -> r >= w.w_total) w.w_retired
        | _ -> true)
      estages
  in
  (* counter layout (stage order), mirrored by read/apply below *)
  let kinds =
    Array.to_list estages
    |> List.concat_map (fun (_, st) ->
           match st with
           | E_load l -> Array.to_list (Array.map (fun _ -> K_dec) l.remaining)
           | E_shift s -> [ K_inc s.total; K_inc s.total ]
           | E_dup du -> [ K_inc du.total ]
           | E_compute c -> [ K_inc c.total; K_phase (c.per_pass, c.passes) ]
           | E_write w ->
             Array.to_list (Array.map (fun _ -> K_inc w.w_total) w.w_retired))
    |> Array.of_list
  in
  let ncnt = Array.length kinds in
  let read_counters dst =
    let i = ref 0 in
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_load l ->
        Array.iter (fun v -> dst.(!i) <- v; incr i) l.remaining
      | E_shift s ->
        dst.(!i) <- s.consumed;
        dst.(!i + 1) <- s.produced;
        i := !i + 2
      | E_dup du ->
        dst.(!i) <- du.moved;
        incr i
      | E_compute c ->
        dst.(!i) <- c.started;
        dst.(!i + 1) <- c.retired;
        i := !i + 2
      | E_write w ->
        Array.iter (fun v -> dst.(!i) <- v; incr i) w.w_retired
    done
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let mutated = ref false in
  let stalled = ref None in
  let fast_forwarded = ref 0 in
  let ss_period = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  let occ_list () =
    Hashtbl.fold (fun id f acc -> (id, f.occ) :: acc) fifos []
  in
  (* one mutating cycle: every stage fires once, in stage order *)
  let fire () =
    Array.iter
      (fun (_, st) ->
        match st with
        | E_load l ->
          Array.iteri
            (fun i f ->
              let burst = min 8 (min l.remaining.(i) (f.cap - f.occ)) in
              if burst > 0 then begin
                f.occ <- f.occ + burst;
                l.remaining.(i) <- l.remaining.(i) - burst;
                progressed := true;
                mutated := true
              end)
            l.outs
        | E_shift s ->
          if
            s.consumed < s.total && s.s_fin.occ > 0
            && s.consumed - s.produced < s.window
          then begin
            s.s_fin.occ <- s.s_fin.occ - 1;
            s.consumed <- s.consumed + 1;
            progressed := true;
            mutated := true
          end;
          if
            s.produced < s.total
            && (s.consumed >= s.produced + s.lookahead + 1
               || s.consumed = s.total)
            && s.s_fout.occ < s.s_fout.cap
          then begin
            s.s_fout.occ <- s.s_fout.occ + 1;
            s.produced <- s.produced + 1;
            progressed := true;
            mutated := true
          end
        | E_dup du ->
          if
            du.moved < du.total && du.d_fin.occ > 0
            && Array.for_all (fun f -> f.occ < f.cap) du.d_fouts
          then begin
            du.d_fin.occ <- du.d_fin.occ - 1;
            Array.iter (fun f -> f.occ <- f.occ + 1) du.d_fouts;
            du.moved <- du.moved + 1;
            progressed := true;
            mutated := true
          end
        | E_compute c ->
          if
            c.started < c.total
            && !cycle - c.last_start >= c.ii
            && Array.for_all (fun f -> f.occ > 0) c.c_fins
          then begin
            Array.iter (fun f -> f.occ <- f.occ - 1) c.c_fins;
            c.started <- c.started + 1;
            c.last_start <- !cycle;
            c.q_buf.((c.q_head + c.q_len) land c.q_mask) <- !cycle + c.latency;
            c.q_len <- c.q_len + 1;
            progressed := true;
            mutated := true
          end;
          if c.q_len > 0 then begin
            let ready = c.q_buf.(c.q_head) in
            if ready <= !cycle then begin
              let phase = min (c.retired / c.per_pass) (c.passes - 1) in
              let fout = c.c_fouts.(phase) in
              if fout.occ < fout.cap then begin
                fout.occ <- fout.occ + 1;
                c.retired <- c.retired + 1;
                c.q_head <- (c.q_head + 1) land c.q_mask;
                c.q_len <- c.q_len - 1;
                progressed := true;
                mutated := true
              end
            end
            else progressed := true
          end;
          c.start_bits <-
            ((c.start_bits lsl 1)
            lor (if c.last_start = !cycle then 1 else 0))
            land c.bits_mask
        | E_write w ->
          Array.iteri
            (fun i f ->
              if w.w_retired.(i) < w.w_total && f.occ > 0 then begin
                f.occ <- f.occ - 1;
                w.w_retired.(i) <- w.w_retired.(i) + 1;
                progressed := true;
                mutated := true
              end)
            w.w_fins
      )
      estages
  in
  (* signature of the bounded state, written into a reused scratch
     buffer with a full accumulated hash — no allocation per cycle, and
     hash inequality is decisive enough that deep compares only happen
     on genuine period candidates *)
  let max_sig =
    nstreams
    + Array.fold_left
        (fun acc (_, st) ->
          acc
          +
          match st with
          | E_shift _ -> 1
          | E_compute c -> 3 + Array.length c.q_buf
          | _ -> 0)
        0 estages
  in
  let scratch = Array.make (max max_sig 16) 0 in
  let slen = ref 0 in
  let shash = ref 0 in
  (* closure-free: this runs once per mutating cycle on the hot path *)
  let sig_of c =
    let i = ref 0 in
    let h = ref 0 in
    for k = 0 to nstreams - 1 do
      let v = fifo_arr.(k).occ in
      scratch.(!i) <- v;
      incr i;
      h := (!h * 31) + v
    done;
    for k = 0 to Array.length estages - 1 do
      match snd estages.(k) with
      | E_shift s ->
        let v = s.consumed - s.produced in
        scratch.(!i) <- v;
        incr i;
        h := (!h * 31) + v
      | E_compute cc ->
        let phase = min (cc.retired / cc.per_pass) (cc.passes - 1) in
        let dist = min (c - cc.last_start) cc.ii in
        scratch.(!i) <- phase;
        scratch.(!i + 1) <- dist;
        scratch.(!i + 2) <- cc.q_len;
        i := !i + 3;
        h := (((((!h * 31) + phase) * 31) + dist) * 31) + cc.q_len;
        if cc.bits_mask <> 0 then begin
          scratch.(!i) <- cc.start_bits;
          incr i;
          h := (!h * 31) + cc.start_bits
        end
        else
          for j = 0 to cc.q_len - 1 do
            let v = max 0 (cc.q_buf.((cc.q_head + j) land cc.q_mask) - c) in
            scratch.(!i) <- v;
            incr i;
            h := (!h * 31) + v
          done
      | _ -> ()
    done;
    slen := !i;
    shash := !h
  in
  (* history ring of (time, signature, hash, counters, occupancies) for
     the last p_max+1 mutating cycles *)
  let p_max = 8 in
  let hcap = p_max + 1 in
  let h_time = Array.make hcap (-1) in
  let h_sig = Array.init hcap (fun _ -> Array.make (Array.length scratch) 0) in
  let h_siglen = Array.make hcap 0 in
  let h_hash = Array.make hcap 0 in
  let h_cnt = Array.init hcap (fun _ -> Array.make ncnt 0) in
  let h_occ = Array.init hcap (fun _ -> Array.make nstreams 0) in
  let hlen = ref 0 in
  let record_history c =
    let slot = c mod hcap in
    sig_of c;
    h_time.(slot) <- c;
    Array.blit scratch 0 h_sig.(slot) 0 !slen;
    h_siglen.(slot) <- !slen;
    h_hash.(slot) <- !shash;
    read_counters h_cnt.(slot);
    Array.iteri (fun i f -> h_occ.(slot).(i) <- f.occ) fifo_arr;
    if !hlen < hcap then incr hlen
  in
  let sig_equal a b =
    h_time.(a) >= 0 && h_hash.(a) = h_hash.(b) && h_siglen.(a) = h_siglen.(b)
    &&
    let sa = h_sig.(a) and sb = h_sig.(b) in
    let n = h_siglen.(a) in
    let i = ref 0 in
    while !i < n && sa.(!i) = sb.(!i) do
      incr i
    done;
    !i = n
  in
  (* replay synthesised tracer records for implicit cycles j0..j1-1,
     reading occupancies from [occ_at] (phase within the current period) *)
  let synth_on_cycle f j0 j1 occ_at =
    let saved = Array.map (fun fx -> fx.occ) fifo_arr in
    for j = j0 to j1 - 1 do
      let snap = occ_at j in
      Array.iteri (fun i fx -> fx.occ <- snap.(i)) fifo_arr;
      f j (occ_list ())
    done;
    Array.iteri (fun i fx -> fx.occ <- saved.(i)) fifo_arr
  in
  (* how many whole periods the counter thresholds allow *)
  let bound_periods deltas cnts =
    let n = ref max_int in
    for i = 0 to ncnt - 1 do
      let dv = deltas.(i) and v = cnts.(i) in
      if dv <> 0 then begin
        let b =
          match kinds.(i) with
          | K_inc limit -> if dv > 0 then (limit - 1 - v) / dv else 0
          | K_dec -> if dv < 0 then (v - 8) / -dv else 0
          | K_phase (per_pass, passes) ->
            if dv <= 0 then 0
            else if v / per_pass >= passes - 1 then max_int
            else ((v / per_pass + 1) * per_pass - 1 - v) / dv
        in
        if b < !n then n := b
      end
    done;
    !n
  in
  (* detect a period ending at cycle c (= !cycle - 1) and apply as many
     whole periods as the thresholds and budget allow *)
  let try_skip c =
    let cur = c mod hcap in
    let p = ref 1 in
    let applied = ref false in
    while (not !applied) && !p <= min p_max (!hlen - 1) do
      let prev = (c - !p) mod hcap in
      if h_time.(prev) = c - !p && sig_equal cur prev then begin
        let deltas = Array.make ncnt 0 in
        let moving = ref false in
        for i = 0 to ncnt - 1 do
          deltas.(i) <- h_cnt.(cur).(i) - h_cnt.(prev).(i);
          if deltas.(i) <> 0 then moving := true
        done;
        if !moving then begin
          if !ss_period = None then begin
            (* write retirements per detected period, for the model's
               fill/steady cross-check *)
            let wd = ref 0 and i = ref 0 in
            Array.iter
              (fun (_, st) ->
                match st with
                | E_load l -> i := !i + Array.length l.remaining
                | E_shift _ -> i := !i + 2
                | E_dup _ -> incr i
                | E_compute _ -> i := !i + 2
                | E_write w ->
                  Array.iter (fun _ -> wd := !wd + deltas.(!i); incr i)
                    w.w_retired)
              estages;
            ss_period := Some (!p, !wd)
          end;
          let n = min (bound_periods deltas h_cnt.(cur)) ((budget - !cycle) / !p) in
          if n >= 1 then begin
            (match on_cycle with
            | Some f ->
              synth_on_cycle f !cycle (!cycle + (n * !p)) (fun j ->
                  h_occ.((c - !p + 1 + ((j - c - 1) mod !p)) mod hcap))
            | None -> ());
            (* advance counters by n periods *)
            let i = ref 0 in
            let adj = n in
            Array.iter
              (fun (_, st) ->
                match st with
                | E_load l ->
                  Array.iteri
                    (fun k _ ->
                      l.remaining.(k) <- l.remaining.(k) + (adj * deltas.(!i));
                      incr i)
                    l.remaining
                | E_shift s ->
                  s.consumed <- s.consumed + (adj * deltas.(!i));
                  incr i;
                  s.produced <- s.produced + (adj * deltas.(!i));
                  incr i
                | E_dup du ->
                  du.moved <- du.moved + (adj * deltas.(!i));
                  incr i
                | E_compute cc ->
                  let d_started = deltas.(!i) in
                  cc.started <- cc.started + (adj * d_started);
                  incr i;
                  cc.retired <- cc.retired + (adj * deltas.(!i));
                  incr i;
                  let shift = adj * !p in
                  if d_started > 0 then cc.last_start <- cc.last_start + shift;
                  for k = 0 to cc.q_len - 1 do
                    let slot = (cc.q_head + k) land cc.q_mask in
                    cc.q_buf.(slot) <- cc.q_buf.(slot) + shift
                  done
                | E_write w ->
                  Array.iteri
                    (fun k _ ->
                      w.w_retired.(k) <- w.w_retired.(k) + (adj * deltas.(!i));
                      incr i)
                    w.w_retired)
              estages;
            let skipped = n * !p in
            cycle := !cycle + skipped;
            fast_forwarded := !fast_forwarded + skipped;
            hlen := 0;
            applied := true
          end
        end
      end;
      incr p
    done
  in
  (* a cycle that mutated nothing can only be unblocked by time: jump to
     the earliest in-flight ready or II-distance expiry *)
  let idle_jump c =
    let e = ref max_int in
    Array.iter
      (fun (_, st) ->
        match st with
        | E_compute cc ->
          if cc.q_len > 0 then begin
            let r = cc.q_buf.(cc.q_head) in
            if r > c && r < !e then e := r
          end;
          if
            cc.started < cc.total
            && cc.last_start + cc.ii > c
            && Array.for_all (fun f -> f.occ > 0) cc.c_fins
          then begin
            let t = cc.last_start + cc.ii in
            if t < !e then e := t
          end
        | _ -> ())
      estages;
    if !e < max_int then begin
      let target = min !e budget in
      if target > !cycle then begin
        (match on_cycle with
        | Some f ->
          let occs = occ_list () in
          for j = !cycle to target - 1 do
            f j occs
          done
        | None -> ());
        let jumped = target - !cycle in
        Array.iter
          (fun (_, st) ->
            match st with
            | E_compute cc ->
              cc.start_bits <-
                (if jumped > 62 then 0
                 else (cc.start_bits lsl jumped) land cc.bits_mask)
            | _ -> ())
          estages;
        fast_forwarded := !fast_forwarded + jumped;
        cycle := target
      end
    end;
    hlen := 0
  in
  while (not (complete ())) && !progressed && !cycle < budget do
    progressed := false;
    mutated := false;
    fire ();
    (match on_cycle with
    | Some f -> f !cycle (occ_list ())
    | None -> ());
    incr cycle;
    if !progressed then
      if !mutated then begin
        record_history (!cycle - 1);
        if !hlen >= 2 then try_skip (!cycle - 1)
      end
      else idle_jump (!cycle - 1)
  done;
  let deadlocked = not (complete ()) in
  if deadlocked then
    stalled :=
      Array.to_list estages
      |> List.find_map (fun (stage, st) ->
             let blocked =
               match st with
               | E_load l -> Array.exists (fun r -> r > 0) l.remaining
               | E_shift s -> s.produced < s.total
               | E_dup du -> du.moved < du.total
               | E_compute c -> c.retired < c.total
               | E_write w -> Array.exists (fun r -> r < w.w_total) w.w_retired
             in
             if blocked then Some (Design.stage_name stage) else None);
  let progress =
    Array.to_list estages
    |> List.map (fun (stage, st) ->
           let done_, target =
             match st with
             | E_load l ->
               ( Array.fold_left (fun a r -> a + (total - r)) 0 l.remaining,
                 total * Array.length l.remaining )
             | E_shift s -> (s.produced, s.total)
             | E_dup du -> (du.moved, du.total)
             | E_compute c -> (c.retired, c.total)
             | E_write w ->
               ( Array.fold_left ( + ) 0 w.w_retired,
                 total * Array.length w.w_retired )
           in
           (Design.stage_name stage, done_, target))
  in
  let fifo_occupancy =
    Hashtbl.fold (fun id f acc -> (id, f.occ, f.cap) :: acc) fifos []
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
   design's fill ramp — computed here from the stream delays, the same
   quantity {!Perf_model.design_fill} reports).  The makespan is the
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

let design_fill (d : Design.t) =
  let delays = Depth_balance.stream_delays d in
  Hashtbl.fold (fun _ v acc -> max v acc) delays 0

let run_multi ?(sweeps = 1) ~link
    (devices : (Design.t * int) list) =
  if devices = [] then Err.raise_error "cycle_sim: run_multi needs a device";
  if sweeps < 1 then Err.raise_error "cycle_sim: run_multi needs sweeps >= 1";
  let lanes =
    List.map
      (fun (d, bytes) ->
        let r = run d in
        let fill = design_fill d in
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
