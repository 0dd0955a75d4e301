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
   whole runs of cycles in closed form.  Fill, steady state, drain and
   pipeline-latency waits are all affine phases: the same stages fire
   the same way every p cycles, so every FIFO occupancy and counter
   moves by a constant delta per period until some firing guard flips.
   The engine jumps straight to the period before that flip, stepping
   only the few cycles between phases.  Cycle counts, deadlock verdicts and
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
   last slot is always 0.  Stages hold slot indices.  What [x] leaves out
   is each compute's time state — retirement pass, II distance (clamped
   at ii: once the guard holds it holds until the next start) and
   in-flight ready offsets (clamped at 0: once ready, always ready) —
   which the *time signature* records.

   Guards.  Every comparison a stage makes while firing is normalised to
   [v >= 0], with v affine in the state, and logged as (v, a, b): one
   period moves v by delta.(a) - delta.(b).  Load's burst, min 8
   (remaining, cap - occ), logs each term's distance from the burst
   taken and the binding term's equality with it, so the burst size
   cannot change unnoticed.  A compute's time comparisons (II distance,
   ready <= cycle) are logged against its [tick] slot of [delta].

   Affine jump.  After every stepped cycle c, for each lag p <= 8, take
   delta = x(c) - x(c - p).  A compute that neither starts nor retires
   in those p cycles is frozen: its time state stands still while the
   clock runs, so its time comparisons age by p per period.  Every other
   compute must have the same time signature at c and c - p.  Then by
   determinism the next period replays the last one's firings, with
   every intermediate state (within a cycle too, since the guards were
   logged where they were evaluated) shifted by delta — as long as every
   guard logged in the last p cycles keeps its truth value.  The k-th
   next period sees v + k * delta_v, linear in k, so each guard bounds
   the number of whole periods n it survives, and the jump applies the
   smallest bound (and the cycle budget): x += n * delta, the clock and
   the non-frozen computes' ready times and last_start move by n * p.
   Fill, steady state and drain are such phases, and so is a pure
   pipeline-latency wait (every delta zero, only frozen computes'
   readiness moving).  The steady state is the case where occupancy and
   held-count deltas are zero — the bounded state repeats — and the
   first such period with writes moving is reported as [ss_period]. *)

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
      total : int;
    }
  | E_dup of { d_fin : int; d_fouts : int array; moved : int; total : int }
  | E_compute of {
      c_fins : int array;
      c_fouts : int array; (* one per serial pass *)
      started : int;
      retired : int;
      tick : int;
          (* its ordinal among computes; delta.(nx + tick) is p when the
             compute neither starts nor retires in the period (its time
             guards age by p per period), else 0 *)
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
         clamps to 0) — so the time signature needs one word per
         compute instead of a queue walk.  0 mask = latency too large
         for a word; the signature walks the ring instead. *)
      bits_mask : int;
      mutable start_bits : int;
    }
  | E_write of { w_fins : int array; w_ret : int array; w_total : int }

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
  let next_slot = ref nstreams in
  let counter () =
    let i = !next_slot in
    incr next_slot;
    i
  in
  let counters n = Array.init n (fun _ -> counter ()) in
  let ncomputes = ref 0 in
  let estages =
    List.map
      (fun stage ->
        let st =
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
                total;
              }
          | Design.Dup { input; outputs } ->
            E_dup
              {
                d_fin = fifo input;
                d_fouts = fifos_of outputs;
                moved = counter ();
                total;
              }
          | Design.Compute c ->
            let latency = 8 + c.flops in
            let qcap = ref 1 in
            while !qcap < latency + 2 do
              qcap := !qcap * 2
            done;
            let started = counter () in
            let retired = counter () in
            let tick = !ncomputes in
            incr ncomputes;
            E_compute
              {
                c_fins = fifos_of c.in_streams;
                c_fouts = fifos_of c.out_streams;
                started;
                retired;
                tick;
                ii = c.ii;
                latency;
                total = c.serial * total;
                per_pass = total;
                passes = List.length c.out_streams;
                q_buf = Array.make !qcap 0;
                q_mask = !qcap - 1;
                q_head = 0;
                q_len = 0;
                last_start = -1_000_000;
                bits_mask = (if latency <= 62 then (1 lsl latency) - 1 else 0);
                start_bits = 0;
              }
          | Design.Write { in_streams; _ } ->
            let w_fins = fifos_of in_streams in
            E_write
              { w_fins; w_ret = counters (Array.length w_fins); w_total = total }
        in
        (stage, st))
      d.d_stages
    |> Array.of_list
  in
  let z = !next_slot (* the slot that stays 0 *) in
  let nx = z + 1 in
  let x = Array.make nx 0 in
  Array.iter
    (fun (_, st) ->
      match st with
      | E_load l -> Array.iter (fun r -> x.(r) <- total) l.rem
      | _ -> ())
    estages;
  let complete () =
    Array.for_all
      (fun (_, st) ->
        match st with
        | E_write w -> Array.for_all (fun r -> x.(r) >= w.w_total) w.w_ret
        | _ -> true)
      estages
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let stalled = ref None in
  let fast_forwarded = ref 0 in
  let ss_period = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  (* per-period change of x over the period being tried, then the aging
     of each compute's time guards (see [tick]) *)
  let delta = Array.make (nx + !ncomputes) 0 in
  (* the tracer's view of occupancies: those of [y], moved by k periods *)
  let occs_of y k =
    Hashtbl.fold (fun id i acc -> (id, y.(i) + (k * delta.(i))) :: acc) fifos []
  in
  (* history ring over the last p_max+1 stepped cycles: time, time
     signature, state vector and guard log *)
  let p_max = 8 in
  let hcap = p_max + 1 in
  let max_guards =
    Array.fold_left
      (fun acc (_, st) ->
        acc
        +
        match st with
        | E_load l -> 3 * Array.length l.outs
        | E_shift _ -> 7
        | E_dup du -> 2 + Array.length du.d_fouts
        | E_compute cc -> 5 + Array.length cc.c_fins
        | E_write w -> 2 * Array.length w.w_fins)
      0 estages
  in
  let max_sig =
    Array.fold_left
      (fun acc (_, st) ->
        match st with
        | E_compute cc -> acc + 3 + Array.length cc.q_buf
        | _ -> acc)
      0 estages
  in
  let h_time = Array.make hcap (-1) in
  let h_sig = Array.init hcap (fun _ -> Array.make max_sig 0) in
  let h_x = Array.init hcap (fun _ -> Array.make nx 0) in
  let h_guards = Array.init hcap (fun _ -> Array.make (3 * max_guards) 0) in
  let h_nguards = Array.make hcap 0 in
  let hlen = ref 0 in
  (* guard log of the cycle being fired *)
  let glog = ref h_guards.(0) in
  let gn = ref 0 in
  let note v a b =
    let g = !glog and i = !gn in
    g.(i) <- v;
    g.(i + 1) <- a;
    g.(i + 2) <- b;
    gn := i + 3
  in
  let guard v a b =
    note v a b;
    v >= 0
  in
  (* one stepped cycle: every stage fires once, in stage order *)
  let fire () =
    let c = !cycle in
    glog := h_guards.(c mod hcap);
    gn := 0;
    Array.iter
      (fun (_, st) ->
        match st with
        | E_load l ->
          Array.iteri
            (fun i o ->
              let r = l.rem.(i) in
              let left = x.(r) and room = cap.(o) - x.(o) in
              let burst = min 8 (min left room) in
              note (left - burst) r z;
              note (room - burst) z o;
              if burst < 8 then if left = burst then note 0 z r else note 0 o z;
              if burst > 0 then begin
                x.(o) <- x.(o) + burst;
                x.(r) <- left - burst;
                progressed := true
              end)
            l.outs
        | E_shift s ->
          if
            guard (s.total - 1 - x.(s.cons)) z s.cons
            && guard (x.(s.fin) - 1) s.fin z
            && guard (s.window - 1 - (x.(s.cons) - x.(s.prod))) s.prod s.cons
          then begin
            x.(s.fin) <- x.(s.fin) - 1;
            x.(s.cons) <- x.(s.cons) + 1;
            progressed := true
          end;
          if
            guard (s.total - 1 - x.(s.prod)) z s.prod
            && (guard (x.(s.cons) - x.(s.prod) - s.lookahead - 1) s.cons s.prod
               || guard (x.(s.cons) - s.total) s.cons z)
            && guard (cap.(s.fout) - 1 - x.(s.fout)) z s.fout
          then begin
            x.(s.fout) <- x.(s.fout) + 1;
            x.(s.prod) <- x.(s.prod) + 1;
            progressed := true
          end
        | E_dup du ->
          if
            guard (du.total - 1 - x.(du.moved)) z du.moved
            && guard (x.(du.d_fin) - 1) du.d_fin z
            && Array.for_all (fun o -> guard (cap.(o) - 1 - x.(o)) z o) du.d_fouts
          then begin
            x.(du.d_fin) <- x.(du.d_fin) - 1;
            Array.iter (fun o -> x.(o) <- x.(o) + 1) du.d_fouts;
            x.(du.moved) <- x.(du.moved) + 1;
            progressed := true
          end
        | E_compute cc ->
          if
            guard (cc.total - 1 - x.(cc.started)) z cc.started
            && Array.for_all (fun o -> guard (x.(o) - 1) o z) cc.c_fins
            && guard (c - cc.last_start - cc.ii) (nx + cc.tick) z
          then begin
            Array.iter (fun o -> x.(o) <- x.(o) - 1) cc.c_fins;
            x.(cc.started) <- x.(cc.started) + 1;
            cc.last_start <- c;
            cc.q_buf.((cc.q_head + cc.q_len) land cc.q_mask) <- c + cc.latency;
            cc.q_len <- cc.q_len + 1;
            progressed := true
          end;
          if cc.q_len > 0 then begin
            if guard (c - cc.q_buf.(cc.q_head)) (nx + cc.tick) z then begin
              let pass = x.(cc.retired) / cc.per_pass in
              let phase =
                if pass >= cc.passes - 1 then cc.passes - 1
                else begin
                  (* the retirement that moves on to the next pass *)
                  note (x.(cc.retired) - ((pass + 1) * cc.per_pass)) cc.retired z;
                  pass
                end
              in
              let o = cc.c_fouts.(phase) in
              if guard (cap.(o) - 1 - x.(o)) z o then begin
                x.(o) <- x.(o) + 1;
                x.(cc.retired) <- x.(cc.retired) + 1;
                cc.q_head <- (cc.q_head + 1) land cc.q_mask;
                cc.q_len <- cc.q_len - 1;
                progressed := true
              end
            end
            else progressed := true
          end;
          cc.start_bits <-
            ((cc.start_bits lsl 1)
            lor (if cc.last_start = c then 1 else 0))
            land cc.bits_mask
        | E_write w ->
          Array.iteri
            (fun i o ->
              let r = w.w_ret.(i) in
              if guard (w.w_total - 1 - x.(r)) z r && guard (x.(o) - 1) o z
              then begin
                x.(o) <- x.(o) - 1;
                x.(r) <- x.(r) + 1;
                progressed := true
              end)
            w.w_fins)
      estages
  in
  let record_history c =
    let slot = c mod hcap in
    let sg = h_sig.(slot) in
    let i = ref 0 in
    let put v =
      sg.(!i) <- v;
      incr i
    in
    Array.iter
      (fun (_, st) ->
        match st with
        | E_compute cc ->
          put (min (x.(cc.retired) / cc.per_pass) (cc.passes - 1));
          put (min (c - cc.last_start) cc.ii);
          put cc.q_len;
          if cc.bits_mask <> 0 then put cc.start_bits
          else
            for j = 0 to cc.q_len - 1 do
              put (max 0 (cc.q_buf.((cc.q_head + j) land cc.q_mask) - c))
            done
        | _ -> ())
      estages;
    h_time.(slot) <- c;
    h_nguards.(slot) <- !gn;
    Array.blit x 0 h_x.(slot) 0 nx;
    if !hlen < hcap then incr hlen
  in
  (* the time signatures at slots a and b agree on every compute that
     starts or retires in the period (the others' time guards are
     logged, aging by p per period) *)
  let sig_equal a b =
    let sa = h_sig.(a) and sb = h_sig.(b) in
    let ia = ref 0 and ib = ref 0 and eq = ref true in
    Array.iter
      (fun (_, st) ->
        match st with
        | E_compute cc ->
          let len sg i = if cc.bits_mask <> 0 then 4 else 3 + sg.(i + 2) in
          let la = len sa !ia and lb = len sb !ib in
          if delta.(nx + cc.tick) = 0 then
            if la <> lb then eq := false
            else
              for j = 0 to la - 1 do
                if sa.(!ia + j) <> sb.(!ib + j) then eq := false
              done;
          ia := !ia + la;
          ib := !ib + lb
        | _ -> ())
      estages;
    !eq
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
        let v = g.(!i) and dv = delta.(g.(!i + 1)) - delta.(g.(!i + 2)) in
        let b =
          if v >= 0 then if dv >= 0 then max_int else v / -dv
          else if dv <= 0 then max_int
          else (-v - 1) / dv
        in
        if b < !n then n := b;
        i := !i + 3
      done;
      decr t
    done;
    !n
  in
  (* the first period whose bounded state (occupancies, held counts,
     time signature) repeats: write retirements per period, for the
     model's fill/steady cross-check *)
  let note_steady p =
    let repeats = ref true and writes = ref 0 in
    for i = 0 to nstreams - 1 do
      if delta.(i) <> 0 then repeats := false
    done;
    Array.iter
      (fun (_, st) ->
        match st with
        | E_shift s -> if delta.(s.cons) <> delta.(s.prod) then repeats := false
        | E_write w -> Array.iter (fun r -> writes := !writes + delta.(r)) w.w_ret
        | _ -> ())
      estages;
    if !repeats && !writes > 0 then ss_period := Some (p, !writes)
  in
  (* detect an affine period ending at cycle c (= !cycle - 1) and apply
     as many whole periods as the guards and the budget allow *)
  let try_jump c =
    let cur = c mod hcap in
    let p = ref 1 in
    let jumped = ref false in
    while (not !jumped) && !p <= min p_max (!hlen - 1) do
      let prev = (c - !p) mod hcap in
      let xc = h_x.(cur) and xp = h_x.(prev) in
      for i = 0 to nx - 1 do
        delta.(i) <- xc.(i) - xp.(i)
      done;
      Array.iter
        (fun (_, st) ->
          match st with
          | E_compute cc ->
            delta.(nx + cc.tick) <-
              (if delta.(cc.started) = 0 && delta.(cc.retired) = 0 then !p
               else 0)
          | _ -> ())
        estages;
      if h_time.(prev) = c - !p && sig_equal cur prev then begin
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
          for i = 0 to nx - 1 do
            x.(i) <- x.(i) + (n * delta.(i))
          done;
          Array.iter
            (fun (_, st) ->
              match st with
              | E_compute cc ->
                if delta.(nx + cc.tick) = 0 then begin
                  (* periodic: its time state moves with the clock *)
                  cc.last_start <- cc.last_start + skipped;
                  for k = 0 to cc.q_len - 1 do
                    let slot = (cc.q_head + k) land cc.q_mask in
                    cc.q_buf.(slot) <- cc.q_buf.(slot) + skipped
                  done
                end
                else
                  (* frozen: its time state stays put while the clock
                     runs on *)
                  cc.start_bits <-
                    (if skipped > 62 then 0
                     else (cc.start_bits lsl skipped) land cc.bits_mask)
              | _ -> ())
            estages;
          cycle := !cycle + skipped;
          fast_forwarded := !fast_forwarded + skipped;
          hlen := 0;
          jumped := true
        end
      end;
      incr p
    done
  in
  while (not (complete ())) && !progressed && !cycle < budget do
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
  let deadlocked = not (complete ()) in
  let sum slots = Array.fold_left (fun a r -> a + x.(r)) 0 slots in
  let progress =
    Array.to_list estages
    |> List.map (fun (stage, st) ->
           let done_, target =
             match st with
             | E_load l ->
               let n = Array.length l.rem in
               ((total * n) - sum l.rem, total * n)
             | E_shift s -> (x.(s.prod), s.total)
             | E_dup du -> (x.(du.moved), du.total)
             | E_compute cc -> (x.(cc.retired), cc.total)
             | E_write w -> (sum w.w_ret, w.w_total * Array.length w.w_ret)
           in
           (Design.stage_name stage, done_, target))
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
