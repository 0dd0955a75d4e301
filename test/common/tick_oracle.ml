(* The per-cycle oracle for the cycle simulator: every stage fired
   every cycle, with no fast-forward of any kind — slow, but obviously
   a direct reading of the firing rules in {!Shmls_fpga.Cycle_sim}.
   test_cycle_engines checks the fast-forwarding engine against it bit
   for bit: cycles, verdicts, progress, occupancy and traces. *)

module Design = Shmls_fpga.Design
module Cycle_sim = Shmls_fpga.Cycle_sim

type fifo = { mutable occ : int; cap : int }

type stage_state =
  | S_load of { mutable remaining : int array } (* per output stream *)
  | S_shift of {
      mutable consumed : int;
      mutable produced : int;
      lookahead : int;
      window : int;
      total : int;
    }
  | S_dup of { mutable moved : int; total : int }
  | S_compute of {
      mutable started : int;
      mutable retired : int;
      ii : int;
      latency : int;
      total : int;
      in_flight : int Queue.t; (* ready cycles, FIFO: O(1) add/pop *)
      mutable last_start : int;
    }
  | S_write of { mutable retired : int array (* per input stream *) }

(* the engine's cycle budget, so both give up at the same cycle *)
let max_cycles_factor = 64

let check_has_write (d : Design.t) =
  if
    not
      (List.exists
         (fun s -> match s with Design.Write _ -> true | _ -> false)
         d.d_stages)
  then Shmls_support.Err.raise_error "cycle sim: design has no write_data stage"

let run ?on_cycle (d : Design.t) : Cycle_sim.result =
  check_has_write d;
  let total = Design.total_padded d in
  let fifos = Hashtbl.create 32 in
  List.iter
    (fun (s : Design.stream) ->
      Hashtbl.replace fifos s.st_id { occ = 0; cap = s.st_depth })
    d.d_streams;
  let fifo id =
    match Hashtbl.find_opt fifos id with
    | Some f -> f
    | None -> Shmls_support.Err.raise_error "cycle sim: unknown stream %d" id
  in
  let states =
    List.map
      (fun stage ->
        let st =
          match stage with
          | Design.Load { out_streams; _ } ->
            S_load { remaining = Array.make (List.length out_streams) total }
          | Design.Shift { halo; extent; _ } ->
            let la = Design.shift_lookahead ~halo ~extent in
            S_shift
              {
                consumed = 0;
                produced = 0;
                lookahead = la;
                window = (2 * la) + 1;
                total;
              }
          | Design.Dup _ -> S_dup { moved = 0; total }
          | Design.Compute c ->
            (* a fused (no-split) stage makes [serial] passes over the
               grid, one per output stream, back to back *)
            S_compute
              {
                started = 0;
                retired = 0;
                ii = c.ii;
                latency = 8 + c.flops;
                total = c.serial * total;
                in_flight = Queue.create ();
                last_start = -1_000_000; (* "long ago", without overflow *)
              }
          | Design.Write { in_streams; _ } ->
            S_write { retired = Array.make (List.length in_streams) 0 }
        in
        (stage, st))
      d.d_stages
  in
  let complete () =
    List.for_all
      (fun (_, st) ->
        match st with
        | S_write w -> Array.for_all (fun r -> r >= total) w.retired
        | _ -> true)
      states
  in
  let cycle = ref 0 in
  let progressed = ref true in
  let stalled = ref None in
  let budget = max_cycles_factor * (total + 1000) in
  while (not (complete ())) && !progressed && !cycle < budget do
    progressed := false;
    List.iter
      (fun (stage, st) ->
        match (stage, st) with
        | Design.Load { out_streams; _ }, S_load l ->
          List.iteri
            (fun i sid ->
              let f = fifo sid in
              let burst = min 8 (min l.remaining.(i) (f.cap - f.occ)) in
              if burst > 0 then begin
                f.occ <- f.occ + burst;
                l.remaining.(i) <- l.remaining.(i) - burst;
                progressed := true
              end)
            out_streams
        | Design.Shift { input; output; _ }, S_shift s ->
          let fin = fifo input and fout = fifo output in
          (* consume *)
          if s.consumed < s.total && fin.occ > 0 && s.consumed - s.produced < s.window
          then begin
            fin.occ <- fin.occ - 1;
            s.consumed <- s.consumed + 1;
            progressed := true
          end;
          (* produce *)
          if
            s.produced < s.total
            && (s.consumed >= s.produced + s.lookahead + 1 || s.consumed = s.total)
            && fout.occ < fout.cap
          then begin
            fout.occ <- fout.occ + 1;
            s.produced <- s.produced + 1;
            progressed := true
          end
        | Design.Dup { input; outputs }, S_dup du ->
          let fin = fifo input in
          let fouts = List.map fifo outputs in
          if
            du.moved < du.total && fin.occ > 0
            && List.for_all (fun f -> f.occ < f.cap) fouts
          then begin
            fin.occ <- fin.occ - 1;
            List.iter (fun f -> f.occ <- f.occ + 1) fouts;
            du.moved <- du.moved + 1;
            progressed := true
          end
        | Design.Compute { in_streams; out_streams; _ }, S_compute c ->
          let fins = List.map fifo in_streams in
          (* start a new iteration *)
          if
            c.started < c.total
            && !cycle - c.last_start >= c.ii
            && List.for_all (fun f -> f.occ > 0) fins
          then begin
            List.iter (fun f -> f.occ <- f.occ - 1) fins;
            c.started <- c.started + 1;
            c.last_start <- !cycle;
            Queue.add (!cycle + c.latency) c.in_flight;
            progressed := true
          end;
          (* retire finished iterations *)
          (match Queue.peek_opt c.in_flight with
          | Some ready when ready <= !cycle ->
            (* pass k (of [serial]) retires into out_streams[k] *)
            let phase =
              min (c.retired / total) (List.length out_streams - 1)
            in
            let fout = fifo (List.nth out_streams phase) in
            if fout.occ < fout.cap then begin
              fout.occ <- fout.occ + 1;
              c.retired <- c.retired + 1;
              ignore (Queue.pop c.in_flight);
              progressed := true
            end
          | Some _ ->
            (* results draining through the pipeline: time passing is
               progress, not deadlock *)
            progressed := true
          | None -> ())
        | Design.Write { in_streams; _ }, S_write w ->
          List.iteri
            (fun i sid ->
              let f = fifo sid in
              if w.retired.(i) < total && f.occ > 0 then begin
                f.occ <- f.occ - 1;
                w.retired.(i) <- w.retired.(i) + 1;
                progressed := true
              end)
            in_streams
        | _ -> assert false)
      states;
    (* only materialise the occupancy list when someone is listening —
       it used to allocate every cycle even with no tracer attached *)
    (match on_cycle with
    | Some f -> f !cycle (Hashtbl.fold (fun id f acc -> (id, f.occ) :: acc) fifos [])
    | None -> ());
    incr cycle
  done;
  let deadlocked = not (complete ()) in
  if deadlocked then
    stalled :=
      List.find_map
        (fun (stage, st) ->
          let blocked =
            match st with
            | S_load l -> Array.exists (fun r -> r > 0) l.remaining
            | S_shift s -> s.produced < s.total
            | S_dup du -> du.moved < du.total
            | S_compute c -> c.retired < c.total
            | S_write w -> Array.exists (fun r -> r < total) w.retired
          in
          if blocked then Some (Design.stage_name stage) else None)
        states;
  let progress =
    List.map
      (fun (stage, st) ->
        let done_, target =
          match st with
          | S_load l -> (Array.fold_left (fun a r -> a + (total - r)) 0 l.remaining,
                         total * Array.length l.remaining)
          | S_shift s -> (s.produced, s.total)
          | S_dup du -> (du.moved, du.total)
          | S_compute c -> (c.retired, c.total)
          | S_write w -> (Array.fold_left ( + ) 0 w.retired, total * Array.length w.retired)
        in
        (Design.stage_name stage, done_, target))
      states
  in
  let fifo_occupancy =
    Hashtbl.fold (fun id f acc -> (id, f.occ, f.cap) :: acc) fifos []
    |> List.sort compare
  in
  { cycles = !cycle; deadlocked; stalled_stage = !stalled; progress;
    fifo_occupancy; cycles_simulated = !cycle;
    cycles_fast_forwarded = 0; ss_period = None }
