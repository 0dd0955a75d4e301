(* Occupancy tracing for the cycle simulator: sampled FIFO fill levels
   over time, exported as CSV (one column per stream) — the poor
   engineer's waveform viewer for staring at fill phases, steady-state
   behaviour and the onset of a wedge. *)

type t = {
  tr_streams : int list; (* column order *)
  tr_samples : (int * int array) list; (* cycle, occupancy per stream *)
}

(* Run the cycle simulator collecting one sample every [every] cycles.
   Fast-forwarded stretches synthesise their per-cycle occupancy
   records, so every cycle is sampled as if simulated one at a time. *)
let capture ?(every = 16) (d : Design.t) =
  let streams = List.map (fun (s : Design.stream) -> s.st_id) d.d_streams in
  let index = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.replace index id i) streams;
  let samples = ref [] in
  let on_cycle cycle occs =
    if cycle mod every = 0 then begin
      let row = Array.make (List.length streams) 0 in
      List.iter
        (fun (id, occ) ->
          match Hashtbl.find_opt index id with
          | Some i -> row.(i) <- occ
          | None -> ())
        occs;
      samples := (cycle, row) :: !samples
    end
  in
  let result = Cycle_sim.run ~on_cycle d in
  (result, { tr_streams = streams; tr_samples = List.rev !samples })

let to_csv (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    ("cycle,"
    ^ String.concat "," (List.map (fun id -> Printf.sprintf "s%d" id) t.tr_streams)
    ^ "\n");
  List.iter
    (fun (cycle, row) ->
      Buffer.add_string buf (string_of_int cycle);
      Array.iter (fun occ -> Buffer.add_string buf ("," ^ string_of_int occ)) row;
      Buffer.add_char buf '\n')
    t.tr_samples;
  Buffer.contents buf

(* A quick ASCII view: per stream, the occupancy profile over time in
   eight fill levels. *)
let to_ascii ?(width = 64) (t : t) (d : Design.t) =
  let buf = Buffer.create 1024 in
  let n = List.length t.tr_samples in
  if n = 0 then "(no samples)"
  else begin
    let samples = Array.of_list t.tr_samples in
    List.iteri
      (fun col id ->
        let cap = (Design.find_stream d id).st_depth in
        Buffer.add_string buf (Printf.sprintf "s%-5d |" id);
        for x = 0 to width - 1 do
          let i = x * n / width in
          let _, row = samples.(i) in
          let occ = row.(col) in
          let level = if cap = 0 then 0 else occ * 8 / cap in
          Buffer.add_char buf
            (match min level 8 with
            | 0 -> ' '
            | 1 | 2 -> '.'
            | 3 | 4 -> ':'
            | 5 | 6 -> '+'
            | _ -> '#')
        done;
        Buffer.add_string buf (Printf.sprintf "| depth %d\n" cap))
      t.tr_streams;
    Buffer.contents buf
  end
