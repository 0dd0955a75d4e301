(* Stream-depth balancing.

   In a dataflow design where one consumer reads streams arriving over
   paths of different latency (e.g. a compute stage reading a field's
   shift buffer directly and another field through an extra
   shift-buffered intermediate), the shorter path's FIFO must buffer the
   skew or the network deadlocks — the failure mode the paper observed
   with StencilFlow on PW advection.  This pass computes per-stream path
   delays over the stage DAG and enlarges FIFO depths so every multi-input
   stage can keep all inputs flowing.

   Delay model (elements of lead required, matching {!Cycle_sim}):
     load            0
     shift_buffer    input + lookahead + 1
     duplicate       input + 1
     compute         max(inputs) + pipeline latency (8 + flops)        *)

open Shmls_ir

let margin = 8

let compute_latency (c : Design.stage) =
  match c with Design.Compute cc -> 8 + cc.flops | _ -> 0

(* Per-stream delays, in topological stage order. *)
let stream_delays (d : Design.t) =
  let delays = Hashtbl.create 32 in
  let delay_of s = match Hashtbl.find_opt delays s with Some v -> v | None -> 0 in
  List.iter
    (fun stage ->
      match stage with
      | Design.Load { out_streams; _ } ->
        List.iter (fun s -> Hashtbl.replace delays s 0) out_streams
      | Design.Shift { input; output; halo; extent } ->
        Hashtbl.replace delays output
          (delay_of input + Design.shift_lookahead ~halo ~extent + 1)
      | Design.Dup { input; outputs } ->
        List.iter (fun s -> Hashtbl.replace delays s (delay_of input + 1)) outputs
      | Design.Compute c ->
        let in_delay =
          List.fold_left (fun acc s -> max acc (delay_of s)) 0 c.in_streams
        in
        List.iter
          (fun s ->
            Hashtbl.replace delays s (in_delay + compute_latency stage))
          c.out_streams
      | Design.Write _ -> ())
    d.d_stages;
  delays

(* Fill latency of a design: the longest stream-delay path to write_data. *)
let fill (d : Design.t) =
  Hashtbl.fold (fun _ v acc -> max v acc) (stream_delays d) 0

(* Required depth per stream: for every multi-input stage, the slack of
   each input against the slowest sibling. *)
let required_depths (d : Design.t) =
  let delays = stream_delays d in
  let delay_of s = match Hashtbl.find_opt delays s with Some v -> v | None -> 0 in
  let required = Hashtbl.create 32 in
  let bump s depth =
    let cur = match Hashtbl.find_opt required s with Some v -> v | None -> 0 in
    Hashtbl.replace required s (max cur depth)
  in
  List.iter
    (fun stage ->
      let inputs = Design.inputs_of_stage stage in
      match inputs with
      | [] | [ _ ] -> ()
      | _ ->
        let slowest = List.fold_left (fun acc s -> max acc (delay_of s)) 0 inputs in
        List.iter (fun s -> bump s (slowest - delay_of s + margin)) inputs)
    d.d_stages;
  required

(* Rewrite the depth attributes of the hls.create_stream ops in the
   design's function; returns the number of streams enlarged. *)
let balance (d : Design.t) =
  let required = required_depths d in
  let changed = ref 0 in
  Ir.Op.walk d.Design.d_func (fun op ->
      if Ir.Op.name op = "hls.create_stream" then begin
        let id = Ir.Value.id (Ir.Op.result op 0) in
        match Hashtbl.find_opt required id with
        | Some need ->
          let cur = Shmls_dialects.Hls.stream_depth op in
          if need > cur then begin
            Ir.Op.set_attr op "depth" (Attr.Int need);
            incr changed
          end
        | None -> ()
      end);
  !changed

(* Balance then re-extract, so callers get a design whose stream records
   carry the final depths. *)
let balance_and_reextract (d : Design.t) =
  let _ = balance d in
  Extract.extract d.Design.d_func
