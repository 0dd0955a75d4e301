(* Inter-device link model (DESIGN.md section 16).

   Multi-device designs split the grid into slabs along the streamed
   dimension; neighbouring devices exchange dim-0 halo planes over a
   point-to-point serial link.  The model is the classic alpha-beta
   one, in device clock cycles: a fixed per-exchange latency (alpha)
   plus payload bytes over the link's payload bandwidth (beta).  The
   serialisation component can hide under the receiving design's
   shift-buffer fill ramp — the design needs [fill] cycles of data
   before the first output anyway — but the latency cannot: the halo
   planes are at the *head* of the padded stream, so the device cannot
   start until the first exchanged byte has arrived. *)

type t = {
  lk_gbps : float;
  lk_latency : int;
}

let default = { lk_gbps = 100.0; lk_latency = 250 }

let to_string l =
  (* avoid "100.@250": print whole gbps without the trailing point *)
  if Float.is_integer l.lk_gbps then
    Printf.sprintf "%.0f@%d" l.lk_gbps l.lk_latency
  else Printf.sprintf "%g@%d" l.lk_gbps l.lk_latency

let bytes_per_cycle l = l.lk_gbps *. 1e9 /. 8.0 /. U280.clock_hz

let of_string s =
  (* the bandwidth divides every transfer: a subnormal or infinite
     bytes-per-cycle rate would turn exchange times into inf or nan *)
  let parse_gbps g =
    match float_of_string_opt (String.trim g) with
    | Some v
      when v > 0.0
           && Float.classify_float (bytes_per_cycle { default with lk_gbps = v })
              = FP_normal ->
      Ok v
    | _ ->
      Error
        (Printf.sprintf
           "bad link bandwidth %S (want gbps > 0 with a normal bytes-per-cycle \
            rate)"
           g)
  in
  match String.index_opt s '@' with
  | None ->
    Result.map (fun g -> { default with lk_gbps = g }) (parse_gbps s)
  | Some i ->
    let g = String.sub s 0 i in
    let lat = String.sub s (i + 1) (String.length s - i - 1) in
    Result.bind (parse_gbps g) (fun gbps ->
        match int_of_string_opt (String.trim lat) with
        | Some l when l >= 0 -> Ok { lk_gbps = gbps; lk_latency = l }
        | _ ->
          Error
            (Printf.sprintf "bad link latency %S (want cycles >= 0)" lat))

let transfer_cycles l ~bytes =
  float_of_int l.lk_latency +. (float_of_int bytes /. bytes_per_cycle l)

let charged_cycles l ~bytes ~fill =
  if bytes <= 0 then 0.0 (* no exchange at all: single device *)
  else
    let serialisation = float_of_int bytes /. bytes_per_cycle l in
    float_of_int l.lk_latency
    +. Float.max 0.0 (serialisation -. float_of_int fill)

(* One dim-0 plane spans the padded extents of every other dimension:
   the neighbour sends the full padded rows so the receiver's stream
   sees exactly what a single-device run would have streamed. *)
let halo_plane_bytes ~grid ~halo =
  match (grid, halo) with
  | _ :: gs, _ :: hs ->
    8 * List.fold_left2 (fun acc n h -> acc * (n + (2 * h))) 1 gs hs
  | _ -> 8

let exchange_bytes ~grid ~halo ~fields ~neighbours =
  let h0 = match halo with h :: _ -> h | [] -> 0 in
  fields * h0 * halo_plane_bytes ~grid ~halo * neighbours

(* A slab design's per-run cycles, seconds and throughput once its
   exchange is charged: the charged cycles extend the run, and the
   throughput counts [global_interior] points — the N slabs complete
   the whole grid together, and the makespan is the slowest (= largest)
   slab, which is the design being priced. *)
let charge l ~exchange_bytes ~global_interior ~fill ~cycles =
  let cycles = cycles +. charged_cycles l ~bytes:exchange_bytes ~fill in
  let seconds = cycles /. U280.clock_hz in
  (cycles, seconds, float_of_int global_interior /. seconds /. 1e6)
