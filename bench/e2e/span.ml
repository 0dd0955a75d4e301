(* Spans around the benchmark's calls into each layer's public entry
   points, kept in memory and written out when the run ends.

   Tracing is off by default, and then [with_] is a plain call that
   only notes the layer it enters: the untraced and the traced runs
   execute the same request code, so the gap between them is the
   tracing overhead.  Spans nest through
   [current]; every span of one request carries that request's id. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for the root span of a traced round *)
  req : int;  (** request id, from 1; 0 for the root span *)
  t0 : int;  (** monotonic clock, ns *)
  t1 : int;
}

let now () = Int64.to_int (Monotonic_clock.now ())
let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0
let current_req = ref 0

(* Counts recorded at the same boundaries as the spans, summed over the
   traced requests. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  spans := [];
  next_id := 1;
  current := 0;
  current_req := 0;
  Hashtbl.reset counters

(* The innermost span name entered and not yet left, kept with tracing
   off too: when a call raises, it stays at the layer that raised, and
   the request's failure names that layer. *)
let layer = ref ""

let with_ name f =
  let outer = !layer in
  layer := name;
  if not !enabled then begin
    let r = f () in
    layer := outer;
    r
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    let req = !current_req in
    current := id;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      current := parent;
      spans := { id; name; parent; req; t0; t1 } :: !spans
    in
    match f () with
    | r ->
      finish ();
      layer := outer;
      r
    | exception e ->
      finish ();
      raise e
  end

(* The span of request [req]: every span opened inside it carries the id. *)
let request req f =
  current_req := req;
  match with_ "request" f with
  | r ->
    current_req := 0;
    r
  | exception e ->
    current_req := 0;
    raise e

let count name v =
  if !enabled then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

(* Self time of every span name, in ns: each span's duration minus the
   durations of its direct children. *)
let self_times () =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace child_ns s.parent
        ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      Hashtbl.replace self s.name
        (own + Option.value ~default:0 (Hashtbl.find_opt self s.name)))
    !spans;
  fun name -> Option.value ~default:0 (Hashtbl.find_opt self name)

(* Total duration of every span of [name], in ns. *)
let total_ns name =
  List.fold_left
    (fun acc s -> if s.name = name then acc + (s.t1 - s.t0) else acc)
    0 !spans

(* At most this many spans go to the trace file, the earliest first, so
   a long traced run keeps a bounded file; the metrics use every span. *)
let trace_file_spans = 20_000

let write_chrome_trace path =
  let all = List.sort (fun a b -> compare a.t0 b.t0) !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0 in
  let us ns = Json.Num (float_of_int ns /. 1000.0) in
  let events =
    List.filteri (fun i _ -> i < trace_file_spans) all
    |> List.map (fun s ->
           Json.Obj
             [
               ("name", Json.Str s.name);
               ("cat", Json.Str "layer");
               ("ph", Json.Str "X");
               ("ts", us (s.t0 - origin));
               ("dur", us (s.t1 - s.t0));
               ("pid", Json.Num 1.0);
               ("tid", Json.Num 1.0);
               ( "args",
                 Json.Obj
                   [
                     ("id", Json.Num (float_of_int s.id));
                     ("parent", Json.Num (float_of_int s.parent));
                     ("request", Json.Num (float_of_int s.req));
                   ] );
             ])
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]));
      output_char oc '\n')
