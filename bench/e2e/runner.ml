(* One workload in this process: set-up, the closed loop with one
   client, the checks, and the result. *)

type budget =
  | Seconds of float  (** whole rounds until this much time has passed *)
  | Requests of int  (** one round cut to this many requests (the smoke) *)

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  failures : (string * string * string) list;  (** request, layer, reason *)
  samples : int;  (** untraced requests *)
  design_points : int;  (** distinct points among them: the latency samples *)
  traced_samples : int;
  generated : int;
  digest : string;  (** of the generated request list *)
  end_to_end : (string * float * string) list;  (** name, value, unit *)
  per_layer : (string * float * string) list;  (** traced runs only *)
  shares : (string * float) list;  (** traced runs only: span -> share *)
}

(* Every request is cold, like a fresh shmls-compile process: empty
   caches, and a heap holding no garbage of earlier requests (without
   the full major collection, peak RSS depends on where the collector
   happens to be when the largest request starts).  The Stage_compiler
   counters are reset too, so a traced request reads its own counts. *)
let cold () =
  Shmls.reset_compile_cache ();
  Shmls.Pass.reset_memo ();
  Shmls.Stage_compiler.reset_compile_count ();
  Shmls.Stage_compiler.reset_state_count ();
  Gc.full_major ()

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
        in
        go [])

let status_field name =
  let prefix = name ^ ":" in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some (String.trim (String.sub l n (String.length l - n)))
      else None)
    (read_lines "/proc/self/status")

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> 0.0)
  | None -> float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- host record ---- *)

(* CPUs this process may run on, from the affinity list ("0-1,4"). *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' part with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ _ ] -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' list)

(* A fixed amount of arithmetic, timed: drift between two sets of runs
   shows here.  Nothing is normalised by it. *)
let calib_ms () =
  let once () =
    let t0 = Span.now () in
    let acc = ref 0.0 in
    for i = 1 to 10_000_000 do
      acc := !acc +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (Span.now () - t0) /. 1e6
  in
  Metrics.median (List.init 3 (fun _ -> once ()))

let host () =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (nproc ())));
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("calib_ms", Json.Num (calib_ms ()));
    ]

(* ---- set-up ---- *)

type setup = {
  workload : Workloads.t;
  requests : Workloads.request array;
  round_len : int;
  digest : string;
}

let setup ~root ~workload ~seed =
  Shmls_transforms.Register.all ();
  let corpus = Corpus.load ~root in
  let expected = Workloads.load_expected_designs root in
  let w = Workloads.find ~expected workload in
  let requests = Workloads.generate w corpus ~seed in
  {
    workload = w;
    requests;
    round_len = Workloads.round_length w corpus;
    digest = Digest.to_hex (Digest.string (Marshal.to_string requests []));
  }

(* ---- the closed loop ---- *)

type tally = {
  mutable attempted : int;
  mutable failures : (string * string * string) list;  (** newest first *)
  mutable plain : (string * int) list;  (** untraced: design point, request time in ns *)
  mutable traced : (string * int) list;
  designs : (string, float * float) Hashtbl.t;  (** design point -> MPt/s, cycles *)
}

(* Serve [requests] in rounds of [round_len].  With [trace], every
   request is served twice in a row, traced and untraced, the order
   alternating, so both passes see the same requests under the same
   machine conditions; each traced round sits under a root span named
   after the workload. *)
let loop (Workloads.W w) ~requests ~round_len ~budget ~trace =
  let t =
    { attempted = 0; failures = []; plain = []; traced = []; designs = Hashtbl.create 64 }
  in
  let next_id = ref 0 in
  let one ~tracing (r : Workloads.request) =
    cold ();
    if tracing then incr next_id;
    let t0 = Span.now () in
    let served =
      match Span.request !next_id (fun () -> w.serve r) with
      | v -> Ok v
      | exception e -> Error (!Span.layer, Printexc.to_string e)
    in
    let dt = Span.now () - t0 in
    t.attempted <- t.attempted + 1;
    let sample = (r.entry.key, dt) in
    if tracing then t.traced <- sample :: t.traced else t.plain <- sample :: t.plain;
    let outcome =
      match served with
      | Error f -> { Workloads.design = None; failure = Some f }
      | Ok v -> (
        try w.check r v
        with e -> { design = None; failure = Some ("check", Printexc.to_string e) })
    in
    let failure =
      match (outcome.failure, outcome.design) with
      | Some f, _ -> Some f
      | None, Some d -> (
        match Hashtbl.find_opt t.designs r.entry.key with
        | Some d' when d' <> d -> Some ("design", "differs from an earlier request")
        | _ ->
          Hashtbl.replace t.designs r.entry.key d;
          None)
      | None, None -> None
    in
    Option.iter
      (fun (layer, reason) -> t.failures <- (r.entry.key, layer, reason) :: t.failures)
      failure
  in
  let n = Array.length requests in
  let start = Span.now () in
  let rounds = ref 0 in
  let more () =
    !rounds = 0
    ||
    match budget with
    | Requests _ -> false
    | Seconds s -> float_of_int (Span.now () - start) /. 1e9 < s
  in
  while more () do
    let len = match budget with Requests k -> min k round_len | Seconds _ -> round_len in
    let slice = Array.sub requests (!rounds * round_len mod n) len in
    if not trace then Array.iter (one ~tracing:false) slice
    else begin
      let serve tracing r =
        Span.enabled := tracing;
        one ~tracing r
      in
      Span.enabled := true;
      Span.with_ w.name (fun () ->
          Array.iteri
            (fun i r ->
              let first = i mod 2 = 0 in
              serve first r;
              serve (not first) r)
            slice);
      Span.enabled := false
    end;
    incr rounds
  done;
  t

(* Each design point's fastest request of the run, in ms, sorted: one
   value per point of the round.  The machine's speed drifts with the
   load of its other tenants, by up to 2x over seconds to minutes, and
   a point's best time is the one that drift inflates least; the
   quantiles of these times are the request metrics. *)
let best_ms samples =
  let best = Hashtbl.create 64 in
  List.iter
    (fun (key, ns) ->
      match Hashtbl.find_opt best key with
      | Some b when b <= ns -> ()
      | _ -> Hashtbl.replace best key ns)
    samples;
  Hashtbl.fold (fun _ ns acc -> (float_of_int ns /. 1e6) :: acc) best []
  |> List.sort compare |> Array.of_list

let per_layer (t : tally) ~plain_p50 =
  let self = Span.self_times () in
  let traced = best_ms t.traced in
  let totals =
    {
      Metrics.self_ms = (fun name -> float_of_int (self name) /. 1e6);
      counter = Span.counter;
      requests = float_of_int (List.length t.traced);
      unattributed_frac =
        Metrics.ratio (float_of_int (self "request")) (float_of_int (Span.total_ns "request"));
      trace_overhead_frac = Metrics.ratio (Metrics.quantile traced 0.5) plain_p50 -. 1.0;
    }
  in
  List.map (fun (name, unit, f) -> (name, f totals, unit)) Metrics.per_layer

(* Each span name's self time as a share of the traced request time;
   the request span's own share is the unattributed part. *)
let shares ~workload =
  let self = Span.self_times () in
  let total = float_of_int (Span.total_ns "request") in
  List.sort_uniq compare (List.map (fun (s : Span.span) -> s.name) !Span.spans)
  |> List.filter (fun name -> name <> workload)
  |> List.map (fun name ->
         ( (if name = "request" then "(unattributed)" else name),
           Metrics.ratio (float_of_int (self name)) total ))

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

(* The cold set-up of one more process, [shmls_bench setup], which
   prints its time from the first line of its [main] to the end of its
   set-up, in seconds. *)
let child_setup_s ~root ~workload ~seed =
  let exe = Sys.executable_name in
  let args =
    [| exe; "setup"; "--workload"; workload; "--seed"; string_of_int seed; "--root"; root |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim out)
  | _ -> failwith "a set-up process failed"

(* Set-ups timed per run: this process's own, from the first line of
   [main] to the first request, and the rest each in a fresh process,
   as cold as the first.  setup_s is their median. *)
let setups = 11

let run ~trace_dir ~t_main ~root ~workload ~seed ~budget ~trace () =
  let s = setup ~root ~workload ~seed in
  let own = float_of_int (Span.now () - t_main) /. 1e9 in
  let setup_s =
    Metrics.median (own :: List.init (setups - 1) (fun _ -> child_setup_s ~root ~workload ~seed))
  in
  Span.reset ();
  let t = loop s.workload ~requests:s.requests ~round_len:s.round_len ~budget ~trace in
  let best = best_ms t.plain in
  let p50 = Metrics.quantile best 0.5 in
  let designs = Hashtbl.fold (fun _ d acc -> d :: acc) t.designs [] in
  let end_to_end =
    [
      ("setup_s", setup_s);
      ("request_p50_ms", p50);
      ("request_p90_ms", Metrics.quantile best 0.9);
      ( "requests_per_s",
        Metrics.ratio
          (float_of_int (Array.length best))
          (Array.fold_left ( +. ) 0.0 best /. 1000.0) );
      ("peak_rss_mb", peak_rss_mb ());
      ("design_mpts_geomean", Metrics.geomean (List.map fst designs));
      ("design_cycles_geomean", Metrics.geomean (List.map snd designs));
    ]
    |> List.map (fun (name, v) -> (name, v, List.assoc name Metrics.end_to_end))
  in
  let per_layer = if trace then per_layer t ~plain_p50:p50 else [] in
  let shares = if trace then shares ~workload else [] in
  if trace then begin
    mkdir_p trace_dir;
    Span.write_chrome_trace (Filename.concat trace_dir (workload ^ ".trace.json"))
  end;
  ({
    workload;
    seed;
    attempted = t.attempted;
    failed = List.length t.failures;
    failures = List.rev t.failures;
    samples = List.length t.plain;
    design_points = Array.length best;
    traced_samples = List.length t.traced;
    generated = Array.length s.requests;
    digest = s.digest;
    end_to_end;
    per_layer;
    shares;
  } : result)

(* ---- output ---- *)

let metrics_json l =
  Json.Obj
    (List.map
       (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       l)

let failed_frac (r : result) = Metrics.ratio (float_of_int r.failed) (float_of_int r.attempted)

(* Everything the run knows, for [run], [compare] and the README. *)
let record_json (r : result) ~seconds ~trace =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("samples", Json.Num (float_of_int r.samples));
      ("design_points", Json.Num (float_of_int r.design_points));
      ("traced_samples", Json.Num (float_of_int r.traced_samples));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failed_frac", Json.Num (failed_frac r));
      ( "failures",
        Json.Arr
          (List.filteri (fun i _ -> i < 10) r.failures
          |> List.map (fun (key, layer, reason) ->
                 Json.Obj
                   [
                     ("request", Json.Str key);
                     ("layer", Json.Str layer);
                     ("reason", Json.Str reason);
                   ])) );
      ("requests_generated", Json.Num (float_of_int r.generated));
      ("requests_digest", Json.Str r.digest);
      ("host", host ());
      ("metrics", metrics_json (if trace then r.per_layer else r.end_to_end));
      ("shares", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.shares));
    ]

(* The result line: the last line of standard output. *)
let result_json (r : result) ~trace =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json (if trace then r.per_layer else r.end_to_end));
    ]
