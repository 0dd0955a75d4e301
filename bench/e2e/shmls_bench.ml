(* shmls_bench: the end-to-end benchmark of the Stencil-HMLS toolchain.
   See README.md in this directory.

     shmls_bench --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last line of standard
         output is the result
     shmls_bench run --seed N [--seconds S] [--trace DIR] [--out FILE]
         every workload, each in its own process, with a metric table
     shmls_bench compare A.jsonl... -- B.jsonl...
         two sets of [run --out] records, judged by BENCHMARK.json
     shmls_bench setup --workload W --seed N
         one cold set-up; prints its time in seconds
     shmls_bench smoke
         the tier-1 self-check
     shmls_bench designs
         regenerate expected/designs.tsv

   [--root DIR] (default ".") names the repository checkout: the
   corpus, BENCHMARK.json and expected/designs.tsv are read from it. *)

let t_main = Span.now ()

let usage_error msg =
  prerr_endline ("shmls_bench: " ^ msg);
  exit 2

let parse argv spec ~anon usage =
  try Arg.parse_argv ~current:(ref 0) argv spec anon usage with
  | Arg.Bad msg -> usage_error msg
  | Arg.Help msg ->
    print_string msg;
    exit 0

let workload_names = List.map Workloads.name (Workloads.all ~expected:[])

let check_workload w =
  if not (List.mem w workload_names) then
    usage_error
      (Printf.sprintf "unknown workload %S (one of %s)" w (String.concat ", " workload_names))

(* ---- one workload ---- *)

let workload_main argv =
  let workload = ref "" and seed = ref 1 and seconds = ref 25.0 and trace = ref 0 in
  let root = ref "." and trace_dir = ref "" in
  parse argv
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated requests");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (whole rounds)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced replay");
      ("--root", Arg.Set_string root, "DIR repository checkout (default .)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR where the trace file goes");
    ]
    ~anon:(fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "shmls_bench --workload W --seed N --seconds S --trace 0|1";
  check_workload !workload;
  if !trace <> 0 && !trace <> 1 then usage_error "--trace takes 0 or 1";
  if not (!seconds > 0.0) then usage_error "--seconds must be positive";
  let trace = !trace = 1 in
  let trace_dir =
    if !trace_dir = "" then Filename.concat !root "bench/e2e/_trace" else !trace_dir
  in
  let r =
    Runner.run ~trace_dir ~t_main ~root:!root ~workload:!workload ~seed:!seed
      ~budget:(Runner.Seconds !seconds) ~trace ()
  in
  print_endline (Json.to_string (Runner.record_json r ~seconds:!seconds ~trace));
  print_endline (Json.to_string (Runner.result_json r ~trace));
  if r.failed > 0 then exit 1

(* One cold set-up, for a workload run's setup_s. *)
let setup_main argv =
  let workload = ref "" and seed = ref 1 and root = ref "." in
  parse argv
    [
      ("--workload", Arg.Set_string workload, "NAME workload to set up");
      ("--seed", Arg.Set_int seed, "N seed of the generated requests");
      ("--root", Arg.Set_string root, "DIR repository checkout (default .)");
    ]
    ~anon:(fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "shmls_bench setup --workload W --seed N";
  check_workload !workload;
  ignore (Sys.opaque_identity (Runner.setup ~root:!root ~workload:!workload ~seed:!seed));
  Printf.printf "%.9f\n" (float_of_int (Span.now () - t_main) /. 1e9)

(* ---- every workload, one process each ---- *)

let spawn args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match (status, !lines) with
  | Unix.WEXITED code, _ :: record :: _ -> (code, Some (Json.of_string record))
  | Unix.WEXITED code, _ -> (code, None)
  | _ -> (1, None)

let print_record record =
  let num k = Json.to_num (Json.member k record) in
  let host = Json.member "host" record in
  Printf.printf "\n%s: seed %.0f, %.0f samples of %.0f design points, digest %s\n"
    (Json.to_str (Json.member "workload" record))
    (num "seed") (num "samples") (num "design_points")
    (Json.to_str (Json.member "requests_digest" record));
  Printf.printf "  host: nproc %.0f, domains %.0f, OCaml %s, calib %.2f ms\n"
    (Json.to_num (Json.member "nproc" host))
    (Json.to_num (Json.member "recommended_domain_count" host))
    (Json.to_str (Json.member "ocaml_version" host))
    (Json.to_num (Json.member "calib_ms" host));
  List.iter
    (fun (name, m) ->
      Printf.printf "  %-24s %14.6g %s\n" name
        (Json.to_num (Json.member "value" m))
        (Json.to_str (Json.member "unit" m)))
    (Json.to_obj (Json.member "metrics" record));
  Printf.printf "  %-24s %14.6g ratio (%.0f of %.0f failed)\n" "failed_frac" (num "failed_frac")
    (num "failed") (num "attempted")

let print_failures record =
  List.iter
    (fun f ->
      Printf.printf "    FAILED %s [%s] %s\n" (Json.to_str (Json.member "request" f))
        (Json.to_str (Json.member "layer" f))
        (Json.to_str (Json.member "reason" f)))
    (Json.to_list (Json.member "failures" record))

let print_shares record =
  Printf.printf "  share of traced request time (self):\n";
  List.iter
    (fun (span, v) -> Printf.printf "    %-28s %6.1f%%\n" span (100.0 *. Json.to_num v))
    (List.sort
       (fun (_, a) (_, b) -> compare (Json.to_num b) (Json.to_num a))
       (Json.to_obj (Json.member "shares" record)))

let run_main argv =
  let seed = ref 1 and seconds = ref 25.0 and trace_dir = ref "" and out = ref "" in
  let root = ref "." in
  parse argv
    [
      ("--seed", Arg.Set_int seed, "N seed of the generated requests");
      ("--seconds", Arg.Set_float seconds, "S measure each workload for S seconds");
      ("--trace", Arg.Set_string trace_dir, "DIR also run traced; traces and layers.json go here");
      ("--out", Arg.Set_string out, "FILE append the result records (JSON Lines)");
      ("--root", Arg.Set_string root, "DIR repository checkout (default .)");
    ]
    ~anon:(fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "shmls_bench run --seed N [--seconds S] [--trace DIR] [--out FILE]";
  let common w =
    [ "--workload"; w; "--seed"; string_of_int !seed; "--seconds"; Printf.sprintf "%g" !seconds ]
    @ [ "--root"; !root ]
  in
  let ok = ref true in
  let records = ref [] in
  let layers = ref [] in
  List.iter
    (fun w ->
      let traced = [ (true, common w @ [ "--trace"; "1"; "--trace-dir"; !trace_dir ]) ] in
      let plain = (false, common w @ [ "--trace"; "0" ]) in
      let runs = plain :: (if !trace_dir = "" then [] else traced) in
      List.iter
        (fun (traced, args) ->
          match spawn args with
          | code, Some record ->
            records := record :: !records;
            if traced then begin
              layers := (w, Json.member "metrics" record) :: !layers;
              print_shares record
            end
            else print_record record;
            print_failures record;
            if code <> 0 then ok := false
          | code, None ->
            Printf.printf "\n%s: exited %d without a result\n" w code;
            ok := false)
        runs)
    workload_names;
  if !out <> "" then begin
    let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 !out in
    List.iter (fun r -> output_string oc (Json.to_string r ^ "\n")) (List.rev !records);
    close_out oc
  end;
  if !trace_dir <> "" then begin
    let oc = open_out (Filename.concat !trace_dir "layers.json") in
    output_string oc (Json.to_string (Json.Obj (List.rev !layers)) ^ "\n");
    close_out oc
  end;
  if not !ok then exit 1

(* ---- compare, smoke, designs ---- *)

let root_of argv =
  let root = ref "." and rest = ref [] in
  parse argv
    [ ("--root", Arg.Set_string root, "DIR repository checkout (default .)") ]
    ~anon:(fun a -> rest := a :: !rest)
    "shmls_bench compare|smoke|designs [--root DIR] ...";
  (!root, List.rev !rest)

let compare_main argv =
  (* split on the first "--" before Arg sees it *)
  let args = Array.to_list argv in
  let rec split acc = function
    | "--" :: b -> Some (List.rev acc, b)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  match split [] args with
  | None -> usage_error "usage: shmls_bench compare A.jsonl... -- B.jsonl..."
  | Some (a, b) ->
    let root, a = root_of (Array.of_list ("compare" :: a)) in
    if a = [] || b = [] then usage_error "compare needs files on both sides of --";
    let benchmark = Json.of_file (Filename.concat root "BENCHMARK.json") in
    if not (Compare.main ~benchmark a b) then exit 1

let designs_main argv =
  let root, _ = root_of argv in
  let corpus = Corpus.load ~root in
  print_endline "# design point\tcu\tports per CU\tmodel II (shmls_bench designs)";
  List.iter
    (fun (e : Workloads.entry) ->
      let c = Shmls.compile (Shmls.Psy_parser.parse e.source) ~grid:e.grid in
      let cu, ports, ii = Workloads.design_shape c in
      Printf.printf "%s\t%d\t%d\t%d\n" e.key cu ports ii)
    (Workloads.laptop_round corpus)

let () =
  let argv = Sys.argv in
  let sub = if Array.length argv > 1 then argv.(1) else "" in
  let rest () = Array.sub argv 1 (Array.length argv - 1) in
  try
    match sub with
    | "run" -> run_main (rest ())
    | "setup" -> setup_main (rest ())
    | "compare" -> compare_main (Array.sub argv 2 (Array.length argv - 2))
    | "smoke" -> Smoke.main ~root:(fst (root_of (rest ())))
    | "designs" -> designs_main (rest ())
    | _ -> workload_main argv
  with Failure msg | Sys_error msg | Json.Syntax msg ->
    prerr_endline ("shmls_bench: " ^ msg);
    exit 2
