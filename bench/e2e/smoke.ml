(* [shmls_bench smoke]: the tier-1 check of the benchmark itself.  Every
   workload runs a few requests with tracing on and every check on; the
   metric names must equal BENCHMARK.json's; every span must sit under
   a parent and carry a request id; the layer-by-layer request must give
   exactly the product's outputs; and the checks must be able to fail. *)

let fail fmt = Printf.ksprintf failwith ("smoke: " ^^ fmt)

(* (name, unit) of every metric BENCHMARK.json lists *)
let listed benchmark =
  List.concat_map
    (fun key ->
      List.map
        (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
        (Json.to_list (Json.member key benchmark)))
    [ "end_to_end"; "per_layer" ]

(* Root spans (one per traced round) have parent 0 and request 0; every
   other span has a recorded parent and a request id. *)
let check_spans workload =
  let ids = Hashtbl.create 256 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace ids s.id ()) !Span.spans;
  if !Span.spans = [] then fail "%s: no spans" workload;
  List.iter
    (fun (s : Span.span) ->
      let root = s.parent = 0 in
      if root && (s.name <> workload || s.req <> 0) then
        fail "%s: span %s has no parent" workload s.name;
      if (not root) && not (Hashtbl.mem ids s.parent) then
        fail "%s: span %s has an unknown parent" workload s.name;
      if (not root) && s.req < 1 then fail "%s: span %s has no request id" workload s.name)
    !Span.spans

let run_workloads ~root ~benchmark =
  let trace_dir = "smoke-trace" in
  List.iter
    (fun workload ->
      let t0 = Span.now () in
      let r =
        Runner.run ~trace_dir ~t_main:t0 ~root ~workload ~seed:1 ~budget:(Runner.Requests 2)
          ~trace:true ()
      in
      if r.failed <> 0 then begin
        List.iter (fun (k, l, m) -> Printf.eprintf "  %s [%s] %s\n" k l m) r.failures;
        fail "%s: %d of %d requests failed" workload r.failed r.attempted
      end;
      check_spans workload;
      let emitted = List.map (fun (n, _, u) -> (n, u)) (r.end_to_end @ r.per_layer) in
      if emitted <> listed benchmark then
        fail "%s: the emitted metrics differ from BENCHMARK.json's" workload;
      let trace = Json.of_file (Filename.concat trace_dir (workload ^ ".trace.json")) in
      if Json.to_list (Json.member "traceEvents" trace) = [] then fail "%s: empty trace" workload;
      Printf.printf "smoke: %-15s %d requests ok (%.2f s)\n%!" workload r.attempted
        (float_of_int (Span.now () - t0) /. 1e9))
    (List.map Workloads.name (Workloads.all ~expected:[]))

(* ---- composition guard ---- *)

(* [Design.t] with its IR printed and its stream ids (process-wide SSA
   value ids) numbered from 0 in stream order, so two compiles of one
   kernel in one process compare equal exactly when their designs do. *)
let design_repr (d : Shmls.Design.t) =
  let index = List.mapi (fun i (s : Shmls.Design.stream) -> (s.st_id, i)) d.d_streams in
  let id s = List.assoc s index in
  let ids = List.map id in
  let m v = Marshal.to_string v [] in
  let stage : Shmls.Design.stage -> string = function
    | Load l -> m (`Load (ids l.out_streams, l.ptr_args))
    | Shift s -> m (`Shift (id s.input, id s.output, s.halo, s.extent))
    | Dup d -> m (`Dup (id d.input, ids d.outputs))
    | Compute c ->
      (* df_op is part of d_func, compared as printed IR *)
      m
        (`Compute
          ( c.name,
            ids c.in_streams,
            ids c.out_streams,
            (c.serial, c.ext_reads, c.ii, c.flops, c.small_copies, c.small_bytes) ))
    | Write w -> m (`Write (ids w.in_streams, w.ptr_args, w.halo, w.extent))
  in
  ( Shmls.Printer.to_string d.d_func,
    m
      ( d.d_name,
        d.d_grid,
        d.d_halo,
        d.d_cu,
        d.d_ports_per_cu,
        d.d_port_bytes,
        List.map (fun (s : Shmls.Design.stream) -> { s with st_id = id s.st_id }) d.d_streams,
        d.d_interfaces ),
    List.map stage d.d_stages )

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

(* Replace every whole-identifier occurrence of [name] in [s]. *)
let rename_in s (name, by) =
  let b = Buffer.create (String.length s) in
  let n = String.length name and len = String.length s in
  let i = ref 0 in
  while !i < len do
    if
      !i + n <= len
      && String.sub s !i n = name
      && (!i = 0 || not (is_ident_char s.[!i - 1]))
      && (!i + n = len || not (is_ident_char s.[!i + n]))
    then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The LLVM emitter numbers outlined stage functions with a counter
   that lives as long as the process, so one design emitted twice in a
   process differs in those suffixes alone.  Number them from 0 in
   module order, as a fresh process would. *)
let stage_renaming (c : Shmls.compiled) =
  List.filter
    (fun (f : Shmls_llvmir.Ll.func) -> f.fn_name <> c.c_kernel.k_name)
    c.c_llvm.m_funcs
  |> List.mapi (fun i (f : Shmls_llvmir.Ll.func) ->
         let base = String.sub f.fn_name 0 (String.rindex f.fn_name '_') in
         (f.fn_name, Printf.sprintf "%s_%d" base i))

let llvm_text c = List.fold_left rename_in (Shmls.emit_llvm_text c) (stage_renaming c)

let fpp_report (c : Shmls.compiled) =
  let renaming = stage_renaming c in
  {
    c.c_fpp with
    origins =
      List.map
        (fun (f, src) -> (Option.value ~default:f (List.assoc_opt f renaming), src))
        c.c_fpp.origins;
  }

let composition_guard corpus =
  List.iter
    (fun (k : Corpus.kernel) ->
      let grid = Corpus.tiny_grid k.rank in
      let product = Shmls.compile (Shmls.Psy_parser.parse k.source) ~grid in
      let product_cost = Shmls.Cost_model.evaluate_design product.c_design in
      let bench = Pipeline.compile (Pipeline.parse k.source) ~grid in
      let same what a b = if a <> b then fail "%s: %s differs from Shmls.compile" k.id what in
      same "the HLS module" (Shmls.emit_hls_text product) (Shmls.emit_hls_text bench);
      same "the LLVM text" (llvm_text product) (llvm_text bench);
      same "the connectivity config" product.c_connectivity bench.c_connectivity;
      same "the f++ report" (fpp_report product) (fpp_report bench);
      same "the design" (design_repr product.c_design) (design_repr bench.c_design);
      same "(cu, ports)" (product.c_cu, product.c_ports_per_cu) (bench.c_cu, bench.c_ports_per_cu);
      same "the cost" product_cost (Pipeline.cost bench))
    corpus;
  Printf.printf "smoke: composition guard ok on %d kernels\n%!" (List.length corpus)

(* ---- the checks can fail ---- *)

let expect_failure ~what ~layer w (request : Workloads.request) =
  let t =
    Runner.loop w ~requests:[| request |] ~round_len:1 ~budget:(Runner.Requests 1) ~trace:false
  in
  match t.failures with
  | [ (_, l, reason) ] when l = layer ->
    Printf.printf "smoke: %s is caught by %s (%s)\n%!" what layer reason
  | [ (_, l, reason) ] -> fail "%s was blamed on %s, not %s: %s" what l layer reason
  | _ -> fail "%s was not counted as a failure" what

let pick corpus w (wanted : Workloads.entry -> bool) =
  match
    List.find_opt
      (fun (r : Workloads.request) -> wanted r.entry)
      (Array.to_list (Workloads.generate w corpus ~seed:1))
  with
  | Some r -> r
  | None -> fail "no such request"

let checks_can_fail corpus =
  (* one element of one output field of the design run *)
  let tamper (c : Shmls.compiled) (st : Shmls.Interp.kernel_state) =
    let out =
      List.find
        (fun (fd : Shmls.Ast.field_decl) -> fd.fd_role <> Shmls.Ast.Input)
        c.c_kernel.k_fields
    in
    let g = List.assoc out.fd_name st.fields in
    let origin = List.map (fun _ -> 0) c.c_grid in
    Shmls.Grid.set g origin (Shmls.Grid.get g origin +. 1.0)
  in
  let w = Workloads.verify_mix ~tamper () in
  expect_failure ~what:"a corrupted design output" ~layer:"fpga.stage_compiler" w
    (pick corpus w (fun e -> e.kernel = "didactic/laplace_2d"));
  let fig4 =
    List.map
      (fun (k, v) -> if k = "pw_advection@8M" then (k, v +. 0.01) else (k, v))
      Workloads.fig4
  in
  let w = Workloads.paper_eval ~fig4 () in
  expect_failure ~what:"a wrong Fig. 4 value" ~layer:"fpga.cost" w
    (pick corpus w (fun e -> e.key = "pw_advection@8M"));
  (* a layer that raises is named, not the request around it *)
  let w = Workloads.compile_corpus ~expected:[] in
  let r = pick corpus w (fun e -> e.kernel = "didactic/laplace_2d") in
  expect_failure ~what:"unparsable source" ~layer:"frontend.parse" w
    { r with entry = { r.entry with source = "kernel (" } };
  expect_failure ~what:"a grid of the wrong rank" ~layer:"frontend.lower" w
    { r with entry = { r.entry with grid = [ 8 ] } }

(* ---- the expected designs match the paper ---- *)

let check_paper_designs root =
  let expected = Workloads.load_expected_designs root in
  let shape prefix =
    List.sort_uniq compare
      (List.filter_map
         (fun (k, (cu, ports, _)) ->
           if String.starts_with ~prefix k then Some (ports, cu) else None)
         expected)
  in
  if shape "pw_advection@" <> [ (7, 4) ] then
    fail "designs.tsv: PW advection is not 7 ports x 4 CUs";
  if shape "tracer_advection@" <> [ (17, 1) ] then
    fail "designs.tsv: tracer advection is not 17 ports x 1 CU"

(* ---- compare ---- *)

let check_compare () =
  let base = [ 10.0; 10.1; 9.9; 10.05; 9.95 ] in
  let scaled f = List.map (fun v -> v *. f) base in
  let v a b = Compare.classify ~bound:(Some 0.1) ~lower_is_better:true a b in
  if v base (scaled 1.02) <> Compare.Same then fail "compare: +2%% is not the same";
  if v base (scaled 1.5) <> Compare.Worse then fail "compare: +50%% is not worse";
  if v base (scaled 0.5) <> Compare.Better then fail "compare: -50%% is not better";
  if v base [ 5.0; 10.0; 20.0; 10.0; 1.0 ] <> Compare.Unresolved then
    fail "compare: a wide set is not unresolved";
  (* one failing run among five clean ones: the medians stay 0 *)
  let record failed =
    Json.Obj
      [
        ("attempted", Json.Num 100.0);
        ("failed", Json.Num failed);
        ("failed_frac", Json.Num (failed /. 100.0));
      ]
  in
  let clean = List.init 5 (fun _ -> record 0.0) in
  let _, _, v = Compare.judge ("failed_frac", None, true) clean (record 1.0 :: clean) in
  if v <> Compare.Worse then fail "compare: one failing run is not worse"

let main ~root =
  let t0 = Span.now () in
  let benchmark = Json.of_file (Filename.concat root "BENCHMARK.json") in
  check_paper_designs root;
  check_compare ();
  let corpus = Corpus.load ~root in
  composition_guard corpus;
  checks_can_fail corpus;
  run_workloads ~root ~benchmark;
  Printf.printf "smoke: ok (%.1f s)\n" (float_of_int (Span.now () - t0) /. 1e9)
