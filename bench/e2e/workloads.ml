(* The four workloads.  Each is a fixed round of design points (kernel
   source text plus grid); the seed shuffles every round and draws the
   data each design runs on, so the same seed gives the same request
   list.  The rounds are fixed rather than drawn so that the design
   metrics, which guard the emitted designs to 0.1%, mean the same thing
   on every seed.

   [serve] is the timed request: the only thing the library receives is
   the generated source text, grid and data seed.  [check] runs after
   the clock stops and names the layer a wrong output came from. *)

type entry = {
  key : string;  (** the design point: kernel id and grid *)
  kernel : string;  (** corpus id *)
  source : string;
  grid : int list;
}

type request = { entry : entry; data_seed : int }

type outcome = {
  design : (float * float) option;  (** emitted design: MPt/s, cycles *)
  failure : (string * string) option;  (** failing layer, reason *)
}

type t =
  | W : {
      name : string;
      count : int;  (** length of the generated request list *)
      round : Corpus.kernel list -> entry list;
      serve : request -> 'a;
      check : request -> 'a -> outcome;
    }
      -> t

let name (W w) = w.name

let grid_string g = String.concat "x" (List.map string_of_int g)

let entry (k : Corpus.kernel) grid =
  { key = k.id ^ "@" ^ grid_string grid; kernel = k.id; source = k.source; grid }

let ok design = { design = Some design; failure = None }
let fail layer fmt = Printf.ksprintf (fun m -> { design = None; failure = Some (layer, m) }) fmt

let laptop_round corpus =
  List.mapi (fun index (k : Corpus.kernel) -> entry k (Corpus.laptop_grid ~index k.rank)) corpus

(* ---- compile_corpus ---- *)

(* Expected (cu, ports per CU, model II) per design point, from
   expected/designs.tsv. *)
let designs_path root = Filename.concat root "bench/e2e/expected/designs.tsv"

let load_expected_designs root =
  Corpus.read_file (designs_path root)
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ key; cu; ports; ii ] when line.[0] <> '#' ->
           Some (key, (int_of_string cu, int_of_string ports, int_of_string ii))
         | _ -> None)

let design_shape (c : Shmls.compiled) =
  (c.c_cu, c.c_ports_per_cu, (Shmls.Perf_model.estimate_design c.c_design).e_ii)

let compile_corpus ~expected =
  W
    {
      name = "compile_corpus";
      count = 10_000;
      round = laptop_round;
      serve =
        (fun r ->
          let c = Pipeline.compile (Pipeline.parse r.entry.source) ~grid:r.entry.grid in
          (c, Pipeline.cost c));
      check =
        (fun r ((c : Shmls.compiled), (cost : Shmls.Cost_model.t)) ->
          let markers = Shmls_llvmir.Fplusplus.remaining_markers c.c_llvm in
          let cu, ports, ii = design_shape c in
          match List.assoc_opt r.entry.key expected with
          | _ when markers <> 0 -> fail "llvmir" "%d f++ markers left" markers
          | None -> fail "hls_steps" "%s is not in designs.tsv" r.entry.key
          | Some (cu', ports', ii') when (cu, ports, ii) <> (cu', ports', ii') ->
            fail "hls_steps" "cu x ports, II = %d x %d, %d; expected %d x %d, %d" cu ports ii
              cu' ports' ii'
          | Some _ -> ok (cost.mpts, cost.cycles));
    }

(* ---- paper_eval ---- *)

module PW = Shmls_kernels.Pw_advection
module TA = Shmls_kernels.Tracer_advection

let paper_configs =
  List.map (fun (label, g) -> ("pw_advection", label, g)) PW.sizes
  @ List.map (fun (label, g) -> ("tracer_advection", label, g)) TA.sizes

(* EXPERIMENTS.md, Figure 4: Stencil-HMLS MPt/s. *)
let fig4 =
  [
    ("pw_advection@8M", 1145.45);
    ("pw_advection@32M", 1165.53);
    ("pw_advection@134M", 1170.66);
    ("tracer_advection@8M", 270.61);
    ("tracer_advection@33M", 272.99);
  ]

let paper_eval ?(fig4 = fig4) () =
  W
    {
      name = "paper_eval";
      count = 100;
      round =
        (fun corpus ->
          List.map
            (fun (id, label, grid) ->
              { (entry (Corpus.find corpus id) grid) with key = id ^ "@" ^ label })
            paper_configs);
      serve =
        (fun r ->
          let k = Pipeline.parse r.entry.source in
          let c = Pipeline.compile k ~grid:r.entry.grid in
          let sim = Pipeline.cycle_sim c in
          let cost = Pipeline.cost c in
          (sim, cost, Pipeline.baselines k ~grid:r.entry.grid));
      check =
        (fun r ((sim : Shmls.Cycle_sim.result), (cost : Shmls.Cost_model.t), flows) ->
          let expected = List.assoc r.entry.key fig4 in
          let is_failure = function Shmls.Flow.Failure _ -> true | _ -> false in
          match flows with
          | _ when sim.deadlocked -> fail "fpga.cycle_sim" "deadlocked"
          | _ when Float.abs (cost.mpts -. expected) >= 0.005 ->
            fail "fpga.cost" "%.2f MPt/s; Fig. 4 has %.2f" cost.mpts expected
          | [ dace; _; _; stencilflow ] ->
            if is_failure dace <> (r.entry.key = "pw_advection@134M") then
              fail "baselines" "DaCe %s" (if is_failure dace then "failed" else "succeeded")
            else if not (is_failure stencilflow) then
              fail "baselines" "StencilFlow succeeded"
            else ok (cost.mpts, float_of_int sim.cycles)
          | _ -> fail "baselines" "expected four baseline flows");
    }

(* ---- verify_mix ---- *)

(* Two design points outgrow the caches: about one request in twelve. *)
let spilling = [ "zoo/shallow_water_2d"; "zoo/anisotropic_diffusion_3d" ]

let verify_mix ?tamper () =
  W
    {
      name = "verify_mix";
      count = 200;
      round =
        (fun corpus ->
          laptop_round corpus
          @ List.map
              (fun id ->
                let k = Corpus.find corpus id in
                entry k (Corpus.spilling_grid k.rank))
              spilling);
      serve =
        (fun r ->
          let c = Pipeline.compile (Pipeline.parse r.entry.source) ~grid:r.entry.grid in
          let fields = Pipeline.verify ?tamper ~seed:r.data_seed c in
          let sim = Pipeline.cycle_sim c in
          (fields, sim, Pipeline.cost c));
      check =
        (fun _ (fields, (sim : Shmls.Cycle_sim.result), (cost : Shmls.Cost_model.t)) ->
          match List.find_opt (fun (_, d) -> d <> 0.0) fields with
          | Some (f, d) -> fail "fpga.stage_compiler" "output %s: max |diff| = %g" f d
          | None when sim.deadlocked -> fail "fpga.cycle_sim" "deadlocked"
          | None -> ok (cost.mpts, float_of_int sim.cycles));
    }

(* ---- tune_slabs ---- *)

let tune_grids =
  [
    ("didactic/heat_3d", [ [ 10; 8; 6 ]; [ 12; 10; 8 ]; [ 16; 10; 8 ] ]);
    ("didactic/laplace_2d", [ [ 16; 12 ]; [ 24; 16 ]; [ 32; 16 ] ]);
    ("zoo/biharmonic_2d", [ [ 16; 12 ]; [ 16; 14 ]; [ 24; 16 ] ]);
    ("zoo/acoustic_wave_3d", [ [ 10; 8; 6 ]; [ 12; 10; 8 ]; [ 16; 10; 8 ] ]);
    ("zoo/shallow_water_2d", [ [ 16; 12 ]; [ 18; 14 ]; [ 24; 16 ] ]);
  ]

let count_tune (rep : Shmls_tune.Tune.report) =
  if !Span.enabled then begin
    let f = float_of_int in
    Span.count "tune.points" (f (List.length rep.r_evals));
    Span.count "tune.validations" (f (List.length rep.r_validations));
    Span.count "tune.enumerated" (f rep.r_enumerated);
    Span.count "tune.pruned"
      (f (rep.r_pruned_ports + rep.r_pruned_duplicate + rep.r_pruned_devices));
    let flagged = List.filter (fun (_, v) -> v.Shmls_tune.Tune.va_flagged) rep.r_validations in
    Span.count "tune.flagged" (f (List.length flagged));
    let hits, misses = Shmls.compile_cache_stats () in
    Span.count "core.cache_hits" (f hits);
    Span.count "core.cache_misses" (f misses);
    Span.count "core.compile_runs" (f (Shmls.compile_runs ()));
    Span.count "fpga.stage_compiler.plans_built" (f (Shmls.Stage_compiler.compile_count ()));
    Span.count "fpga.stage_compiler.states_created" (f (Shmls.Stage_compiler.state_count ()))
  end

let tune_slabs =
  W
    {
      name = "tune_slabs";
      count = 100;
      round =
        (fun corpus ->
          List.concat_map
            (fun (id, grids) -> List.map (entry (Corpus.find corpus id)) grids)
            tune_grids);
      serve =
        (fun r ->
          let k = Pipeline.parse r.entry.source in
          (* Each search runs on a fresh domain, as a fresh shmls-tune
             process would: [Stage_compiler.run] keeps one run state per
             plan in a domain-local cache that nothing evicts, so searches
             on one long-lived domain grow the heap by megabytes each. *)
          let rep =
            Span.with_ "tune" (fun () ->
                Domain.join
                  (Domain.spawn (fun () ->
                       Shmls_tune.Tune.run ~max_cu:2 ~devices:[ 1; 2; 4 ]
                         ~validate:Shmls_tune.Tune.All ~jobs:2 k ~grids:[ r.entry.grid ])))
          in
          count_tune rep;
          rep);
      check =
        (fun _ (rep : Shmls_tune.Tune.report) ->
          let best =
            List.fold_left
              (fun acc (fp : Shmls_tune.Tune.frontier_point) ->
                match acc with
                | Some (b : Shmls_tune.Tune.frontier_point)
                  when b.fp_eval.ev_cost.mpts >= fp.fp_eval.ev_cost.mpts ->
                  acc
                | _ -> Some fp)
              None rep.r_frontier
          in
          match
            List.find_opt (fun (_, v) -> v.Shmls_tune.Tune.va_max_diff <> 0.0) rep.r_validations
          with
          | Some (e, v) ->
            fail "tune" "%s: max |diff| = %g"
              (Shmls.Variant.to_string e.Shmls_tune.Tune.ev_point.pt_variant)
              v.va_max_diff
          | None -> (
            match best with
            | None -> fail "tune" "empty frontier"
            | Some fp ->
              ok (fp.fp_eval.ev_cost.mpts, float_of_int fp.fp_validation.va_measured_cycles)));
    }

let all ~expected = [ compile_corpus ~expected; paper_eval (); verify_mix (); tune_slabs ]

let find ~expected wanted =
  match List.find_opt (fun w -> String.equal (name w) wanted) (all ~expected) with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ wanted)

(* The generated request list: [count] requests in whole rounds, each
   round a fresh seeded permutation of the workload's design points. *)
let generate (W w) corpus ~seed =
  let points = Array.of_list (w.round corpus) in
  let n = Array.length points in
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  Array.concat
    (List.init ((w.count + n - 1) / n) (fun _ ->
         let p = Array.copy points in
         for i = n - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = p.(i) in
           p.(i) <- p.(j);
           p.(j) <- t
         done;
         Array.map (fun entry -> { entry; data_seed = Random.State.bits rng }) p))

let round_length (W w) corpus = List.length (w.round corpus)
