(* The design-space autotuner (DESIGN.md section 14.2).

   The search driver enumerates variant x cu x grid-shape points from
   {!Variant.search_space}, prunes the ones the U280 shell can never
   host (cu x ports_per_cu beyond the AXI port budget) and the
   duplicates (an explicit cu equal to the derived one compiles to the
   same design), prices the survivors with {!Cost.evaluate} —
   model-only: a point costs one cached compile and one cost
   evaluation, never a simulation — and maintains the 2-D Pareto
   frontier of throughput (MPt/s, up) against the tightest resource
   fraction (down).

   Validation used to be a frontier-only affair, because the tick-level
   cycle simulator priced each point at a whole per-cycle run.  The
   event-driven engine's steady-state fast-forward makes a validation
   cost roughly fill + drain, so the default scope is now [All]: every
   feasible point is validated bit-exact by the whole-stream batched
   functional simulator and cycle-counted by {!Cycle_sim} on the
   work-stealing pool, and the measured cycles are compared against the
   model's per-CU prediction (the cycle simulator executes one CU over
   the whole padded grid, so the comparison point is the cost
   evaluation at [~cu:1]); points diverging beyond the tolerance are
   flagged, not hidden.  [~validate] narrows the scope back to
   [Frontier] or the [Top n] points; the frontier is always validated
   regardless.  Each validation row records the fill/steady
   cross-check of {!Perf_model.check_fill_steady} when a steady-state
   period was detected.

   Search state is a resumable JSON Lines file: one content-keyed row
   per evaluated point and per validated frontier point, appended in
   deterministic order.  A resumed run reloads the rows, skips every
   known key, and appends only genuinely new work — so re-running a
   finished search performs zero recompiles, zero re-simulations, and
   leaves the file byte-identical. *)

module Variant = Shmls_transforms.Variant
module Cost = Shmls_fpga.Cost
module U280 = Shmls_fpga.U280
module Jsonl = Shmls_support.Jsonl
module Pool = Shmls_support.Pool
module Err = Shmls_support.Err
module Ast = Shmls_frontend.Ast

type point = { pt_grid : int list; pt_variant : Variant.t; pt_devices : int }

type eval = {
  ev_point : point;
  ev_cu : int;  (** resolved CU replication of the compiled design *)
  ev_ports_per_cu : int;
  ev_cost : Cost.t;
  ev_frac : float;  (** tightest resource column / budget *)
  ev_feasible : bool;
}

type validation = {
  va_max_diff : float;  (** batched functional sim vs reference interp *)
  va_model_cycles : float;  (** the cost evaluation at [~cu:1] *)
  va_measured_cycles : int;  (** {!Cycle_sim} *)
  va_divergence : float;  (** |model - measured| / measured *)
  va_fill_divergence : float option;
      (** {!Perf_model.check_fill_steady}: |model fill - measured fill|
          over total measured cycles, when a steady period was seen *)
  va_flagged : bool;  (** cycle or fill divergence beyond tolerance *)
}

type validate_scope = Frontier | All | Top of int

let validate_scope_to_string = function
  | Frontier -> "frontier"
  | All -> "all"
  | Top n -> string_of_int n

let validate_scope_of_string s =
  match s with
  | "frontier" -> Ok Frontier
  | "all" -> Ok All
  | _ -> (
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok (Top n)
    | _ ->
      Error
        (Printf.sprintf
           "bad validation scope %S (expected frontier, all or a count)" s))

type frontier_point = { fp_eval : eval; fp_validation : validation }

type report = {
  r_kernel : string;
  r_budget : U280.budget;
  r_enumerated : int;
  r_pruned_ports : int;
  r_pruned_duplicate : int;
  r_pruned_devices : int;
  r_evaluated_new : int;
  r_resumed : int;
  r_simulated : int;
  r_validations_resumed : int;
  r_evals : eval list;  (** all evaluated points, enumeration order *)
  r_validations : (eval * validation) list;
      (** every validated point (resumed or fresh), validation order *)
  r_frontier : frontier_point list;  (** frac ascending *)
}

(* ------------------------------------------------------------------ *)
(* Pareto frontier: maximise mpts, minimise frac. *)

let dominates a b =
  a.ev_cost.Cost.mpts >= b.ev_cost.Cost.mpts
  && a.ev_frac <= b.ev_frac
  && (a.ev_cost.Cost.mpts > b.ev_cost.Cost.mpts || a.ev_frac < b.ev_frac)

(* A total, input-order-independent key: the objectives first, then the
   point identity as the tie-break. *)
let eval_key e =
  ( e.ev_frac,
    -.e.ev_cost.Cost.mpts,
    Variant.to_string e.ev_point.pt_variant,
    e.ev_point.pt_grid,
    e.ev_point.pt_devices )

let pareto evals =
  let sorted = List.sort (fun a b -> compare (eval_key a) (eval_key b)) evals in
  let _, rev =
    List.fold_left
      (fun (best, acc) e ->
        if List.exists (fun f -> dominates f e) best then (best, acc)
        else (e :: best, e :: acc))
      ([], []) sorted
  in
  List.rev rev

(* ------------------------------------------------------------------ *)
(* Search state rows *)

let point_key ?(link = Shmls_fpga.Link.default) ~kernel ~budget (p : point) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( kernel,
            p.pt_grid,
            Variant.to_string p.pt_variant,
            budget.U280.bud_name,
            p.pt_devices,
            (* the link prices multi-device points; single-device rows
               stay resumable across link settings *)
            (if p.pt_devices > 1 then Shmls_fpga.Link.to_string link else "") )
          []))

let point_row ~kernel key (e : eval) =
  Jsonl.obj
    [
      ("type", Jsonl.Str "point");
      ("key", Jsonl.Str key);
      ("kernel", Jsonl.Str kernel);
      ("grid", Jsonl.Ints e.ev_point.pt_grid);
      ("variant", Jsonl.Str (Variant.to_string e.ev_point.pt_variant));
      ("devices", Jsonl.Int e.ev_point.pt_devices);
      ("cu", Jsonl.Int e.ev_cu);
      ("ports_per_cu", Jsonl.Int e.ev_ports_per_cu);
      ("cycles", Jsonl.Float e.ev_cost.Cost.cycles);
      ("mpts", Jsonl.Float e.ev_cost.Cost.mpts);
      ("lut", Jsonl.Int e.ev_cost.Cost.lut);
      ("ff", Jsonl.Int e.ev_cost.Cost.ff);
      ("bram", Jsonl.Int e.ev_cost.Cost.bram);
      ("uram", Jsonl.Int e.ev_cost.Cost.uram);
      ("dsp", Jsonl.Int e.ev_cost.Cost.dsp);
      ("watts", Jsonl.Float e.ev_cost.Cost.watts);
      ("frac", Jsonl.Float e.ev_frac);
      ("feasible", Jsonl.Bool e.ev_feasible);
    ]

let validation_row ~kernel key (p : point) (v : validation) =
  Jsonl.obj
    ([
       ("type", Jsonl.Str "validation");
       ("key", Jsonl.Str key);
       ("kernel", Jsonl.Str kernel);
       ("grid", Jsonl.Ints p.pt_grid);
       ("variant", Jsonl.Str (Variant.to_string p.pt_variant));
       ("devices", Jsonl.Int p.pt_devices);
       ("max_diff", Jsonl.Float v.va_max_diff);
       ("model_cycles", Jsonl.Float v.va_model_cycles);
       ("measured_cycles", Jsonl.Int v.va_measured_cycles);
       ("divergence", Jsonl.Float v.va_divergence);
     ]
    @ (match v.va_fill_divergence with
      | None -> []
      | Some f -> [ ("fill_divergence", Jsonl.Float f) ])
    @ [ ("flagged", Jsonl.Bool v.va_flagged) ])

let eval_of_row line (p : point) =
  let req name = function
    | Some v -> v
    | None ->
      Err.raise_error "tune: resume state row is missing field %S: %s" name
        line
  in
  let f name = req name (Jsonl.find_float line name) in
  let i name = req name (Jsonl.find_int line name) in
  {
    ev_point = p;
    ev_cu = i "cu";
    ev_ports_per_cu = i "ports_per_cu";
    ev_cost =
      {
        Cost.cycles = f "cycles";
        mpts = f "mpts";
        lut = i "lut";
        ff = i "ff";
        bram = i "bram";
        uram = i "uram";
        dsp = i "dsp";
        watts = f "watts";
      };
    ev_frac = f "frac";
    ev_feasible = req "feasible" (Jsonl.find_bool line "feasible");
  }

let validation_of_row line =
  let req name = function
    | Some v -> v
    | None ->
      Err.raise_error "tune: resume state row is missing field %S: %s" name
        line
  in
  let f name = req name (Jsonl.find_float line name) in
  {
    va_max_diff = f "max_diff";
    va_model_cycles = f "model_cycles";
    va_measured_cycles = req "measured_cycles" (Jsonl.find_int line "measured_cycles");
    va_divergence = f "divergence";
    (* rows written before the cycle simulator had a single engine also
       carry an "engine" key; it is ignored *)
    va_fill_divergence = Jsonl.find_float line "fill_divergence";
    va_flagged = req "flagged" (Jsonl.find_bool line "flagged");
  }

(* Load the resume state: key -> raw point row, key -> validation. *)
let load_state path =
  let points = Hashtbl.create 64 in
  let validations = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match (Jsonl.find_string line "type", Jsonl.find_string line "key") with
      | Some "point", Some key -> Hashtbl.replace points key line
      | Some "validation", Some key ->
        Hashtbl.replace validations key (validation_of_row line)
      | _ -> Err.raise_error "tune: unrecognised resume state row: %s" line)
    (Jsonl.lines_of_file path);
  (points, validations)

(* ------------------------------------------------------------------ *)
(* The search driver *)

let default_divergence_tolerance = 0.10

(* The model/measured judgement of one validation: the cycle divergence
   is normalised by the measured count, and either it or the fill
   divergence beyond the tolerance flags the point. *)
let judge ?(divergence_tolerance = default_divergence_tolerance) ~max_diff
    ~model_cycles ~measured_cycles ~fill_divergence () =
  let divergence =
    Float.abs (model_cycles -. float_of_int measured_cycles)
    /. float_of_int (max 1 measured_cycles)
  in
  let fill_flagged =
    match fill_divergence with
    | Some f -> f > divergence_tolerance
    | None -> false
  in
  {
    va_max_diff = max_diff;
    va_model_cycles = model_cycles;
    va_measured_cycles = measured_cycles;
    va_divergence = divergence;
    va_fill_divergence = fill_divergence;
    va_flagged = divergence > divergence_tolerance || fill_flagged;
  }

let show_point (p : point) =
  Printf.sprintf "%s on %s at %d device(s)"
    (Variant.to_string p.pt_variant)
    (String.concat "x" (List.map string_of_int p.pt_grid))
    p.pt_devices

let run ?(budget = U280.budget)
    ?(max_cu = 8) ?(jobs = 0) ?state ?(resume = false)
    ?(divergence_tolerance = default_divergence_tolerance)
    ?(validate = All) ?(devices = [ 1 ]) ?(link = Shmls_fpga.Link.default)
    (kernel : Ast.kernel) ~grids =
  let kname = kernel.Ast.k_name in
  let devices = if devices = [] then [ 1 ] else devices in
  List.iter
    (fun d ->
      if d < 1 then Err.raise_error "tune: bad device count %d (want >= 1)" d)
    devices;
  let point_key = point_key ~link in
  let known_points, known_validations =
    match state with
    | Some path when resume -> load_state path
    | _ -> (Hashtbl.create 0, Hashtbl.create 0)
  in
  let out =
    match state with
    | None -> None
    | Some path ->
      let flags =
        if resume then [ Open_wronly; Open_append; Open_creat ]
        else [ Open_wronly; Open_trunc; Open_creat ]
      in
      Some (open_out_gen flags 0o644 path)
  in
  let emit line =
    match out with
    | None -> ()
    | Some oc ->
      output_string oc line;
      output_char oc '\n'
  in
  let enumerated = ref 0 in
  let pruned_ports = ref 0 in
  let pruned_duplicate = ref 0 in
  let pruned_devices = ref 0 in
  let evaluated_new = ref 0 in
  let resumed = ref 0 in
  let compiled_designs : (string, Shmls.compiled) Hashtbl.t =
    Hashtbl.create 64
  in
  (* A multi-device point is priced on its largest slab — the makespan
     lane — with the link model charging the halo exchange. *)
  let slab_grid_of (p : point) =
    if p.pt_devices <= 1 then p.pt_grid
    else
      let n0 = List.hd p.pt_grid in
      ((n0 + p.pt_devices - 1) / p.pt_devices) :: List.tl p.pt_grid
  in
  let compile_point (p : point) =
    Shmls.compile_cached ~variant:p.pt_variant kernel ~grid:(slab_grid_of p)
  in
  let loaded_fields = Shmls.Cost_model.loaded_fields kernel in
  let cost_of ?cu (p : point) (c : Shmls.compiled) =
    Shmls.Cost_model.evaluate_multi_device ?cu ~link ~devices:p.pt_devices
      ~global_grid:p.pt_grid ~fields:loaded_fields c.Shmls.c_design
  in
  let evaluate_point key (p : point) =
    match Hashtbl.find_opt known_points key with
    | Some line ->
      incr resumed;
      eval_of_row line p
    | None ->
      let c = compile_point p in
      Hashtbl.replace compiled_designs key c;
      let cost = cost_of p c in
      let e =
        {
          ev_point = p;
          ev_cu = c.Shmls.c_cu;
          ev_ports_per_cu = c.Shmls.c_ports_per_cu;
          ev_cost = cost;
          ev_frac = Cost.max_fraction ~budget cost;
          ev_feasible = Cost.feasible ~budget cost;
        }
      in
      incr evaluated_new;
      emit (point_row ~kernel:kname key e);
      e
  in
  (* Enumerate grid-major, variants in [search_space] order.  The
     derived-CU point ([v_cu = None]) of each (split, pack) group comes
     first and tells us the group's ports-per-CU and derived CU count —
     the data the port-budget pruning and the duplicate-CU dedup need,
     without compiling the pruned points. *)
  let evals = ref [] in
  List.iter
    (fun grid ->
      List.iter
        (fun nd ->
          (* more slabs than dim-0 rows cannot tile the grid *)
          if nd > List.hd grid then incr pruned_devices
          else
            let group : (bool * bool, int * int) Hashtbl.t =
              Hashtbl.create 4
            in
            List.iter
              (fun (v : Variant.t) ->
                incr enumerated;
                let p = { pt_grid = grid; pt_variant = v; pt_devices = nd } in
                let key = point_key ~kernel:kname ~budget p in
                match v.Variant.v_cu with
                | None ->
                  let e = evaluate_point key p in
                  Hashtbl.replace group
                    (v.Variant.v_split, v.Variant.v_pack)
                    (e.ev_ports_per_cu, e.ev_cu);
                  evals := e :: !evals
                | Some n ->
                  let ports_per_cu, derived_cu =
                    try Hashtbl.find group (v.Variant.v_split, v.Variant.v_pack)
                    with Not_found ->
                      Err.raise_error
                        "tune: derived-CU point missing for variant group"
                  in
                  if n = derived_cu then incr pruned_duplicate
                  else if n * ports_per_cu > budget.U280.bud_axi_ports then
                    incr pruned_ports
                  else evals := evaluate_point key p :: !evals)
              (Variant.search_space ~max_cu))
        devices)
    grids;
  let evals = List.rev !evals in
  let feasible = List.filter (fun e -> e.ev_feasible) evals in
  (* The frontier, over feasible points only. *)
  let frontier = pareto feasible in
  (* The validation scope.  The frontier is always validated (the
     report pairs each frontier point with its validation); [All] and
     [Top n] widen the set — cheap now that the event engine
     fast-forwards the steady state. *)
  let to_validate =
    match validate with
    | All -> feasible
    | Frontier -> frontier
    | Top n ->
      let seen = Hashtbl.create 16 in
      let add acc e =
        let key = point_key ~kernel:kname ~budget e.ev_point in
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.add seen key ();
          e :: acc
        end
      in
      (* the frontier, then the n best remaining points by the
         frontier's own ordering key *)
      let best =
        List.sort (fun a b -> compare (eval_key a) (eval_key b)) feasible
      in
      let with_frontier = List.fold_left add [] frontier in
      let rec take k acc = function
        | e :: rest when k > 0 ->
          let acc' = add acc e in
          take (if acc' == acc then k else k - 1) acc' rest
        | _ -> acc
      in
      List.rev (take n with_frontier best)
  in
  (* Validate: batched functional sim (bit-exactness) plus the cycle
     simulator, on the pool.  Designs are compiled (or fetched from the
     eval-phase cache) sequentially first — IR construction wants
     deterministic ids — so the parallel phase only simulates. *)
  let simulated = ref 0 in
  let validations_resumed = ref 0 in
  let todo =
    List.filter_map
      (fun e ->
        let key = point_key ~kernel:kname ~budget e.ev_point in
        match Hashtbl.find_opt known_validations key with
        | Some _ ->
          incr validations_resumed;
          None
        | None ->
          let c =
            match Hashtbl.find_opt compiled_designs key with
            | Some c -> c
            | None -> compile_point e.ev_point
          in
          Some (key, e, c))
      to_validate
  in
  (* Multi-device plans are built sequentially up front for the same
     reason the designs are compiled up front: deterministic IR ids.
     The parallel phase only simulates. *)
  let todo =
    List.map
      (fun ((_, e, _) as item) ->
        let plan =
          if e.ev_point.pt_devices <= 1 then None
          else
            Some
              (Shmls_host.Multi_device.plan ~variant:e.ev_point.pt_variant
                 ~link kernel ~grid:e.ev_point.pt_grid
                 ~devices:e.ev_point.pt_devices)
        in
        (item, plan))
      todo
  in
  let fresh =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map_list pool
          (fun ((key, e, c), plan) ->
            let model_cycles = (cost_of ~cu:1 e.ev_point c).Cost.cycles in
            let max_diff, measured, deadlocked, fill_divergence =
              match plan with
              | None ->
                let verification = Shmls.verify c in
                let cs = Shmls_fpga.Cycle_sim.run c.Shmls.c_design in
                let fill_divergence =
                  Option.map
                    (fun fs -> fs.Shmls_fpga.Perf_model.fs_divergence)
                    (Shmls_fpga.Perf_model.check_fill_steady c.Shmls.c_design
                       cs)
                in
                ( verification.Shmls.v_max_diff,
                  cs.Shmls_fpga.Cycle_sim.cycles,
                  cs.Shmls_fpga.Cycle_sim.deadlocked,
                  fill_divergence )
              | Some plan ->
                (* the reassembled N-slab run against the global
                   reference, and the ensemble makespan with the link
                   charge — the measured side of the model's own
                   slab + link prediction *)
                let verification =
                  Shmls_host.Multi_device.verify_vs_reference plan
                in
                let mr = Shmls_host.Multi_device.estimate plan in
                let makespan = Float.round mr.Shmls_fpga.Cycle_sim.mr_cycles in
                (* [int_of_float] is unspecified on nan, inf and values
                   beyond the int range *)
                if not (Float.abs makespan < float_of_int max_int) then
                  Err.raise_error ~loc:kernel.Ast.k_loc
                    "tune: design %s has an ensemble makespan of %g cycles, \
                     beyond the cycle counter (link %s)"
                    (show_point e.ev_point) makespan
                    (Shmls_fpga.Link.to_string link);
                ( verification.Shmls.v_max_diff,
                  int_of_float makespan,
                  mr.Shmls_fpga.Cycle_sim.mr_deadlocked,
                  None )
            in
            if deadlocked then
              Err.raise_error "tune: design %s deadlocked in the cycle simulator"
                (show_point e.ev_point);
            ( key,
              e.ev_point,
              judge ~divergence_tolerance ~max_diff ~model_cycles
                ~measured_cycles:measured ~fill_divergence () ))
          todo)
  in
  List.iter
    (fun (key, p, v) ->
      incr simulated;
      emit (validation_row ~kernel:kname key p v);
      Hashtbl.replace known_validations key v)
    fresh;
  let frontier_points =
    List.map
      (fun e ->
        let key = point_key ~kernel:kname ~budget e.ev_point in
        match Hashtbl.find_opt known_validations key with
        | Some v -> { fp_eval = e; fp_validation = v }
        | None -> assert false)
      frontier
  in
  let validations =
    List.filter_map
      (fun e ->
        let key = point_key ~kernel:kname ~budget e.ev_point in
        Option.map (fun v -> (e, v)) (Hashtbl.find_opt known_validations key))
      to_validate
  in
  (match out with Some oc -> close_out oc | None -> ());
  {
    r_kernel = kname;
    r_budget = budget;
    r_enumerated = !enumerated;
    r_pruned_ports = !pruned_ports;
    r_pruned_duplicate = !pruned_duplicate;
    r_pruned_devices = !pruned_devices;
    r_evaluated_new = !evaluated_new;
    r_resumed = !resumed;
    r_simulated = !simulated;
    r_validations_resumed = !validations_resumed;
    r_evals = evals;
    r_validations = validations;
    r_frontier = frontier_points;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let pp_frontier_point ppf fp =
  let e = fp.fp_eval and v = fp.fp_validation in
  Format.fprintf ppf
    "%-18s %-12s %-6s cu=%-2d %8.2f MPt/s  %5.1f%% %-4s %6.2f W  cycles \
     model/measured %.0f/%d (%+.1f%%)%s%s"
    (String.concat "x" (List.map string_of_int e.ev_point.pt_grid))
    (Variant.to_string e.ev_point.pt_variant)
    (Printf.sprintf "dev=%d" e.ev_point.pt_devices)
    e.ev_cu e.ev_cost.Cost.mpts
    (100.0 *. e.ev_frac)
    (Cost.binding_resource e.ev_cost)
    e.ev_cost.Cost.watts v.va_model_cycles v.va_measured_cycles
    (100.0 *. v.va_divergence)
    (if v.va_flagged then "  [DIVERGENT]" else "")
    (if v.va_max_diff > 1e-9 then "  [NOT BIT-EXACT]" else "")

let pp_report ppf r =
  let flagged =
    List.length (List.filter (fun (_, v) -> v.va_flagged) r.r_validations)
  in
  Format.fprintf ppf
    "@[<v>tune %s (budget %s): %d points enumerated, %d pruned (ports), %d \
     deduped (cu), %d pruned (devices), %d evaluated, %d resumed@,\
     validated: %d point(s) (%d flagged), %d simulated, %d validation(s) \
     resumed@,\
     frontier: %d point(s)@,%a@]"
    r.r_kernel r.r_budget.U280.bud_name r.r_enumerated r.r_pruned_ports
    r.r_pruned_duplicate r.r_pruned_devices r.r_evaluated_new r.r_resumed
    (List.length r.r_validations)
    flagged r.r_simulated r.r_validations_resumed
    (List.length r.r_frontier)
    (Format.pp_print_list pp_frontier_point)
    r.r_frontier
