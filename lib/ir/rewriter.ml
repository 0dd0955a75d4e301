(* Greedy pattern-rewrite driver, the moral equivalent of MLIR's
   applyPatternsAndFoldGreedily.  Patterns carry a benefit; at each op the
   highest-benefit matching pattern is applied.

   The driver is worklist-based (like MLIR's GreedyPatternRewriteDriver)
   rather than a full-tree re-snapshot fixpoint: the worklist is seeded
   once from the tree in pre-order, and a successful rewrite re-enqueues
   only the affected neighbourhood — ops newly inserted around the
   rewritten op, users of its results, producers of its operands, the
   enclosing op, and the op itself if it survived.  When the worklist
   drains, one full verification sweep (identical to a single iteration of
   the old driver) confirms the fixpoint; if the sweep still fires, its
   re-enqueues feed another drain.  The final IR is therefore exactly the
   fixpoint the re-snapshot driver computed, reached in O(touched ops)
   instead of O(iterations x tree size).

   An iteration cap (worklist generations + sweeps) remains the safety net
   against ping-ponging pattern sets, with the same diagnostics naming the
   last-applied pattern. *)

type pattern = {
  pat_name : string;
  benefit : int;
  matches : Ir.op -> bool;
  rewrite : Ir.op -> bool; (* true iff it changed the IR *)
}

let make_pattern ?(benefit = 1) ~name ~matches ~rewrite () =
  { pat_name = name; benefit; matches; rewrite }

(* ------------------------------------------------------------------ *)
(* Pattern sets: named, composable collections of patterns.

   Passes used to hold bare [pattern list]s and compose them with ad-hoc
   appends; a set gives the collection an identity (the driver run is
   named after it, so non-convergence and --stats point at the set) and
   a composition algebra, which is what lets variant-dependent passes
   assemble their rewrite behaviour from named fragments instead of
   bespoke conditional walks: [union base [fragment_for_variant]]. *)

type pattern_set = { ps_name : string; ps_patterns : pattern list }

let pattern_set ~name patterns = { ps_name = name; ps_patterns = patterns }

(* Compose sets left to right.  Duplicate pattern *names* are rejected:
   a set is a dispatch table, and two entries with one name means a
   fragment was composed twice. *)
let union ?name sets =
  let all = List.concat_map (fun s -> s.ps_patterns) sets in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.pat_name then
        Err.raise_error
          "pattern set union: pattern %S appears in more than one fragment"
        p.pat_name;
      Hashtbl.add seen p.pat_name ())
    all;
  let name =
    match name with
    | Some n -> n
    | None -> String.concat "+" (List.map (fun s -> s.ps_name) sets)
  in
  { ps_name = name; ps_patterns = all }

let default_max_iterations = 64

type driver_stats = {
  ds_driver : string;
  ds_iterations : int; (* worklist generations + verification sweeps *)
  ds_visits : int; (* ops visited (dequeues + sweep visits) *)
  ds_rewrites : int; (* successful pattern applications *)
  ds_fires : (string * int) list; (* per-pattern application counts *)
}

let last = ref None
let last_stats () = !last

(* Per-pattern fire counts accumulated across every driver invocation
   since the last reset, for the drivers' --stats summaries. *)
let cumulative : (string, int) Hashtbl.t = Hashtbl.create 16

let reset_cumulative_fires () = Hashtbl.reset cumulative

let cumulative_fires () =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) cumulative []
  |> List.sort (fun (a, na) (b, nb) ->
         match Int.compare nb na with 0 -> String.compare a b | c -> c)

(* Snapshot the op list (patterns may erase or insert ops while we
   iterate).  Erased ops are detected by their parent pointer being unset. *)
let ops_in_tree root =
  let acc = ref [] in
  Ir.Op.walk root (fun op -> if not (Ir.Op.equal op root) then acc := op :: !acc);
  List.rev !acc

let still_attached (op : Ir.op) =
  (* an op detached by erase loses its parent *)
  match op.o_parent with None -> false | Some _ -> true

type work = Op of Ir.op | Generation_marker

let apply_patterns ?(name = "rewrite") ?(max_iterations = default_max_iterations)
    patterns root =
  let patterns =
    List.sort (fun a b -> Int.compare b.benefit a.benefit) patterns
  in
  let queue : work Queue.t = Queue.create () in
  let queued : unit Int_tbl.t = Int_tbl.create 256 in
  let enqueue (op : Ir.op) =
    if (not (Ir.Op.equal op root)) && not (Int_tbl.mem queued op.o_id) then begin
      Int_tbl.add queued op.o_id ();
      Queue.add (Op op) queue
    end
  in
  let enqueue_tree op = Ir.Op.walk op enqueue in
  let changed_total = ref false in
  let visits = ref 0 in
  let rewrites = ref 0 in
  let iterations = ref 0 in
  (* Track which pattern fired last (and how often each fired) so the
     non-convergence diagnostic can name the likely culprit. *)
  let last_applied = ref None in
  let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let non_convergence () =
    let culprit =
      match !last_applied with
      | Some p ->
        Printf.sprintf "; last applied pattern %S (%d applications)"
          p.pat_name
          (try Hashtbl.find counts p.pat_name with Not_found -> 0)
      | None -> ""
    in
    let msg =
      Printf.sprintf "pattern driver %S did not converge after %d iterations%s"
        name max_iterations culprit
    in
    raise
      (Err.Error
         (Diagnostic.make
            ?pattern:(Option.map (fun p -> p.pat_name) !last_applied)
            msg))
  in
  let record_fire p =
    incr rewrites;
    changed_total := true;
    last_applied := Some p;
    Hashtbl.replace counts p.pat_name
      (1 + try Hashtbl.find counts p.pat_name with Not_found -> 0);
    Hashtbl.replace cumulative p.pat_name
      (1 + try Hashtbl.find cumulative p.pat_name with Not_found -> 0)
  in
  (* Visit one op: apply the highest-benefit matching pattern, and on
     success re-enqueue the neighbourhood whose match status may have
     changed. *)
  let visit (op : Ir.op) =
    incr visits;
    if still_attached op then
      match List.find_opt (fun p -> p.matches op) patterns with
      | None -> ()
      | Some p ->
        (* capture the neighbourhood before the rewrite mutates it *)
        let prev = op.o_prev in
        let next = op.o_next in
        let parent = op.o_parent in
        let users =
          Array.fold_left
            (fun acc (v : Ir.value) ->
              List.fold_left
                (fun acc (u : Ir.use) -> u.Ir.u_op :: acc)
                acc v.Ir.v_uses)
            [] op.o_results
        in
        let operand_defs =
          Array.fold_left
            (fun acc v ->
              match Ir.Value.defining_op v with
              | Some d -> d :: acc
              | None -> acc)
            [] op.o_operands
        in
        if p.rewrite op then begin
          record_fire p;
          (match parent with
          | None -> ()
          | Some b ->
            (* ops now sitting between the captured neighbours are the
               newly inserted ones (plus the op itself if it survived) *)
            let start =
              match prev with
              | Some pr
                when (match pr.Ir.o_parent with
                     | Some pb -> pb == b
                     | None -> false) ->
                pr.Ir.o_next
              | _ -> b.Ir.b_first
            in
            let rec scan cur =
              match cur with
              | None -> ()
              | Some o ->
                if (match next with Some s -> s == o | None -> false) then ()
                else begin
                  enqueue_tree o;
                  scan o.Ir.o_next
                end
            in
            scan start;
            (* the enclosing op's own match status may depend on its body *)
            (match b.Ir.b_parent with
            | Some r -> (
              match r.Ir.r_parent with
              | Some po when still_attached po -> enqueue po
              | _ -> ())
            | None -> ()));
          List.iter (fun u -> if still_attached u then enqueue u) users;
          List.iter (fun d -> if still_attached d then enqueue d) operand_defs;
          if still_attached op then enqueue op
        end
  in
  let bump_iteration () =
    incr iterations;
    if !iterations >= max_iterations then non_convergence ()
  in
  (* Drain the worklist; a generation marker separates waves so runaway
     pattern sets hit the iteration cap instead of spinning forever. *)
  let drain () =
    if not (Queue.is_empty queue) then begin
      Queue.add Generation_marker queue;
      let rec go () =
        match Queue.take_opt queue with
        | None -> ()
        | Some Generation_marker ->
          if not (Queue.is_empty queue) then begin
            bump_iteration ();
            Queue.add Generation_marker queue;
            go ()
          end
        | Some (Op op) ->
          Int_tbl.remove queued op.o_id;
          visit op;
          go ()
      in
      go ()
    end
  in
  (* Seed once from the tree, in pre-order. *)
  Ir.Op.walk root (fun op -> if not (Ir.Op.equal op root) then enqueue op);
  drain ();
  (* Fixpoint verification: one full sweep, exactly like a single
     iteration of a re-snapshot driver.  Quiet sweep => converged. *)
  let rec sweep_until_quiet () =
    bump_iteration ();
    let before = !rewrites in
    List.iter visit (ops_in_tree root);
    if !rewrites > before then begin
      drain ();
      sweep_until_quiet ()
    end
  in
  (* If the seeded drain fired nothing, it already was a full quiet sweep
     and the tree is at fixpoint; only a drain that rewrote needs the
     confirmation sweep (the neighbourhood re-enqueue is conservative, the
     sweep makes the fixpoint guarantee unconditional). *)
  if !rewrites > 0 then sweep_until_quiet ();
  last :=
    Some
      {
        ds_driver = name;
        ds_iterations = !iterations;
        ds_visits = !visits;
        ds_rewrites = !rewrites;
        ds_fires =
          Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts []
          |> List.sort (fun (a, na) (b, nb) ->
                 match Int.compare nb na with
                 | 0 -> String.compare a b
                 | c -> c);
      };
  !changed_total

(* Apply a pattern set; the driver run is named after the set, so
   diagnostics and --stats attribute fires to it. *)
let apply_set ?max_iterations set root =
  apply_patterns ~name:set.ps_name ?max_iterations set.ps_patterns root
