(* [shmls_bench compare A... -- B...]: two sets of result records (the
   JSON Lines [run --out] writes), judged by the bounds BENCHMARK.json
   fixes.  Per workload and metric: the median of each set, and each
   set's spread (interquartile distance over median).  A metric whose
   spread in either set exceeds its bound is unresolved; otherwise B is
   worse, better or the same as A by whether its median moved by more
   than the bound.  failed_frac has no bound: B is worse when its pooled
   failed/attempted is higher than A's at all. *)

module Table = Shmls_support.Table

type verdict = Better | Same | Worse | Unresolved

let verdict_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [bound = None] means any increase is worse (failed_frac). *)
let classify ~bound ~lower_is_better a b =
  let ma = Metrics.median a and mb = Metrics.median b in
  let worse_by = if lower_is_better then mb -. ma else ma -. mb in
  match bound with
  | None -> if worse_by > 0.0 then Worse else if worse_by < 0.0 then Better else Same
  | Some bound ->
    let rel = Metrics.ratio worse_by (Float.abs ma) in
    if Metrics.spread a > bound || Metrics.spread b > bound then Unresolved
    else if rel > bound then Worse
    else if rel < -.bound then Better
    else Same

(* (name, bound, lower is better) from BENCHMARK.json, plus failed_frac. *)
let bounds benchmark =
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        Some (Json.to_num (Json.member "bound" m)),
        Json.to_str (Json.member "better" m) = "lower" ))
    (Json.to_list (Json.member "end_to_end" benchmark))
  @ [ ("failed_frac", None, true) ]

let load_records files =
  List.concat_map
    (fun f ->
      Runner.read_lines f
      |> List.filter (fun l -> String.trim l <> "")
      |> List.map Json.of_string
      |> List.filter (fun r -> Json.member "trace" r = Json.Bool false))
    files

let value record name =
  Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" record)))

(* A set's failed requests over its attempted ones: one failing run
   among ten shows here, where the median of the runs' failed_frac
   would stay 0. *)
let pooled_failed_frac records =
  let sum k = List.fold_left (fun acc r -> acc +. Json.to_num (Json.member k r)) 0.0 records in
  Metrics.ratio (sum "failed") (sum "attempted")

(* One metric of one workload: the values compared for each set, and
   the verdict. *)
let judge (name, bound, lower_is_better) ra rb =
  let values rs =
    if bound = None then [ pooled_failed_frac rs ] else List.map (fun r -> value r name) rs
  in
  let va = values ra and vb = values rb in
  (va, vb, classify ~bound ~lower_is_better va vb)

let workloads records =
  List.sort_uniq compare (List.map (fun r -> Json.to_str (Json.member "workload" r)) records)

let of_workload w records =
  List.filter (fun r -> Json.to_str (Json.member "workload" r) = w) records

(* Same seed, same inputs: every (workload, seed) present in both sets
   must have generated the same request list. *)
let digests_agree a b =
  let key r =
    ( Json.to_str (Json.member "workload" r),
      Json.to_num (Json.member "seed" r),
      Json.to_str (Json.member "requests_digest" r) )
  in
  let ka = List.map key a and kb = List.map key b in
  List.for_all
    (fun (w, s, d) ->
      List.for_all (fun (w', s', d') -> w <> w' || s <> s' || d = d') kb)
    ka

let main ~benchmark files_a files_b =
  let a = load_records files_a and b = load_records files_b in
  if a = [] || b = [] then failwith "compare: a set has no untraced result records";
  let t =
    Table.create
      ~aligns:
        Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Left ]
      ([ "workload"; "metric"; "median A"; "median B"; "change" ]
      @ [ "spread A"; "spread B"; "bound"; "verdict" ])
  in
  let worse = ref 0 in
  List.iter
    (fun w ->
      let ra = of_workload w a and rb = of_workload w b in
      if ra <> [] && rb <> [] then
        List.iter
          (fun ((name, bound, _) as metric) ->
            let va, vb, v = judge metric ra rb in
            if v = Worse then incr worse;
            let ma = Metrics.median va and mb = Metrics.median vb in
            let pct x = Printf.sprintf "%.2f%%" (100.0 *. x) in
            Table.add_row t
              [
                w;
                name;
                Printf.sprintf "%.6g" ma;
                Printf.sprintf "%.6g" mb;
                Printf.sprintf "%+.2f%%" (100.0 *. Metrics.ratio (mb -. ma) (Float.abs ma));
                pct (Metrics.spread va);
                pct (Metrics.spread vb);
                (match bound with Some b -> pct b | None -> "any rise");
                verdict_string v;
              ])
          (bounds benchmark))
    (workloads (a @ b));
  Table.print t;
  Printf.printf "runs: %d in A, %d in B; request digests %s for equal seeds\n"
    (List.length a) (List.length b)
    (if digests_agree a b then "agree" else "DIFFER");
  !worse = 0 && digests_agree a b
