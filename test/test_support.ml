(* Tests for the support library: ids, errors, statistics, tables. *)

open Shmls_support

let test_idgen_fresh () =
  let g = Idgen.create () in
  Alcotest.(check int) "first" 0 (Idgen.fresh g);
  Alcotest.(check int) "second" 1 (Idgen.fresh g);
  Alcotest.(check int) "peek" 2 (Idgen.peek g);
  Alcotest.(check int) "peek does not advance" 2 (Idgen.fresh g)

let test_idgen_reset () =
  let g = Idgen.create () in
  ignore (Idgen.fresh g);
  ignore (Idgen.fresh g);
  Idgen.reset g;
  Alcotest.(check int) "after reset" 0 (Idgen.fresh g)

let test_idgen_independent () =
  let a = Idgen.create () and b = Idgen.create () in
  ignore (Idgen.fresh a);
  Alcotest.(check int) "b unaffected" 0 (Idgen.fresh b)

let test_err_context () =
  let e = Err.make "boom" in
  let e = Err.add_context "inner" e in
  let e = Err.add_context "outer" e in
  Alcotest.(check string) "message" "boom [in outer < inner]" (Err.to_string e)

let test_err_raise_format () =
  match Err.raise_error "bad %d and %s" 42 "things" with
  | exception Err.Error e ->
    Alcotest.(check string) "formatted" "bad 42 and things" (Err.to_string e)
  | _ -> Alcotest.fail "expected Err.Error"

let test_err_with_context () =
  match Err.with_context "pass foo" (fun () -> Err.raise_error "inner failure") with
  | exception Err.Error e ->
    Alcotest.(check string) "context added" "inner failure [in pass foo]"
      (Err.to_string e)
  | _ -> Alcotest.fail "expected Err.Error"

let test_err_fail_result () =
  match Err.fail "code %d" 7 with
  | Error e -> Alcotest.(check string) "result error" "code 7" (Err.to_string e)
  | Ok _ -> Alcotest.fail "expected Error"

let test_err_get () =
  Alcotest.(check int) "ok value" 3 (Err.get (Ok 3));
  match Err.get (Error (Err.make "nope")) with
  | exception Err.Error _ -> ()
  | _ -> Alcotest.fail "expected raise"

(* A generic handler that prints the exception shows the message, both
   located and unlocated. *)
let test_err_printexc () =
  List.iter
    (fun e ->
      Alcotest.(check string) "printed as its message" (Err.to_string e)
        (Printexc.to_string (Err.Error e)))
    [
      Err.add_context "outer" (Err.make "boom");
      Err.make ~loc:(Loc.file ~file:"k.psy" ~line:5 ~col:12) "unexpected";
    ]

let test_stats_mean () =
  Alcotest.(check (float 1e-12)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_median () =
  Alcotest.(check (float 1e-12)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-12)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-12)) "singleton" 0.0 (Stats.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-9)) "known" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_min_max () =
  let lo, hi = Stats.min_max [ 3.0; -1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "min" (-1.0) lo;
  Alcotest.(check (float 0.0)) "max" 3.0 hi

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ])

let test_stats_empty () =
  Alcotest.check_raises "mean of empty"
    (Err.Error (Err.make "Stats.mean: empty"))
    (fun () -> ignore (Stats.mean []))

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "23" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length rendered > 0
    && String.sub rendered 0 1 = "|");
  Alcotest.(check int) "row count" 2 (List.length (Table.rows t))

let test_table_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "wrong arity"
    (Err.Error (Err.make "Table.add_row: wrong arity"))
    (fun () -> Table.add_row t [ "only-one" ])

(* ------------------------------------------------------------------ *)
(* Pool: the adaptive shared-cursor pool *)

let test_pool_seq_noop () =
  let p = Pool.create 0 in
  Alcotest.(check int) "size" 0 (Pool.size p);
  Alcotest.(check int) "effective jobs" 1 (Pool.effective_jobs p);
  let r = Pool.map p (fun x -> x * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "map" [| 2; 4; 6 |] r;
  Pool.shutdown p

let test_pool_map_order () =
  let p = Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let input = Array.init 1000 (fun i -> i) in
      let r = Pool.map p (fun x -> x * x) input in
      Alcotest.(check bool)
        "order-preserving" true
        (r = Array.map (fun x -> x * x) input);
      let items = List.init 257 (fun i -> i) in
      Alcotest.(check (list int))
        "map_list order" (List.map succ items)
        (Pool.map_list p succ items))

exception Boom of int

let test_pool_error_smallest_index () =
  let p = Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let input = Array.init 100 (fun i -> i) in
      match
        Pool.map p (fun x -> if x mod 10 = 7 then raise (Boom x) else x) input
      with
      | exception Boom i ->
        Alcotest.(check int) "smallest failing index" 7 i
      | _ -> Alcotest.fail "expected Boom")

(* A map issued from inside a map item, on the same one-worker pool: the
   inner map's queued task cannot start while the worker runs the outer
   item, so the inner caller must finish every item itself rather than
   wait for the queued task. *)
let test_pool_nested_map () =
  let p = Pool.create 1 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let r =
        Pool.map p
          (fun x ->
            Array.fold_left ( + ) 0 (Pool.map p (fun y -> x * y) [| 1; 2; 3 |]))
          [| 1; 2; 3; 4 |]
      in
      Alcotest.(check (array int)) "nested sums" [| 6; 12; 18; 24 |] r)

let test_pool_resolve_jobs () =
  Alcotest.(check int) "positive is literal" 3 (Pool.resolve_jobs 3);
  Alcotest.(check int)
    "zero is adaptive"
    (Pool.default_jobs ())
    (Pool.resolve_jobs 0);
  Alcotest.(check int)
    "negative is adaptive"
    (Pool.default_jobs ())
    (Pool.resolve_jobs (-1))

let test_pool_with_pool () =
  Alcotest.(check int)
    "jobs=1 is the sequential pool" 1
    (Pool.with_pool ~jobs:1 Pool.effective_jobs);
  Alcotest.(check int)
    "jobs=4 gives 4 streams" 4
    (Pool.with_pool ~jobs:4 Pool.effective_jobs);
  Alcotest.(check int)
    "jobs=0 sizes to the machine"
    (Pool.default_jobs ())
    (Pool.with_pool ~jobs:0 Pool.effective_jobs);
  (* the shared adaptive pool is reused, not respawned, across calls *)
  let a = Pool.with_pool ~jobs:0 (fun p -> p) in
  let b = Pool.with_pool ~jobs:0 (fun p -> p) in
  Alcotest.(check bool) "adaptive pool is shared" true (a == b)

let qcheck_pool_map_matches_sequential =
  Test_common.Helpers.qtest ~count:30
    "parallel map = Array.map for any jobs/chunk"
    QCheck2.Gen.(pair (int_range 1 5) (list_size (int_range 0 200) small_int))
    (fun (jobs, items) ->
      let input = Array.of_list items in
      let expect = Array.map (fun x -> (x * 31) lxor 7) input in
      let got =
        Pool.with_pool ~jobs (fun p ->
            Pool.map p (fun x -> (x * 31) lxor 7) input)
      in
      got = expect)

let test_jsonl_obj () =
  let line =
    Jsonl.obj
      [
        ("kernel", Jsonl.Str "pw_advection");
        ("grid", Jsonl.Ints [ 8; 8; 8 ]);
        ("cu", Jsonl.Int 4);
        ("mpts", Jsonl.Float 391.5);
        ("feasible", Jsonl.Bool true);
      ]
  in
  Alcotest.(check string)
    "rendered"
    {|{"kernel":"pw_advection","grid":[8,8,8],"cu":4,"mpts":391.5,"feasible":true}|}
    line;
  Alcotest.(check (option string))
    "string" (Some "pw_advection")
    (Jsonl.find_string line "kernel");
  Alcotest.(check (option (list int)))
    "ints"
    (Some [ 8; 8; 8 ])
    (Jsonl.find_ints line "grid");
  Alcotest.(check (option int)) "int" (Some 4) (Jsonl.find_int line "cu");
  Alcotest.(check (option (float 1e-12)))
    "float" (Some 391.5) (Jsonl.find_float line "mpts");
  Alcotest.(check (option bool)) "bool" (Some true) (Jsonl.find_bool line "feasible");
  Alcotest.(check (option int)) "absent" None (Jsonl.find_int line "missing")

let test_jsonl_escape_roundtrip () =
  let tricky = "a\"b\\c\nd\te" in
  let line = Jsonl.obj [ ("s", Jsonl.Str tricky) ] in
  Alcotest.(check (option string))
    "escaped string round-trips" (Some tricky) (Jsonl.find_string line "s");
  (* a quote inside a value cannot shadow a later key *)
  let line =
    Jsonl.obj [ ("a", Jsonl.Str "\",\"b\":"); ("b", Jsonl.Int 9) ]
  in
  Alcotest.(check (option int)) "key after tricky value" (Some 9)
    (Jsonl.find_int line "b")

let test_jsonl_float_repr () =
  Alcotest.(check string) "integral keeps .0" "392.0" (Jsonl.float_repr 392.0);
  let f = 391.83673469387753 in
  Alcotest.(check (float 0.0))
    "non-integral round-trips" f
    (float_of_string (Jsonl.float_repr f))

(* A resume file whose last row was cut mid-write: the cut row is dropped
   from the file and from the rows, and complete rows are kept as is. *)
let test_jsonl_resume_lines () =
  let path = Filename.temp_file "jsonl_resume" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let write text =
        Out_channel.with_open_bin path (fun oc -> output_string oc text)
      in
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let rows = {|{"a":1}|} ^ "\n" ^ {|{"a":2}|} ^ "\n" in
      write rows;
      Alcotest.(check (list string))
        "complete file" [ {|{"a":1}|}; {|{"a":2}|} ] (Jsonl.resume_lines path);
      Alcotest.(check string) "complete file untouched" rows (read ());
      write (rows ^ {|{"a":3,"b"|});
      Alcotest.(check (list string))
        "cut row dropped" [ {|{"a":1}|}; {|{"a":2}|} ] (Jsonl.resume_lines path);
      Alcotest.(check string) "cut row removed from the file" rows (read ());
      write {|{"a":1|};
      Alcotest.(check (list string)) "only row cut" [] (Jsonl.resume_lines path);
      Alcotest.(check string) "file emptied" "" (read ());
      Alcotest.(check (list string))
        "missing file" []
        (Jsonl.resume_lines (path ^ ".missing")))

let qcheck_mean_bounds =
  Test_common.Helpers.qtest "mean lies within min/max"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Stats.mean xs in
      let lo, hi = Stats.min_max xs in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let qcheck_median_bounds =
  Test_common.Helpers.qtest "median lies within min/max"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Stats.median xs in
      let lo, hi = Stats.min_max xs in
      m >= lo && m <= hi)

let () =
  Alcotest.run "support"
    [
      ( "idgen",
        [
          Alcotest.test_case "fresh advances" `Quick test_idgen_fresh;
          Alcotest.test_case "reset" `Quick test_idgen_reset;
          Alcotest.test_case "independent counters" `Quick test_idgen_independent;
        ] );
      ( "err",
        [
          Alcotest.test_case "context trail" `Quick test_err_context;
          Alcotest.test_case "raise with format" `Quick test_err_raise_format;
          Alcotest.test_case "with_context" `Quick test_err_with_context;
          Alcotest.test_case "fail builds result" `Quick test_err_fail_result;
          Alcotest.test_case "get" `Quick test_err_get;
          Alcotest.test_case "printexc shows the message" `Quick
            test_err_printexc;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min_max" `Quick test_stats_min_max;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
          qcheck_mean_bounds;
          qcheck_median_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "emit and extract" `Quick test_jsonl_obj;
          Alcotest.test_case "escape round-trips" `Quick
            test_jsonl_escape_roundtrip;
          Alcotest.test_case "float repr" `Quick test_jsonl_float_repr;
          Alcotest.test_case "resume drops a cut last row" `Quick
            test_jsonl_resume_lines;
        ] );
      ( "pool",
        [
          Alcotest.test_case "sequential pool is a no-op" `Quick
            test_pool_seq_noop;
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "smallest failing index re-raises" `Quick
            test_pool_error_smallest_index;
          Alcotest.test_case "nested map completes" `Quick test_pool_nested_map;
          Alcotest.test_case "resolve_jobs" `Quick test_pool_resolve_jobs;
          Alcotest.test_case "with_pool sizing" `Quick test_pool_with_pool;
          qcheck_pool_map_matches_sequential;
        ] );
    ]
