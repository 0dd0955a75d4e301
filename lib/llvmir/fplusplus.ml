(* The f++ preprocessing tool (Fortran-HLS [15], as used in the paper's
   Figure 1): pattern-matches the void marker-function calls that encode
   HLS directives in the emitted LLVM-IR and rewrites them into the
   artefacts the AMD Xilinx HLS backend expects:

     _shmls_pipeline_ii_N()        -> !llvm.loop pipeline metadata on the
                                      enclosing loop's latch branch (f++
                                      walks the loop tree to find it)
     _shmls_unroll_N()             -> !llvm.loop unroll metadata
     _shmls_array_partition_K_F()  -> function-level partition annotation
     _shmls_dataflow()             -> "dataflow" function attribute
     _shmls_interface_B_bankN()    -> an entry in the v++ connectivity
                                      configuration (the .cfg file that
                                      maps each bundle to an HBM bank)

   @llvm.fpga.set.stream.depth calls are legal backend intrinsics and are
   left in place. *)

type report = {
  pipelines : int;
  unrolls : int;
  partitions : int;
  dataflows : int;
  interfaces : int;
  connectivity : (string * int) list; (* bundle -> HBM bank *)
  origins : (string * string) list; (* function -> source provenance *)
}

let empty_report =
  {
    pipelines = 0;
    unrolls = 0;
    partitions = 0;
    dataflows = 0;
    interfaces = 0;
    connectivity = [];
    origins = [];
  }

let prefix = "_shmls_"

(* [s] has [p] at position [at]; no substring is allocated. *)
let has_at ~p s at =
  let n = String.length p in
  String.length s >= at + n
  &&
  let rec go i = i = n || (p.[i] = s.[at + i] && go (i + 1)) in
  go 0

let starts_with ~p s = has_at ~p s 0

let parse_trailing_int s =
  match String.rindex_opt s '_' with
  | Some i -> int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

(* The loop id of a block labelled "forN.header" / "forN.body" / ...,
   and whether the label is that loop's latch. *)
let loop_of_label label =
  if starts_with ~p:"for" label then
    match String.index_opt label '.' with
    | Some dot -> int_of_string_opt (String.sub label 3 (dot - 3))
    | None -> None
  else None

let is_latch label = has_at ~p:".latch" label (String.index label '.')

(* The per-function tallies, accumulated in place; connectivity is kept
   reversed until the report is built. *)
type tally = {
  mutable t_pipelines : int;
  mutable t_unrolls : int;
  mutable t_partitions : int;
  mutable t_dataflows : int;
  mutable t_interfaces : int;
  mutable t_connectivity : (string * int) list; (* reversed *)
}

let run_on_func (m : Ll.modul) (fn : Ll.func) =
  let t =
    {
      t_pipelines = 0;
      t_unrolls = 0;
      t_partitions = 0;
      t_dataflows = 0;
      t_interfaces = 0;
      t_connectivity = [];
    }
  in
  (* loop id -> metadata strings to attach, reversed *)
  let loop_md : string list Int_tbl.t = Int_tbl.create 8 in
  let add_loop_md loop s =
    let cur = Option.value ~default:[] (Int_tbl.find_opt loop_md loop) in
    Int_tbl.replace loop_md loop (s :: cur)
  in
  let plen = String.length prefix in
  (* one marker call: record it, and say whether the call stays *)
  let marker (b : Ll.block) callee =
    let body = String.sub callee plen (String.length callee - plen) in
    if starts_with ~p:"pipeline_ii_" body then begin
      (match (loop_of_label b.bl_label, parse_trailing_int body) with
      | Some loop, Some ii ->
        add_loop_md loop
          ("!{!\"llvm.loop.pipeline.enable\", i32 " ^ string_of_int ii
         ^ ", i1 false}")
      | _ -> ());
      t.t_pipelines <- t.t_pipelines + 1;
      false
    end
    else if starts_with ~p:"unroll_" body then begin
      (match (loop_of_label b.bl_label, parse_trailing_int body) with
      | Some loop, Some factor ->
        add_loop_md loop
          (if factor = 0 then "!{!\"llvm.loop.unroll.full\"}"
           else
             "!{!\"llvm.loop.unroll.count\", i32 " ^ string_of_int factor ^ "}")
      | _ -> ());
      t.t_unrolls <- t.t_unrolls + 1;
      false
    end
    else if starts_with ~p:"array_partition_" body then begin
      t.t_partitions <- t.t_partitions + 1;
      false
    end
    else if body = "dataflow" then begin
      t.t_dataflows <- t.t_dataflows + 1;
      false
    end
    else if starts_with ~p:"interface_" body then begin
      (* interface_<bundle>_bank<N> *)
      let rest = String.sub body 10 (String.length body - 10) in
      (match String.rindex_opt rest '_' with
      | Some i ->
        let bundle = String.sub rest 0 i in
        let bank =
          if has_at ~p:"bank" rest (i + 1) then
            Option.value ~default:(-1)
              (int_of_string_opt
                 (String.sub rest (i + 5) (String.length rest - i - 5)))
          else -1
        in
        t.t_interfaces <- t.t_interfaces + 1;
        t.t_connectivity <- (bundle, bank) :: t.t_connectivity
      | None -> ());
      false
    end
    else true
  in
  (* pass 1: find and remove markers *)
  List.iter
    (fun (b : Ll.block) ->
      if
        List.exists
          (function
            | Ll.Call (None, Ll.Void, callee, [], _) -> starts_with ~p:prefix callee
            | _ -> false)
          b.bl_instrs
      then
        b.bl_instrs <-
          List.filter
            (fun (i : Ll.instr) ->
              match i with
              | Ll.Call (None, Ll.Void, callee, [], _)
                when starts_with ~p:prefix callee ->
                marker b callee
              | _ -> true)
            (List.rev b.bl_instrs)
          |> List.rev)
    fn.fn_blocks;
  (* pass 2: attach loop metadata to latch branches *)
  if Int_tbl.length loop_md > 0 then
    List.iter
      (fun (b : Ll.block) ->
        match loop_of_label b.bl_label with
        | Some loop when is_latch b.bl_label -> (
          match Int_tbl.find_opt loop_md loop with
          | Some mds when mds <> [] ->
            let md_refs =
              List.map
                (fun body -> "!" ^ string_of_int (Ll.add_metadata m body))
                (List.rev mds)
            in
            let self = Ll.add_metadata m "distinct !{null}" in
            let loop_md_id =
              Ll.add_metadata m
                ("distinct !{!" ^ string_of_int self ^ ", "
                ^ String.concat ", " md_refs ^ "}")
            in
            b.bl_instrs <-
              List.map
                (fun (i : Ll.instr) ->
                  match i with
                  | Ll.Br target ->
                    Ll.BrLoop (target, "!" ^ string_of_int loop_md_id)
                  | other -> other)
                b.bl_instrs
          | _ -> ())
        | _ -> ())
      fn.fn_blocks;
  ( {
      pipelines = t.t_pipelines;
      unrolls = t.t_unrolls;
      partitions = t.t_partitions;
      dataflows = t.t_dataflows;
      interfaces = t.t_interfaces;
      connectivity = List.rev t.t_connectivity;
      origins =
        (match fn.Ll.fn_src with
        | Some src -> [ (fn.Ll.fn_name, src) ]
        | None -> []);
    },
    t.t_dataflows > 0 )

(* Run f++ over the whole module; returns the aggregate report and the
   v++ connectivity configuration text. *)
let run (m : Ll.modul) =
  let reports =
    List.map
      (fun fn ->
        let r, df = run_on_func m fn in
        if df then fn.Ll.fn_attrs <- fn.Ll.fn_attrs @ [ "\"fpga.dataflow.func\"" ];
        r)
      (List.rev m.m_funcs)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    pipelines = sum (fun r -> r.pipelines);
    unrolls = sum (fun r -> r.unrolls);
    partitions = sum (fun r -> r.partitions);
    dataflows = sum (fun r -> r.dataflows);
    interfaces = sum (fun r -> r.interfaces);
    connectivity = List.concat_map (fun r -> r.connectivity) reports;
    origins = List.concat_map (fun r -> r.origins) reports;
  }

(* The v++ linker configuration the paper describes writing manually:
   one sp line per bundle -> HBM bank assignment. *)
let connectivity_config ~kernel (report : report) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "[connectivity]\n";
  (* arguments sharing a bundle (the small data) share one port: dedup *)
  let seen = Hashtbl.create 8 in
  let entries =
    List.filter
      (fun (bundle, _) ->
        if Hashtbl.mem seen bundle then false
        else begin
          Hashtbl.add seen bundle ();
          true
        end)
      report.connectivity
  in
  List.iter
    (fun (bundle, bank) ->
      if bank >= 0 then
        Buffer.add_string buf
          (Printf.sprintf "sp=%s_1.m_axi_%s:HBM[%d]\n" kernel bundle bank)
      else
        Buffer.add_string buf
          (Printf.sprintf "sp=%s_1.m_axi_%s:HBM[30:31]\n" kernel bundle))
    entries;
  Buffer.contents buf

(* Count remaining marker calls (should be zero after [run]). *)
let remaining_markers (m : Ll.modul) =
  let n = ref 0 in
  List.iter
    (fun fn ->
      Ll.iter_instrs
        (fun i ->
          match i with
          | Ll.Call (_, _, callee, _, _) when starts_with ~p:prefix callee -> incr n
          | _ -> ())
        fn)
    m.m_funcs;
  !n
