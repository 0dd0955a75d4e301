(* The 23-kernel corpus, as the source text a user would hand the
   toolchain: the paper's two kernels, the six [Zoo] kernels and the
   four [Didactic] kernels printed with [Psy_printer], plus every
   [examples/kernels/*.psy] read as text. *)

type kernel = {
  id : string;  (** unique: the .psy files reuse some zoo names *)
  source : string;
  rank : int;
}

let builtins =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
  ]
  @ List.map
      (fun ((k : Shmls.Ast.kernel), _) -> ("zoo/" ^ k.k_name, k))
      Shmls_kernels.Zoo.all
  @ List.map
      (fun (k : Shmls.Ast.kernel) -> ("didactic/" ^ k.k_name, k))
      Shmls_kernels.Didactic.all

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let kernels_dir root = Filename.concat root "examples/kernels"

let load ~root =
  let dir = kernels_dir root in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".psy")
    |> List.sort compare
  in
  let printed =
    List.map (fun (id, k) -> (id, Shmls_frontend.Psy_printer.to_string k)) builtins
  in
  let read =
    List.map
      (fun f ->
        ("psy/" ^ Filename.chop_suffix f ".psy", read_file (Filename.concat dir f)))
      files
  in
  List.map
    (fun (id, source) ->
      { id; source; rank = (Shmls.Psy_parser.parse source).k_rank })
    (printed @ read)

let find corpus id =
  match List.find_opt (fun k -> k.id = id) corpus with
  | Some k -> k
  | None -> failwith ("corpus: no kernel " ^ id)

(* Grid tiers.  [laptop] is the --verify scale a user runs (2-D
   128-192 x 96, 3-D 32-48 x 16 x 12, picked per kernel by corpus
   position); [spilling] outgrows the caches (2-D 512 x 256, 3-D
   64 x 48 x 32); [tiny] keeps the smoke fast. *)
let laptop_grid ~index rank =
  match rank with
  | 1 -> [ 16384 ]
  | 2 -> [ List.nth [ 128; 160; 192 ] (index mod 3); 96 ]
  | _ -> [ List.nth [ 32; 40; 48 ] (index mod 3); 16; 12 ]

let spilling_grid rank =
  match rank with 1 -> [ 262144 ] | 2 -> [ 512; 256 ] | _ -> [ 64; 48; 32 ]

let tiny_grid rank =
  match rank with 1 -> [ 32 ] | 2 -> [ 16; 12 ] | _ -> [ 10; 8; 6 ]
