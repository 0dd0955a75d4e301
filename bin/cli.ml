(* The front end the three executables share: kernel lookup, grid
   parsing, the adapter for the library's string-result parsers, and
   the one handler that turns every error a command raises into a
   cmdliner usage error (exit 124) instead of an uncaught exception. *)

let builtin_kernels =
  [
    ("pw_advection", Shmls_kernels.Pw_advection.kernel);
    ("tracer_advection", Shmls_kernels.Tracer_advection.kernel);
    ("sum_neighbours_1d", Shmls_kernels.Didactic.sum_neighbours_1d);
    ("laplace_2d", Shmls_kernels.Didactic.laplace_2d);
    ("heat_3d", Shmls_kernels.Didactic.heat_3d);
    ("gradient_smooth_3d", Shmls_kernels.Didactic.gradient_smooth_3d);
  ]

(* A built-in kernel by name, or a .psy kernel file. *)
let load_kernel spec =
  match List.assoc_opt spec builtin_kernels with
  | Some k -> k
  | None ->
    if Sys.file_exists spec then Shmls.Psy_parser.parse_file spec
    else
      failwith
        (Printf.sprintf
           "unknown kernel %S (not a built-in: %s; and no such file)" spec
           (String.concat ", " (List.map fst builtin_kernels)))

(* "256x256x128" -> [256; 256; 128] *)
let parse_grid s =
  String.split_on_char 'x' s
  |> List.map String.trim
  |> List.map (fun d ->
         match int_of_string_opt d with
         | Some n when n > 0 -> n
         | _ -> failwith ("bad grid dimension: " ^ d))

(* A comma-separated list; blank elements are skipped, and an empty list
   is an error naming [flag]. *)
let parse_list ~flag parse s =
  match
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map parse
  with
  | [] -> failwith ("empty " ^ flag)
  | l -> l

let parse_grids s = parse_list ~flag:"--grids" parse_grid s

(* The library's [(_, string) result] parsers (variants, links, budgets,
   validation scopes) already word their own errors. *)
let get = function Ok v -> v | Error msg -> failwith msg

let run f =
  match f () with
  | () -> `Ok ()
  | exception Shmls_support.Err.Error e ->
    `Error (false, Shmls_support.Err.to_string e)
  | exception (Failure msg | Sys_error msg) -> `Error (false, msg)
