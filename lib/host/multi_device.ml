(* First-class multi-device designs (DESIGN.md section 16).

   The slab decomposition as a plan the rest of the stack can reason
   about: one compiled design per slab shape, explicit halo-exchange
   streams between neighbouring devices, and host-level Jacobi
   time-stepping ([mp_sweeps] kernel applications with feedback + halo
   exchange between consecutive sweeps).

   Correctness argument (the induction the tests enforce bit-exactly):
   at every sweep start each slab's padded memory mirrors the global
   memory of the single-device reference on the slab's padded region.
   Seeding establishes it; a design run preserves it on interiors
   (a slab's interior only reads within its halo-padded region);
   the feedback copy is applied identically on both sides; and the
   exchange then refreshes every dim-0 halo plane that lies inside the
   global interior from the owning neighbour's freshly-computed
   interior, which is exactly where the mirror could have gone stale.
   Rows outside the global interior are written by nobody and keep the
   identical initial seed on both sides. *)

module Grid = Shmls_interp.Grid
module Link = Shmls_fpga.Link
module Design = Shmls_fpga.Design
module Cycle_sim = Shmls_fpga.Cycle_sim

type direction = Recv | Send

type exchange_stream = {
  xs_field : string;
  xs_peer : int;
  xs_dir : direction;
  xs_rows : int;
  xs_bytes : int;
}

type slab = {
  sl_device : int;
  sl_offset : int;
  sl_extent : int;
  sl_grid : int list;
  sl_compiled : Shmls.compiled;
  sl_exchanges : exchange_stream list;
}

type plan = {
  mp_kernel : Shmls.Ast.kernel;
  mp_grid : int list;
  mp_variant : Shmls.Variant.t;
  mp_devices : int;
  mp_sweeps : int;
  mp_link : Link.t;
  mp_halo : int list;
  mp_feedback : (string * string) list;
  mp_slabs : slab list;
}

let slab_extents n p =
  let base = n / p and extra = n mod p in
  List.init p (fun i -> base + if i < extra then 1 else 0)

(* Host-level time-stepping pairs: Inout fields feed back in place;
   an Output field "X_new"/"X_out"/"X_next" updates a declared field
   "X" — the Jacobi convention the built-in kernels follow (heat_3d's
   t/t_new, laplace_2d's phi/phi_new, tracer_advection's tsn/tsn_out). *)
let feedback_pairs (k : Shmls.Ast.kernel) =
  let strip name =
    List.find_map
      (fun suffix ->
        let ls = String.length suffix and ln = String.length name in
        if ln > ls && String.sub name (ln - ls) ls = suffix then
          Some (String.sub name 0 (ln - ls))
        else None)
      [ "_new"; "_out"; "_next" ]
  in
  List.filter_map
    (fun (fd : Shmls.Ast.field_decl) ->
      match fd.fd_role with
      | Shmls.Ast.Inout -> Some (fd.fd_name, fd.fd_name)
      | Shmls.Ast.Output -> (
        match strip fd.fd_name with
        | Some base when Shmls.Ast.is_field k base && base <> fd.fd_name ->
          Some (base, fd.fd_name)
        | _ -> None)
      | Shmls.Ast.Input -> None)
    k.k_fields

let mib = 1024 * 1024

(* A slab device keeps every padded field grid and small-data array of
   its slab in its own HBM. Checked before any slab is compiled, so an
   oversized grid fails without allocating anything per point. *)
let check_hbm (k : Shmls.Ast.kernel) ~device ~grid ~halo =
  let padded = List.map2 (fun n h -> n + (2 * h)) grid halo in
  let small_points =
    List.fold_left
      (fun acc (sd : Shmls.Ast.small_decl) -> acc + List.nth padded sd.sd_axis)
      0 k.k_smalls
  in
  let bytes =
    8 * ((List.length k.k_fields * List.fold_left ( * ) 1 padded) + small_points)
  in
  if bytes > Shmls_fpga.U280.hbm_bytes then
    Err.raise_error ~loc:k.k_loc
      "multi_device: device %d needs %d MB of HBM for its %s slab, more than \
       the %d MB it has"
      device (bytes / mib)
      (String.concat "x" (List.map string_of_int grid))
      (Shmls_fpga.U280.hbm_bytes / mib)

let plan ?(variant = Shmls.Variant.default) ?(sweeps = 1)
    ?(link = Link.default) (kernel : Shmls.Ast.kernel) ~grid ~devices =
  if devices < 1 then
    Err.raise_error "multi_device: need at least one device";
  if sweeps < 1 then Err.raise_error "multi_device: need at least one sweep";
  let n0 = List.hd grid in
  if n0 < devices then
    Err.raise_error "multi_device: more devices (%d) than dim-0 rows (%d)"
      devices n0;
  let halo = Shmls.Ast.halo kernel in
  let h0 = List.hd halo in
  let extents = slab_extents n0 devices in
  let offsets =
    List.fold_left (fun acc e -> (List.hd acc + e) :: acc) [ 0 ] extents
    |> List.tl |> List.rev
  in
  List.iteri
    (fun device extent ->
      check_hbm kernel ~device ~grid:(extent :: List.tl grid) ~halo)
    extents;
  let loaded = Shmls.Cost_model.loaded_field_names kernel in
  let slabs =
    List.mapi
      (fun i (offset, extent) ->
        let slab_grid = extent :: List.tl grid in
        let c = Shmls.compile_cached ~variant kernel ~grid:slab_grid in
        let plane = Link.halo_plane_bytes ~grid:slab_grid ~halo in
        let neighbours =
          (if i > 0 then [ i - 1 ] else [])
          @ if i < devices - 1 then [ i + 1 ] else []
        in
        let exchanges =
          if h0 = 0 then []
          else
            List.concat_map
              (fun peer ->
                List.concat_map
                  (fun f ->
                    let stream dir =
                      {
                        xs_field = f;
                        xs_peer = peer;
                        xs_dir = dir;
                        xs_rows = h0;
                        xs_bytes = h0 * plane;
                      }
                    in
                    [ stream Recv; stream Send ])
                  loaded)
              neighbours
        in
        {
          sl_device = i;
          sl_offset = offset;
          sl_extent = extent;
          sl_grid = slab_grid;
          sl_compiled = c;
          sl_exchanges = exchanges;
        })
      (List.combine offsets extents)
  in
  {
    mp_kernel = kernel;
    mp_grid = grid;
    mp_variant = variant;
    mp_devices = devices;
    mp_sweeps = sweeps;
    mp_link = link;
    mp_halo = halo;
    mp_feedback = feedback_pairs kernel;
    mp_slabs = slabs;
  }

let recv_bytes_per_phase (sl : slab) =
  List.fold_left
    (fun acc xs -> if xs.xs_dir = Recv then acc + xs.xs_bytes else acc)
    0 sl.sl_exchanges

(* ------------------------------------------------------------------ *)
(* Functional execution *)

(* One dim-0 plane of a padded grid is contiguous (row-major layout):
   strides.(0) elements starting at (row - lb0) * strides.(0), and
   consecutive rows are consecutive planes. *)
let plane_size (g : Grid.t) =
  if Array.length g.strides = 0 then 1 else g.strides.(0)

let blit_rows ~(src : Grid.t) ~src_row ~(dst : Grid.t) ~dst_row ~rows =
  let ps = plane_size dst in
  Array.blit src.data
    ((src_row - src.lb.(0)) * ps)
    dst.data
    ((dst_row - dst.lb.(0)) * ps)
    (rows * ps)

let resolve_params (k : Shmls.Ast.kernel) (defaults : (string * float) list)
    overrides =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name defaults) then
        Err.raise_error ~loc:k.k_loc "multi_device: unknown parameter %s" name)
    overrides;
  List.map
    (fun (name, v) ->
      match List.assoc_opt name overrides with
      | Some o -> (name, o)
      | None -> (name, v))
    defaults

(* Host-level feedback: the new-state grid is copied onto the old-state
   grid (ping-pong swap). *)
let apply_feedback (p : plan) (st : Shmls.Interp.kernel_state) =
  List.iter
    (fun (dst, src) ->
      if dst <> src then begin
        let d = List.assoc dst st.fields and s = List.assoc src st.fields in
        Array.blit s.Grid.data 0 d.Grid.data 0 (Array.length s.Grid.data)
      end)
    p.mp_feedback

type run_result = {
  rr_outputs : (string * Grid.t) list;
  rr_exchange_phases : int;
  rr_exchanged_bytes : int;
}

let run ?(seed = 7) ?(params = []) (p : plan) =
  let kernel = p.mp_kernel in
  let global =
    Shmls.Interp.alloc_state ~seed (Shmls.lower_cached kernel ~grid:p.mp_grid)
  in
  let params = resolve_params kernel global.params params in
  let h0 = List.hd p.mp_halo in
  let n0 = List.hd p.mp_grid in
  let slabs = Array.of_list p.mp_slabs in
  (* each slab device's memory, seeded from the global state: the
     slab's padded dim-0 rows of every field and dim-0 small (one
     contiguous window, since the other padded extents are the global
     ones), and a copy of every other small *)
  let states =
    Array.map
      (fun sl ->
        let window (g : Grid.t) =
          let ub = Array.to_list g.ub in
          let s =
            Grid.create
              (Shmls.Ty.make_bounds ~lb:(Array.to_list g.lb)
                 ~ub:((sl.sl_extent + h0) :: List.tl ub))
          in
          blit_rows ~src:g ~src_row:(sl.sl_offset - h0) ~dst:s ~dst_row:(-h0)
            ~rows:(sl.sl_extent + (2 * h0));
          s
        in
        {
          Shmls.Interp.fields =
            List.map (fun (name, g) -> (name, window g)) global.fields;
          smalls =
            List.map2
              (fun (sd : Shmls.Ast.small_decl) (name, g) ->
                (name, if sd.sd_axis = 0 then window g else Grid.copy g))
              kernel.k_smalls global.smalls;
          params;
        })
      slabs
  in
  let owner_of_row g0 =
    let rec find i =
      if i >= Array.length slabs then
        Err.raise_error "multi_device: no slab owns row %d" g0
      else
        let sl = slabs.(i) in
        if g0 >= sl.sl_offset && g0 < sl.sl_offset + sl.sl_extent then i
        else find (i + 1)
    in
    find 0
  in
  let exchanged_bytes = ref 0 in
  (* refresh every dim-0 halo plane that lies inside the global
     interior from the device that owns the row; covers every field so
     the slab memories mirror the global memory again *)
  let exchange () =
    Array.iteri
      (fun i (st : Shmls.Interp.kernel_state) ->
        let sl = slabs.(i) in
        let halo_rows =
          List.init h0 (fun r -> -h0 + r)
          @ List.init h0 (fun r -> sl.sl_extent + r)
        in
        List.iter
          (fun r ->
            let g0 = sl.sl_offset + r in
            if g0 >= 0 && g0 < n0 then begin
              let j = owner_of_row g0 in
              List.iter2
                (fun (_, dst) (_, src) ->
                  blit_rows ~src ~src_row:(g0 - slabs.(j).sl_offset) ~dst
                    ~dst_row:r ~rows:1;
                  exchanged_bytes := !exchanged_bytes + (8 * plane_size dst))
                st.fields states.(j).fields
            end)
          halo_rows)
      states
  in
  for sweep = 1 to p.mp_sweeps do
    Array.iteri (fun i st -> Shmls.run_state slabs.(i).sl_compiled st) states;
    if sweep < p.mp_sweeps then begin
      Array.iter (apply_feedback p) states;
      exchange ()
    end
  done;
  (* gather: every written field's slab interiors reassembled into the
     global grid, which nothing else reads after seeding *)
  let outputs =
    List.filter_map
      (fun (fd : Shmls.Ast.field_decl) ->
        if fd.fd_role = Shmls.Ast.Input then None
        else Some (fd.fd_name, List.assoc fd.fd_name global.fields))
      kernel.k_fields
  in
  Array.iteri
    (fun i (st : Shmls.Interp.kernel_state) ->
      let sl = slabs.(i) in
      List.iter
        (fun (name, dst) ->
          blit_rows ~src:(List.assoc name st.fields) ~src_row:0 ~dst
            ~dst_row:sl.sl_offset ~rows:sl.sl_extent)
        outputs)
    states;
  {
    rr_outputs = outputs;
    rr_exchange_phases = p.mp_sweeps - 1;
    rr_exchanged_bytes = !exchanged_bytes;
  }

let reference ?(seed = 7) ?(params = []) (p : plan) =
  let lowered = Shmls.lower_cached p.mp_kernel ~grid:p.mp_grid in
  let st = Shmls.Interp.alloc_state ~seed lowered in
  let st =
    { st with Shmls.Interp.params = resolve_params p.mp_kernel st.params params }
  in
  for sweep = 1 to p.mp_sweeps do
    ignore
      (Shmls.Interp.run_func lowered.l_func
         ~args:(Shmls.Interp.state_args st));
    if sweep < p.mp_sweeps then apply_feedback p st
  done;
  st

let verify_vs_reference ?(seed = 7) ?(params = []) (p : plan) =
  let result = run ~seed ~params p in
  let st =
    (* one sweep with the default parameters is exactly the reference
       [Shmls.verify] caches, and this comparison only reads it *)
    if p.mp_sweeps = 1 && params = [] then
      Shmls.reference_state ~seed
        (Shmls.lower_cached p.mp_kernel ~grid:p.mp_grid)
    else reference ~seed ~params p
  in
  let interior =
    Shmls.Ty.make_bounds
      ~lb:(List.map (fun _ -> 0) p.mp_grid)
      ~ub:p.mp_grid
  in
  let fields =
    List.map
      (fun (name, got) ->
        let want = List.assoc name st.Shmls.Interp.fields in
        (name, Grid.max_abs_diff_on interior want got))
      result.rr_outputs
  in
  let max_diff =
    List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 fields
  in
  { Shmls.v_fields = fields; v_max_diff = max_diff }

(* ------------------------------------------------------------------ *)
(* Cycle-level estimates *)

let estimate (p : plan) =
  Cycle_sim.run_multi ~sweeps:p.mp_sweeps ~link:p.mp_link
    (List.map
       (fun sl -> (sl.sl_compiled.Shmls.c_design, recv_bytes_per_phase sl))
       p.mp_slabs)

let aggregate_mpts (p : plan) (mr : Cycle_sim.multi_result) =
  let interior = List.fold_left ( * ) 1 p.mp_grid in
  let seconds = mr.Cycle_sim.mr_cycles /. Shmls_fpga.U280.clock_hz in
  float_of_int (interior * p.mp_sweeps) /. seconds /. 1e6

let summarise (p : plan) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "multi-device plan: %d device(s), %d sweep(s), link %s, halo %s, \
     feedback %s\n"
    p.mp_devices p.mp_sweeps
    (Link.to_string p.mp_link)
    (String.concat "x" (List.map string_of_int p.mp_halo))
    (if p.mp_feedback = [] then "none"
     else
       String.concat ", "
         (List.map (fun (d, s) -> s ^ "->" ^ d) p.mp_feedback));
  List.iter
    (fun sl ->
      let recv = recv_bytes_per_phase sl in
      Printf.bprintf b
        "  device %d: rows [%d, %d), grid %s, %d CU(s), %d exchange \
         stream(s), %d B/phase recv\n"
        sl.sl_device sl.sl_offset
        (sl.sl_offset + sl.sl_extent)
        (String.concat "x" (List.map string_of_int sl.sl_grid))
        sl.sl_compiled.Shmls.c_cu
        (List.length sl.sl_exchanges)
        recv)
    p.mp_slabs;
  Buffer.contents b
