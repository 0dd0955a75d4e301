(* Dense rank-1..3 float grids over integer bounds, the runtime data
   representation shared by the reference interpreter and the functional
   FPGA simulator.  Indexing is row-major over [lb, ub) per dimension.

   The bounds are mirrored into int arrays together with precomputed
   row-major strides, so the per-point hot paths (interpreter apply
   loops, functional-simulator shift networks) index with a handful of
   integer multiply-adds instead of re-walking cons lists. *)

open Shmls_ir

type t = {
  bounds : Ty.bounds;
  data : float array;
  lb : int array; (* bounds.lb as an array *)
  ub : int array; (* bounds.ub as an array *)
  strides : int array; (* row-major strides, innermost = 1 *)
}

(* (lb, ub, strides) arrays of a bounds value. *)
let geometry (bounds : Ty.bounds) =
  let lb = Array.of_list bounds.Ty.lb and ub = Array.of_list bounds.Ty.ub in
  let rank = Array.length lb in
  let strides = Array.make rank 1 in
  for d = rank - 2 downto 0 do
    strides.(d) <- strides.(d + 1) * (ub.(d + 1) - lb.(d + 1))
  done;
  (lb, ub, strides)

let extent t = Ty.bounds_extent t.bounds
let size t = Ty.bounds_points t.bounds
let rank t = Array.length t.lb

let create bounds =
  let lb, ub, strides = geometry bounds in
  { bounds; data = Array.make (Ty.bounds_points bounds) 0.0; lb; ub; strides }

let copy t = { t with data = Array.copy t.data }

let linear_index t idx =
  let rank = Array.length t.lb in
  let rec go d idx acc =
    match idx with
    | [] ->
      if d = rank then acc else Err.raise_error "Grid: index rank mismatch"
    | i :: idx' ->
      if d >= rank then Err.raise_error "Grid: index rank mismatch";
      let lb = t.lb.(d) and ub = t.ub.(d) in
      if i < lb || i >= ub then
        Err.raise_error "Grid: index %d outside [%d,%d)" i lb ub;
      go (d + 1) idx' (acc + ((i - lb) * t.strides.(d)))
  in
  go 0 idx 0

let get t idx = t.data.(linear_index t idx)
let set t idx v = t.data.(linear_index t idx) <- v

(* Linear offset of an absolute index given as an array, no bounds
   checks: callers validate the corners of their loop nest once (see
   [check_index_arr]) instead of every point. *)
let unsafe_linear t (pos : int array) =
  let lin = ref 0 in
  for d = 0 to Array.length pos - 1 do
    lin :=
      !lin
      + ((Array.unsafe_get pos d - Array.unsafe_get t.lb d)
        * Array.unsafe_get t.strides d)
  done;
  !lin

(* A plain loop: this runs per point on every access not proven in
   range, so it must not allocate. *)
let check_index_arr t (pos : int array) =
  if Array.length pos <> Array.length t.lb then
    Err.raise_error "Grid: index rank mismatch";
  for d = 0 to Array.length pos - 1 do
    let i = pos.(d) in
    if i < t.lb.(d) || i >= t.ub.(d) then
      Err.raise_error "Grid: index %d outside [%d,%d)" i t.lb.(d) t.ub.(d)
  done

(* Whether every point of [bounds] lies inside [t]: checking the two
   corners of the (rectangular) region subsumes the per-point checks, so
   loop nests validate once and index unchecked. *)
let region_inside t (bounds : Ty.bounds) =
  Ty.bounds_points bounds = 0
  ||
  let lb, ub, _ = geometry bounds in
  Array.length lb = Array.length t.lb
  && begin
       let ok = ref true in
       Array.iteri
         (fun d l -> if l < t.lb.(d) || ub.(d) > t.ub.(d) then ok := false)
         lb;
       !ok
     end

(* Iterate f over every point of [bounds] (row-major). *)
let iter_bounds (bounds : Ty.bounds) f =
  let lb, ub, _ = geometry bounds in
  let rank = Array.length lb in
  let idx = Array.copy lb in
  let rec go d =
    if d = rank then f (Array.to_list idx)
    else
      for i = lb.(d) to ub.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

(* Same iteration handing out one shared mutable index array: the hot
   paths read it and must not retain it across points. *)
let iter_bounds_arr (bounds : Ty.bounds) f =
  let lb, ub, _ = geometry bounds in
  let rank = Array.length lb in
  let idx = Array.copy lb in
  let rec go d =
    if d = rank then f idx
    else
      for i = lb.(d) to ub.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let iter t f = iter_bounds t.bounds (fun idx -> f idx (get t idx))

let map_inplace t f =
  iter_bounds t.bounds (fun idx -> set t idx (f idx (get t idx)))

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(* Deterministic pseudo-random initialisation (splitmix-style hash of the
   linear index), so every flow sees identical input data without carrying
   an RNG around.  Scaling by 2^-32 is exact, as the division it replaces
   was. *)
let hash_fill ~seed (data : float array) =
  for i = 0 to Array.length data - 1 do
    let z = Int64.of_int (((i + 1) * 0x9E3779B9) + seed) in
    let z = Int64.mul z 0xBF58476D1CE4E5B9L in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u = Int64.to_float (Int64.logand z 0xFFFFFFFFL) *. 0x1p-32 in
    Array.unsafe_set data i ((2.0 *. u) -. 1.0)
  done

let init_hash ?(seed = 42) t = hash_fill ~seed t.data

(* [create] then [init_hash], without zeroing cells the hash overwrites. *)
let create_hashed ?(seed = 42) bounds =
  let lb, ub, strides = geometry bounds in
  let data = Array.create_float (Ty.bounds_points bounds) in
  hash_fill ~seed data;
  { bounds; data; lb; ub; strides }

(* Reindex from [lb, ub) to [0, ub-lb) sharing the same storage: the
   row-major layout is unchanged (same extent, hence same strides), so
   writes through either view alias. *)
let rebase_zero t =
  let extent = Ty.bounds_extent t.bounds in
  {
    t with
    bounds = Ty.make_bounds ~lb:(List.map (fun _ -> 0) extent) ~ub:extent;
    lb = Array.make (Array.length t.lb) 0;
    ub = Array.of_list extent;
  }

let max_abs_diff a b =
  if Array.length a.data <> Array.length b.data then
    Err.raise_error "Grid.max_abs_diff: size mismatch";
  let d = ref 0.0 in
  Array.iteri
    (fun i x -> d := Float.max !d (Float.abs (x -. b.data.(i))))
    a.data;
  !d

let equal_within ~tol a b = max_abs_diff a b <= tol

(* [Float.max] folded over [d] and |a - b| for [n] cells from [ia] and
   [ib], bit for bit but without its sign-bit calls.  Every |a - b| and
   so the running maximum has a clear sign bit, and then [Float.max d v]
   is [v] exactly when [v > d] or [v] is NaN (a later NaN replaces an
   earlier one); the [v <= d] test alone settles the common lane. *)
let max_abs_diff_row (da : float array) ia (db : float array) ib n d =
  let d = ref d in
  for j = 0 to n - 1 do
    let v =
      Float.abs (Array.unsafe_get da (ia + j) -. Array.unsafe_get db (ib + j))
    in
    if (not (v <= !d)) && (v > !d || Float.is_nan v) then d := v
  done;
  !d

(* Restrict comparison to the interior region [lb, ub).  When the region
   sits inside both grids (validated once at the corners), the innermost
   extent is contiguous in each, so the comparison runs over whole rows;
   otherwise fall back to the per-point path for its index errors. *)
let max_abs_diff_on bounds a b =
  if not (region_inside a bounds && region_inside b bounds) then begin
    let d = ref 0.0 in
    iter_bounds_arr bounds (fun pos ->
        check_index_arr a pos;
        check_index_arr b pos;
        let da = a.data.(unsafe_linear a pos)
        and db = b.data.(unsafe_linear b pos) in
        d := Float.max !d (Float.abs (da -. db)));
    !d
  end
  else if Ty.bounds_points bounds = 0 then 0.0
  else begin
    let lb, ub, _ = geometry bounds in
    let rank = Array.length lb in
    let inner = ub.(rank - 1) - lb.(rank - 1) in
    let d = ref 0.0 in
    let pos = Array.copy lb in
    let rec go dim =
      if dim = rank - 1 then
        d :=
          max_abs_diff_row a.data (unsafe_linear a pos) b.data
            (unsafe_linear b pos) inner !d
      else
        for i = lb.(dim) to ub.(dim) - 1 do
          pos.(dim) <- i;
          go (dim + 1)
        done
    in
    go 0;
    !d
  end

let checksum t = Array.fold_left ( +. ) 0.0 t.data
