(* Time-stepping on the device: Jacobi iteration for the Laplace
   equation, running the compiled relaxation design repeatedly with
   the classic two-grid swap (every production stencil host code works
   this way; the paper's kernels are single steps of such loops).

     dune exec examples/jacobi_iteration.exe *)

let nx = 48
let ny = 48

let () =
  let kernel = Shmls_kernels.Didactic.laplace_2d in
  let c = Shmls.compile kernel ~grid:[ nx; ny ] in

  (* two padded grids; the halo ring acts as the fixed boundary *)
  let bounds = Shmls.Ty.make_bounds ~lb:[ -1; -1 ] ~ub:[ nx + 1; ny + 1 ] in
  let a = Shmls.Grid.create bounds in
  let b = Shmls.Grid.create bounds in
  (* boundary condition: hot left edge (phi = 1 at i = -1), cold
     elsewhere; interior starts at 0 *)
  List.iter
    (fun g ->
      for j = -1 to ny do
        Shmls.Grid.set g [ -1; j ] 1.0
      done)
    [ a; b ];

  let residual src dst =
    let r = ref 0.0 in
    for i = 0 to nx - 1 do
      for j = 0 to ny - 1 do
        r :=
          Float.max !r
            (Float.abs (Shmls.Grid.get dst [ i; j ] -. Shmls.Grid.get src [ i; j ]))
      done
    done;
    !r
  in

  (* every step runs the same design, so the cost model prices it once *)
  let cost = Shmls.Cost_model.evaluate_design c.c_design in
  let step_seconds = cost.cycles /. Shmls.U280.clock_hz in

  let max_steps = 2000 in
  let tol = 1e-6 in
  let rec go step (src : Shmls.Grid.t) (dst : Shmls.Grid.t) =
    (* kernel arguments: phi (read), phi_new (written) *)
    Shmls.run_design c
      ~args:[| Shmls.Functional.Ptr (src.data, 0); Shmls.Functional.Ptr (dst.data, 0) |];
    let r = residual src dst in
    if step mod 200 = 0 then
      Printf.printf "step %4d   residual %.3e\n" step r;
    if r < tol then (step, r)
    else if step >= max_steps then (step, r)
    else go (step + 1) dst src
  in
  let steps, r = go 1 a b in
  Printf.printf "\nstopped at residual %.3e after %d Jacobi steps\n" r steps;
  Printf.printf "modelled device time: %.3f ms total (%.1f us/step at %d CUs)\n"
    (1000.0 *. step_seconds *. float_of_int steps)
    (1e6 *. step_seconds) c.c_cu;

  (* sanity: the converged solution is harmonic (discrete mean value
     property) away from the boundary *)
  let final = if steps mod 2 = 1 then b else a in
  let mid = Shmls.Grid.get final [ nx / 2; ny / 2 ] in
  Printf.printf "centre value %.4f (between the boundary extremes 0 and 1)\n" mid
