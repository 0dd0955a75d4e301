(* The cycle simulator against the per-cycle tick oracle at a paper
   grid (256x256x128, 8.4M points), where fill and drain each span tens
   of thousands of cycles and every affine jump covers most of them;
   tracer's fused no-split design also fills and drains one compute
   pipeline 545 iterations deep around its six grid passes.  Compares
   cycles, verdict, stalled stage, per-stage progress and final FIFO
   occupancy; exits 1 on the first design that differs.

     dune exec test/paper_oracle/paper_oracle.exe *)

let () = Shmls_dialects.Register.all ()

module Cs = Shmls_fpga.Cycle_sim

let designs =
  let v = Shmls.Variant.of_string_exn in
  [
    (Shmls_kernels.Pw_advection.kernel, "full");
    (Shmls_kernels.Pw_advection.kernel, "no-split");
    (Shmls_kernels.Tracer_advection.kernel, "full");
    (Shmls_kernels.Tracer_advection.kernel, "no-split");
  ]
  |> List.map (fun ((k : Shmls.Ast.kernel), variant) ->
         ( Printf.sprintf "%s{%s} 256x256x128" k.k_name variant,
           k,
           v variant ))

let () =
  let failed = ref false in
  List.iter
    (fun (name, k, variant) ->
      let c = Shmls.compile_cached ~variant k ~grid:[ 256; 256; 128 ] in
      let t0 = Unix.gettimeofday () in
      let e = Cs.run c.c_design in
      let t1 = Unix.gettimeofday () in
      let t = Test_common.Tick_oracle.run c.c_design in
      let t2 = Unix.gettimeofday () in
      let same =
        e.cycles = t.cycles && e.deadlocked = t.deadlocked
        && e.stalled_stage = t.stalled_stage
        && e.progress = t.progress
        && e.fifo_occupancy = t.fifo_occupancy
      in
      Printf.printf
        "%s: %s — %d cycles (oracle %d), %d stepped; engine %.3f s, oracle \
         %.1f s\n%!"
        name
        (if same then "ok" else "DIFFERS")
        e.cycles t.cycles e.cycles_simulated (t1 -. t0) (t2 -. t1);
      if not same then failed := true)
    designs;
  if !failed then exit 1
