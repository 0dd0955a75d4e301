(* A pool of worker domains for embarrassingly parallel maps (OCaml 5,
   no dependencies).

   Sizing is adaptive: [with_pool ~jobs:0] resolves to
   [Domain.recommended_domain_count ()] and, on a one-domain machine,
   degrades to a true zero-overhead sequential path — no domain spawn,
   no mutex, no task queue, just [Array.map].  The adaptive default is
   served by one process-global pool, spawned lazily on first use and
   reused by every subsequent map, so repeated small maps (the bench's
   10-run protocol, a sweep driver) never pay domain-spawn cost per
   call.

   [map] is a shared-cursor scheduler: every participant (the caller
   plus the workers) claims the next unclaimed index with one atomic
   fetch-and-add and runs that item.  Each item is a compile, a
   verification or a cycle simulation, so one atomic per item is never
   measurable.  The caller waits for every item to complete, not for
   every worker to run: a worker that starts after the last index was
   claimed finds nothing to do, so a map never waits on a queued task.

   Determinism: each item's result is written into the slot of its input
   index, so the output order — and everything downstream of a parallel
   sweep — is identical to a sequential run regardless of which domain
   ran which item.  Per-item exceptions are caught and re-raised in the
   caller for the smallest failing index, again matching what a
   sequential loop would report first. *)

(* ------------------------------------------------------------------ *)
(* The worker-domain substrate: a task queue drained by [n] domains. *)

type par = {
  n_workers : int;
  mutable closed : bool;
  tasks : (unit -> unit) Queue.t;
  m : Mutex.t;
  work : Condition.t; (* signalled when a task arrives or the pool closes *)
  mutable domains : unit Domain.t list;
}

(* [Seq] is the zero-overhead degenerate pool: no domains, no mutex, no
   queue — [map] is [Array.map].  It is what adaptive sizing resolves to
   on a one-domain machine and what [jobs = 1] always uses. *)
type t = Seq | Par of par

let size = function Seq -> 0 | Par p -> p.n_workers
let effective_jobs t = size t + 1

let rec worker_loop p =
  Mutex.lock p.m;
  while Queue.is_empty p.tasks && not p.closed do
    Condition.wait p.work p.m
  done;
  if Queue.is_empty p.tasks then Mutex.unlock p.m (* closed and drained *)
  else begin
    let task = Queue.pop p.tasks in
    Mutex.unlock p.m;
    task ();
    worker_loop p
  end

let create n =
  if n <= 0 then Seq
  else begin
    let p =
      {
        n_workers = n;
        closed = false;
        tasks = Queue.create ();
        m = Mutex.create ();
        work = Condition.create ();
        domains = [];
      }
    in
    p.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop p));
    Par p
  end

let submit p task =
  Mutex.protect p.m (fun () ->
      if p.closed then invalid_arg "Pool.map: pool is shut down";
      Queue.push task p.tasks;
      Condition.signal p.work)

let shutdown t =
  match t with
  | Seq -> ()
  | Par p ->
    Mutex.protect p.m (fun () ->
        p.closed <- true;
        Condition.broadcast p.work);
    List.iter Domain.join p.domains;
    p.domains <- []

(* ------------------------------------------------------------------ *)
(* Shared-cursor map *)

let map t f arr =
  match t with
  | Seq -> Array.map f arr
  | Par p ->
    let n = Array.length arr in
    let results : ('b, exn) result option array = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let done_m = Mutex.create () in
    let done_c = Condition.create () in
    let rec grind () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (try Ok (f arr.(i)) with e -> Error e);
        if Atomic.fetch_and_add remaining (-1) = 1 then
          Mutex.protect done_m (fun () -> Condition.broadcast done_c);
        grind ()
      end
    in
    for _ = 1 to min p.n_workers (n - 1) do
      submit p grind
    done;
    grind ();
    Mutex.protect done_m (fun () ->
        while Atomic.get remaining > 0 do
          Condition.wait done_c done_m
        done);
    (* sequential error semantics: the smallest failing index re-raises *)
    Array.map
      (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false)
      results

let map_list t f items = Array.to_list (map t f (Array.of_list items))

(* ------------------------------------------------------------------ *)
(* Adaptive sizing and the shared global pool *)

let default_jobs () = Domain.recommended_domain_count ()
let resolve_jobs jobs = if jobs <= 0 then default_jobs () else jobs

(* The process-global pool serving [jobs = 0]: spawned lazily once,
   sized to the machine, reused for every adaptive map so repeated
   sweeps never pay domain-spawn cost.  On a one-domain machine this is
   [Seq] — adaptive parallelism is a no-op by construction. *)
let global_m = Mutex.create ()
let global_pool : t option ref = ref None

let global () =
  Mutex.protect global_m (fun () ->
      match !global_pool with
      | Some p -> p
      | None ->
        let p = create (default_jobs () - 1) in
        global_pool := Some p;
        p)

let with_pool ~jobs f =
  if jobs <= 0 then f (global ()) (* adaptive: shared pool, not shut down *)
  else if jobs = 1 then f Seq
  else begin
    let t = create (jobs - 1) in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
  end
