(** A pool of worker domains for embarrassingly parallel sweeps
    (OCaml 5 [Domain]s, no dependencies).

    [map] is a shared-cursor scheduler: the caller and the workers each
    claim the next unclaimed index with one atomic fetch-and-add, and
    write each result into the slot of its input index — so the output
    order is identical to a sequential run regardless of scheduling, and
    per-item exceptions are re-raised in the caller for the smallest
    failing index, matching what a sequential loop would report first.
    The caller waits for the items, never for a queued worker task.

    Sizing is adaptive: [jobs <= 0] resolves to
    [Domain.recommended_domain_count ()], served by a process-global
    pool spawned lazily once and reused across maps.  On a one-domain
    machine (and for [jobs = 1]) the pool is a true no-op — no spawn, no
    mutex, no queue; [map] is [Array.map]. *)

type t

(** [create n] spawns [n] worker domains. [n <= 0] creates the
    zero-overhead sequential pool (no domains). *)
val create : int -> t

(** Number of worker domains (the caller participates in [map] too). *)
val size : t -> int

(** [size t + 1]: the number of concurrent streams of work a [map] on
    this pool uses (workers plus the calling domain). *)
val effective_jobs : t -> int

(** Parallel, order-preserving map. Results and error behaviour are
    independent of the pool size — only wall-clock changes. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** Close the queue and join all worker domains (no-op on the
    sequential pool). Never call on the shared adaptive pool handed out
    by [with_pool ~jobs:0]. *)
val shutdown : t -> unit

(** [Domain.recommended_domain_count ()] — what adaptive sizing
    resolves to. *)
val default_jobs : unit -> int

(** [resolve_jobs jobs] is [jobs] if positive, else [default_jobs ()] —
    the "[jobs = 0] / unset means adaptive" rule, in one place. *)
val resolve_jobs : int -> int

(** [with_pool ~jobs f] runs [f] with a pool sized for [jobs] concurrent
    streams of work. [jobs <= 0] is adaptive: the shared global pool,
    sized to the machine, spawned once per process and *not* shut down
    afterwards (a no-op [Seq] pool on a one-domain machine). [jobs = 1]
    is the sequential pool. [jobs > 1] creates a dedicated pool of
    [jobs - 1] workers and shuts it down afterwards. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a
