(** Fixed-size domain worker pool with deterministic job→result mapping.

    The unit of work is one independent closure — a harness
    (series × benchmark) figure cell, or one `disesim serve` job —
    that builds its own machine, engine, and controller and returns a
    value. [run] evaluates an array of such closures on up to [jobs]
    OCaml 5 domains and returns the results {e in submission order},
    so callers that assemble figures (or response streams) from the
    result array produce output bit-identical to a serial run.

    (Lives in [Dise_service] so both the experiment harness and the
    batch server schedule on the same pool.)

    Scheduling guarantees:

    - tasks are {e started} in submission (index) order — a shared
      atomic cursor hands task [i] out before task [i+1];
    - [results.(i)] always holds the value of [tasks.(i)];
    - with [jobs = 1] (or a single task) everything runs in the
      calling domain, in order, with no domain spawned — exactly the
      pre-pool serial behaviour;
    - if any task raises, the exception of the lowest-indexed failing
      task is re-raised (with its backtrace) after all domains have
      been joined, so no work is left running.

    Tasks must not share unsynchronized mutable state; the cross-cell
    caches ({!Request}, {!Dise_workload.Suite}) are internally
    mutex-protected. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for
    [--jobs]. *)

type 'a outcome = ('a, exn * Printexc.raw_backtrace) result
(** Per-task result: the task's value, or the exception (with
    backtrace) it raised. *)

val run_outcomes :
  ?jobs:int ->
  ?probe:(int -> domain:int -> float -> unit) ->
  (unit -> 'a) array ->
  'a outcome array
(** Like {!run}, but a raising task records an [Error] in its own slot
    instead of aborting the batch: every task runs to an outcome, and
    [result.(i)] still corresponds to [tasks.(i)]. The serve loop's
    job-isolation primitive — a poisoned job becomes one in-order
    error response while its batch-mates complete normally (see
    doc/resilience.md). [Out_of_memory] and [Stack_overflow] are
    captured like any other exception; callers that must not survive
    them should re-raise from the outcome. *)

val run :
  ?jobs:int ->
  ?probe:(int -> domain:int -> float -> unit) ->
  (unit -> 'a) array ->
  'a array
(** [run ~jobs tasks] evaluates every task and returns the results in
    submission order. [jobs] defaults to {!default_jobs}; values below
    1 are clamped to 1. At most [jobs - 1] domains are spawned (the
    calling domain is the remaining worker).

    [probe i ~domain seconds] is called after each successful task
    with its submission index, the worker that ran it (0 = calling
    domain), and its wall-clock duration. The probe runs on the worker
    domain and so must be thread-safe (e.g.
    {!Dise_telemetry.Manifest.emit}). Without a probe no timestamps
    are read — the hot path is unchanged. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list ~jobs f xs] is [List.map f xs] evaluated on the pool,
    preserving order. *)
