(** Fault injection against the service layer's documented recovery
    guarantees.

    Cache faults: entries are bit-flipped, truncated, emptied,
    replaced by garbage, or given a stale salt — {!Dise_service.Cache}
    documents that lookups never raise, corrupt entries are retired
    and recomputed, and concurrent recovery is idempotent. A
    multi-domain hammer has several domains find/store/invalidate one
    key while it is repeatedly corrupted, asserting no domain ever
    raises or observes a wrong payload.

    Serve faults: JSONL streams with malformed, oversized, and
    partial lines, served by a real worker tier
    ({!Dise_service.Coordinator}, over temp files standing in for
    stdin/stdout) — {!Dise_service.Server} documents one in-order
    response per job with kind ["parse"] for bad lines and no stream
    desync. The drain check delivers a real SIGINT mid-stream through
    the same handler wiring [disesim serve] installs and asserts the
    tier finishes its admitted work, flushes whole response lines,
    and returns.

    Resilience faults (doc/resilience.md): chaos directives
    ({!Dise_service.Resilience.Chaos}) poison or stall individual
    jobs to assert the serve layer's isolation ([internal] responses
    in order), deadline ([timeout]) and shedding ([overloaded])
    guarantees; planted non-directory files make every cache store
    fail to assert that jobs still answer ok (each dropped store
    counted in the summary's [store_drops]) and that a healed cache
    stores again; and the only worker is SIGKILLed mid-batch to
    assert its respawned replacement is handed every in-flight job
    again — each answered ok once, in order, and cached.

    Every serve check spawns worker processes, which are re-execs of
    the host executable: call
    {!Dise_service.Coordinator.worker_child_main} first thing in any
    executable that runs them (the CLI and the test runner do). See
    doc/fuzzing.md for the full fault matrix. *)

type report = {
  passed : int;
  failures : (string * string) list;  (** check name, detail *)
}

val cache_faults : seed:int -> report
val serve_faults : seed:int -> report
val resilience_faults : seed:int -> report

val serve_raw :
  ?cfg:Dise_service.Serve_config.t ->
  ?stop:Dise_service.Server.Stop.t ->
  ?manifest:Dise_telemetry.Manifest.t ->
  ?on_spawn:(shard:int -> pid:int -> unit) ->
  ?chaos:(requests:int -> Dise_service.Coordinator.chaos_action list) ->
  ?cache_dir:string ->
  string ->
  Dise_service.Server.summary * string list
(** [serve_raw input] serves the raw bytes [input] (one JSONL stream;
    a missing final newline is allowed) through a real worker tier,
    exactly as [disesim serve] does over stdin/stdout, with temp
    files standing in for the two pipes; returns the tier summary and
    the non-blank response lines. [cfg] defaults to
    {!Dise_service.Serve_config.default}; the other arguments are
    {!Dise_service.Coordinator.run}'s. *)

val chaos_faults : seed:int -> report
(** Scheduled chaos against a live 3-worker tier ([disesim fuzz
    --chaos]): a fixed {!Chaos_sched} schedule drops a heartbeat,
    gray-stalls one worker past the hedge threshold, tears a frame
    mid-stream, and permanently kills a shard mid-run — asserting
    every request is still answered exactly once, in order, all ok,
    with zero summary errors; and that two executions of the same
    schedule produce identical normalized response streams. *)

val run_all : seed:int -> report
(** All of the above; reports are concatenated. *)

val pp_report : Format.formatter -> report -> unit
