(** Sharded multi-process serve tier.

    [disesim serve] runs this coordinator: [--workers N] (default 1)
    worker {e processes} (re-executions of the current binary, dispatched
    through {!worker_child_main} via the {!env_var} spawn
    environment), each owning one shard of the content-addressed
    result keyspace. The coordinator is a pure front end — it parses,
    admits, routes, and reorders, but never simulates:

    - {e sharding} — jobs route by {!Request.key} over a
      consistent-hash ring ({!Shard}), so identical requests always
      reach the same worker and each worker's in-memory state is
      authoritative for its slice;
    - {e transport} — length-prefixed JSON frames over each worker's
      stdin/stdout pipes; responses carry the coordinator-global
      sequence number, so the front end can reorder per-stream while
      workers answer in completion order;
    - {e supervision} — a worker that exits is reaped, respawned on
      the same shard, and handed its inflight frames again; every
      result is a deterministic function of its request, so jobs
      that had stored their result return as cache hits and the rest
      are recomputed.
      Beyond crash-respawn, the coordinator heartbeats every worker
      ([ping]/[pong] frames, {!Resilience.Health}): a worker that
      misses [suspect_misses] consecutive heartbeats — or holds a
      request longer than [hedge_p95x] times the tier's request p95
      (gray failure) — turns [Suspect] and its in-flight requests are
      {e hedged} to the next worker on the ring; the first non-error
      response wins and duplicates are deduped. A worker that misses
      [dead_misses] heartbeats or exhausts [respawn_cap] is declared
      [Dead] and {e failed over}: it is removed from the ring (only
      its keys move, {!Shard.remove}), its in-flight requests are
      re-routed through the surviving ring, and the tier keeps
      serving in degraded mode — the merged summary's ["topology"] member
      records the new shape. Pings start once a worker's hello
      arrives, and a worker keeps ponging while a batch runs (a
      helper domain does it once the batch outlives half an
      interval), so heartbeat death means a wedged frame loop, never
      a long legitimate job;
    - {e admission} — per-tenant quotas and [dyn_target] load
      shedding against the work in flight tier-wide; rejected jobs
      are answered ["overloaded"] by the coordinator without touching
      a worker;
    - {e telemetry} — at shutdown each worker ships its metrics
      delta (the serve counters included); the coordinator folds them
      ({!Dise_telemetry.Metrics.merge}) with its own and emits one
      merged ["serve_summary"] manifest record with a per-worker
      ["workers"] breakdown; its ["counters"] member is the merged
      snapshot's counters section
      (doc/schema/serve_summary.schema.json).

    Stdin and socket clients are connections of the same event loop,
    so they share one framer, one admission path and one wire
    contract ({!Server}): a client cannot tell stdio from a socket,
    or [--workers 4] from [--workers 1], except by throughput. See
    doc/serve-tier.md. *)

val env_var : string
(** ["DISESIM_SERVE_WORKER"] — presence in the environment makes
    {!worker_child_main} take over the process as a worker. *)

(** One fault from a chaos schedule, applied between client requests
    (the [?chaos] hook below). The deterministic schedule file and its
    seeded execution live in [Dise_fuzz.Chaos_sched]; the coordinator
    only executes actions:

    - [Chaos_kill] — SIGKILL the shard's process; [permanent] first
      exhausts its respawn cap, so the crash triggers failover instead
      of a respawn;
    - [Chaos_stall] — queue a [stall] frame: the worker wedges its
      frame loop for [ms] milliseconds (a gray failure: alive, not
      progressing, not ponging);
    - [Chaos_torn] — queue a [chaos_torn] frame: the worker emits the
      first [cut] bytes of a frame and dies mid-write, leaving a torn
      tail on the pipe;
    - [Chaos_drop_ping] — lose the shard's next heartbeat in transit
      (a guaranteed miss);
    - [Chaos_suspect] — mark the shard [Suspect] directly, hedging
      its in-flight requests on the next supervision pass. *)
type chaos_action =
  | Chaos_kill of { shard : int; permanent : bool }
  | Chaos_stall of { shard : int; ms : int }
  | Chaos_torn of { shard : int; cut : int }
  | Chaos_drop_ping of { shard : int }
  | Chaos_suspect of { shard : int }

val worker_child_main : unit -> unit
(** Worker dispatch hook: call {e first} in any binary that may spawn
    workers (the CLI and the test runner do). Returns immediately in
    a normal process; in a spawned worker it configures the cache and
    the JIT from the spawn spec, serves frames from stdin until EOF
    or a stop frame, emits its summary frame, and [_exit]s. *)

val write_all : Unix.file_descr -> string -> int -> unit
(** [write_all fd s off] writes [s] from [off] to the end, surviving
    [EINTR] and — on a descriptor someone marked nonblocking — a full
    pipe ([EAGAIN]/[EWOULDBLOCK]: wait for writability, resume at the
    same offset). The frame transport relies on this never tearing a
    length-prefixed frame; exposed so the tests can drive it against
    a deliberately tiny, nonblocking pipe. *)

type front_end =
  | Stdio of { input : Unix.file_descr; output : Unix.file_descr }
      (** One JSONL stream — [disesim serve]'s stdin and stdout. It is
          finished at EOF once every admitted line is answered and
          flushed, and then the tier shuts down. The descriptors stay
          the caller's (never closed here); [input] is read only when
          [select] reports it readable, so it may be blocking. *)
  | Socket of string
      (** A Unix-domain listener at this path, serving every accepted
          connection until {!Server.Stop.signal}. Socket-claiming
          semantics are {!Server.listen_socket}'s (a live server on
          the path refuses the start, a stale file is reclaimed); the
          socket file is unlinked on the way out. *)

val run :
  ?stop:Server.Stop.t ->
  ?manifest:Dise_telemetry.Manifest.t ->
  ?on_spawn:(shard:int -> pid:int -> unit) ->
  ?chaos:(requests:int -> chaos_action list) ->
  ?cache_dir:string ->
  ?jit:bool * int ->
  Serve_config.t ->
  front_end ->
  Server.summary
(** The serve tier: spawn [cfg.workers] workers, then run one
    non-blocking [select] event loop multiplexing the front end's
    connections and every worker pipe in one thread. Each connection
    is an independent JSONL stream with in-order responses and a
    window of at most [queue] lines in flight: further lines wait,
    framed, in the connection's buffer and are admitted in input
    order as slots free (so lines that arrive together are admitted
    exactly as they would be one by one), and further bytes wait in
    the kernel. Admission — per-tenant quota, then [shed_above] — is
    checked against everything in flight tier-wide.

    Returns once the front end is done (stdio: EOF and drained;
    socket: stopped and drained): workers are stopped and merged into
    the summary, and the ["serve_summary"] manifest record is written.
    [cache_dir]/[jit] configure the workers' result cache and JIT
    ([None] cache = caching off); [on_spawn] observes every (re)spawn
    — the fault-injection tests use it to aim SIGKILL. [chaos] is
    consulted once per admitted client request with the running
    request count and returns the faults to apply at that point —
    [Dise_fuzz.Chaos_sched.hook] is the schedule-file-driven
    implementation. Raises [Cache.Diag_error] when the socket cannot
    be claimed, or when the last worker is gone for good (the tier is
    torn down first). SIGPIPE is ignored while the tier runs. *)
